package bounds

import (
	"fmt"
	"math"
)

// solver tolerances: the tabulated constants of the paper carry 4 decimal
// digits, we solve to ~1e-13 so rounding in tests is never an issue.
const bisectTol = 1e-14

// GoldenRatioInverse is 1/φ = 0.6180…, the unique root in (0,1) of
// λ/(1−λ²) = 1; the paper's universal limit value of λ for s→∞.
var GoldenRatioInverse = (math.Sqrt(5) - 1) / 2

// SolveUnitRoot returns the unique λ ∈ (0,1) with w(λ) = 1 for a function w
// that is continuous and strictly increasing on (0,1) with w(0+) < 1 and
// w(1−) > 1. It panics if the bracketing fails.
//
//gossip:allowpanic numerical invariant: the bracketing solver keeps the root inside (0,1); an escape is a bug
func SolveUnitRoot(w func(float64) float64) float64 {
	lo, hi := 0.0, 1.0
	// Shrink hi until w(hi) is finite and > 1 (the limits above blow up at 1).
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		v := w(mid)
		if math.IsInf(v, 1) || v > 1 {
			hi = mid
		} else {
			lo = mid
		}
		if hi-lo < bisectTol {
			break
		}
	}
	root := (lo + hi) / 2
	if root <= 0 || root >= 1 {
		panic(fmt.Sprintf("bounds: unit-root solve escaped (0,1): %g", root))
	}
	return root
}

// E converts a root λ₀ into the lower-bound coefficient
// e = 1/log₂(1/λ₀) of Corollary 4.4.
//
//gossip:allowpanic domain guard: closed-form bounds run on validated parameters; a violation is a programming error
func E(lambda float64) float64 {
	if lambda <= 0 || lambda >= 1 {
		panic(fmt.Sprintf("bounds: E needs 0 < λ < 1, got %g", lambda))
	}
	return 1 / math.Log2(1/lambda)
}

// GeneralHalfDuplex returns (e(s), λ₀) for the general directed/half-duplex
// s-systolic lower bound of Corollary 4.4: any s-systolic gossip protocol on
// any n-vertex network takes at least e(s)·log₂(n) − O(log log n) rounds.
// s must be ≥ 3 (for s = 2 the paper's direct argument gives ≥ n−1 rounds;
// see STwoLowerBound).
//
//gossip:allowpanic domain guard: closed-form bounds run on validated parameters; a violation is a programming error
func GeneralHalfDuplex(s int) (e, lambda float64) {
	if s < 3 {
		panic(fmt.Sprintf("bounds: GeneralHalfDuplex needs s ≥ 3, got %d", s))
	}
	lambda = SolveUnitRoot(func(l float64) float64 { return WHalfDuplex(s, l) })
	return E(lambda), lambda
}

// GeneralHalfDuplexInfinity returns (e(∞), λ₀) for the non-systolic
// corollary: λ₀ = 1/φ and e(∞) = 1.4404…, matching the general bound of
// Even–Monien, Labahn–Warnke, Krumme et al. and Sunderam–Winkler up to the
// O(log log n) additive term.
func GeneralHalfDuplexInfinity() (e, lambda float64) {
	lambda = SolveUnitRoot(WHalfDuplexInfinity)
	return E(lambda), lambda
}

// GeneralFullDuplex returns (e(s), λ₀) for the general full-duplex s-systolic
// bound of Section 6, where λ₀ solves λ + λ² + … + λ^(s−1) = 1. As the paper
// notes, this coincides with the bound inferred from broadcasting in
// bounded-degree graphs: GeneralFullDuplex(s).e == BroadcastConstant(s−1).
//
//gossip:allowpanic domain guard: closed-form bounds run on validated parameters; a violation is a programming error
func GeneralFullDuplex(s int) (e, lambda float64) {
	if s < 3 {
		panic(fmt.Sprintf("bounds: GeneralFullDuplex needs s ≥ 3, got %d", s))
	}
	lambda = SolveUnitRoot(func(l float64) float64 { return WFullDuplex(s, l) })
	return E(lambda), lambda
}

// GeneralFullDuplexInfinity returns (e, λ₀) with λ₀ solving λ/(1−λ) = 1,
// i.e. λ₀ = 1/2 and e = 1: the trivial log₂(n) broadcasting bound, which is
// what the general full-duplex systolic bound degenerates to as s → ∞.
func GeneralFullDuplexInfinity() (e, lambda float64) {
	lambda = SolveUnitRoot(WFullDuplexInfinity)
	return E(lambda), lambda
}

// Theorem51LowerBound returns the explicit finite-instance form of the
// Theorem 5.1 bound, given the concrete separator data of one network
// instance: c = min(|V₁|,|V₂|), d = dist(V₁,V₂), and the norm-cap value
// wVal = w(λ) ≤ 1 at the chosen λ. From the proof,
//
//	(t−d+2)·w(λ)^(d−1) ≥ c/t,
//
// so the bound is the smallest t satisfying
// t ≥ [log₂(c) − (d−1)·log₂(w(λ)) − log₂(t−d+2) − log₂(t)] / log₂(1/λ).
// The caller should maximize over λ; the right-hand side decreases in t, so
// a linear scan terminates.
//
//gossip:allowpanic domain guard: closed-form bounds run on validated parameters; a violation is a programming error
func Theorem51LowerBound(c, d int, lambda, wVal float64) int {
	if c < 1 || d < 1 {
		return 0
	}
	if lambda <= 0 || lambda >= 1 || wVal <= 0 || wVal > 1 {
		panic(fmt.Sprintf("bounds: Theorem51LowerBound needs 0<λ<1 and 0<w≤1, got λ=%g w=%g", lambda, wVal))
	}
	logInv := math.Log2(1 / lambda)
	rhs := func(t int) float64 {
		slack := float64(t - d + 2)
		if slack < 1 {
			slack = 1
		}
		return (math.Log2(float64(c)) - float64(d-1)*math.Log2(wVal) -
			math.Log2(slack) - math.Log2(float64(t))) / logInv
	}
	for t := 1; ; t++ {
		if float64(t) >= rhs(t) {
			return t
		}
	}
}

// STwoLowerBound returns the lower bound on 2-systolic gossiping for an
// n-vertex network: n − 1 rounds (Section 4: the arcs of A₁ ∪ A₂ must form a
// directed cycle, along which items advance at most one arc per step).
//
//gossip:allowpanic domain guard: closed-form bounds run on validated parameters; a violation is a programming error
func STwoLowerBound(n int) int {
	if n < 1 {
		panic(fmt.Sprintf("bounds: STwoLowerBound with n=%d", n))
	}
	return n - 1
}

// STwoFullDuplexLowerBound returns the lower bound on 2-systolic
// full-duplex gossiping: ⌊√n⌋. For s = 2 Lemma 6.1 gives ‖M(λ)‖ ≤ λ for
// every λ < 1, so Theorem 4.1 holds at every λ; letting λ → 1 the
// inequality t > (log₂ n − 2·log₂ t)/log₂(1/λ) forces 2·log₂ t ≥ log₂ n,
// i.e. t ≥ √n. (The protocol's two rounds are perfect matchings whose union
// is a disjoint set of bidirected cycles, so the true time is Θ(n) on a
// single cycle; √n is what the matrix technique certifies.)
//
//gossip:allowpanic domain guard: closed-form bounds run on validated parameters; a violation is a programming error
func STwoFullDuplexLowerBound(n int) int {
	if n < 1 {
		panic(fmt.Sprintf("bounds: STwoFullDuplexLowerBound with n=%d", n))
	}
	return int(math.Sqrt(float64(n)))
}

// Theorem41LowerBound returns the smallest protocol length t consistent with
// Theorem 4.1 for an n-vertex network and a norm root λ with ‖M(λ)‖ ≤ 1. A
// vertex already holds its own item, so the theorem counts the n − 1 items
// that must reach it over time-respecting paths: it rules out every t with
// t ≤ log₂(n−1)/log₂(1/λ) − 2·log₂(t)/log₂(1/λ), and the bound is the
// smallest t satisfying t + 2·log₂(t)/log₂(1/λ) > log₂(n−1)/log₂(1/λ). This
// is the explicit finite-n form of the asymptotic e·log₂(n) − O(log log n)
// statements. Counting all n items instead would put K₂ at 2 rounds in full
// duplex, where one exchange gossips it.
//
//gossip:allowpanic domain guard: closed-form bounds run on validated parameters; a violation is a programming error
func Theorem41LowerBound(n int, lambda float64) int {
	if n < 2 {
		return 0
	}
	if lambda <= 0 || lambda >= 1 {
		panic(fmt.Sprintf("bounds: Theorem41LowerBound needs 0 < λ < 1, got %g", lambda))
	}
	logInv := math.Log2(1 / lambda)
	target := math.Log2(float64(n-1)) / logInv
	// t grows monotonically past the threshold; scan from 1.
	for t := 1; ; t++ {
		if float64(t)+2*math.Log2(float64(t))/logInv > target {
			return t
		}
	}
}
