package systolic

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/gossip"
)

// Request selects which lower bound to evaluate.
type Request struct {
	// Mode is the communication model; Directed and HalfDuplex share the
	// same bounds (Sections 4–5), FullDuplex uses Section 6.
	Mode Mode `json:"mode"`
	// Period is the systolic period s ≥ 2, or NonSystolic for the s→∞
	// corollaries.
	Period int `json:"period"`
}

// NonSystolic requests the s→∞ bounds.
const NonSystolic = bounds.SInfinity

// Bound is an evaluated lower bound on gossiping time. It is
// JSON-serializable; the golden tests pin its schema.
type Bound struct {
	// Coefficient multiplies log₂(n): g(G) ≥ Coefficient·log₂(n) − o(log n).
	Coefficient float64 `json:"coefficient"`
	// Lambda is the λ value realizing the bound (the root for the general
	// bound, the maximizer for separator bounds).
	Lambda float64 `json:"lambda"`
	// Rounds is an explicit finite-n certified round bound: the Theorem 4.1
	// value at the general-bound root for this mode and period (plus the
	// n−1 value for s=2). The asymptotic Coefficient may be larger
	// (separator and diameter refinements carry −o(log n) slack that is
	// not certified at finite n, so it is never folded into Rounds).
	Rounds int `json:"rounds"`
	// Source names the active bound: "general" (Cor. 4.4 / §6),
	// "separator" (Thm. 5.1), "diameter", or the s=2 arguments.
	Source string `json:"source"`
}

// GeneralBound returns the paper's general lower-bound coefficient e(s) and
// the root λ₀ realizing it for the given mode and period (Fig. 4 for
// directed/half-duplex, the Section 6 analogue for full-duplex). Use
// NonSystolic for the s→∞ corollaries.
func GeneralBound(mode Mode, period int) (e, lambda float64) {
	return generalFor(Request{Mode: mode, Period: period})
}

// Evaluate returns the best lower bound the paper provides for the network
// under the request. For networks in the Lemma 3.1 families the separator
// refinement is applied automatically; for all others the general bound is
// returned. Period 2 in the directed/half-duplex modes returns the explicit
// n−1 bound of the Section 4 remark. Implicit networks are evaluated from
// n and the family classification alone — the directed-diameter refinement
// needs explicit adjacency and is skipped (it only applies to tiny
// instances anyway). A period below 2, other than NonSystolic, has no bound
// in the paper and yields ErrBadParam.
func Evaluate(net *Network, req Request) (Bound, error) {
	n := net.N()
	if req.Period < 2 && req.Period != NonSystolic {
		return Bound{}, fmt.Errorf("systolic: evaluate on %s: %w: period %d (the bounds cover s ≥ 2 and s → ∞)",
			net.Name, ErrBadParam, req.Period)
	}
	if req.Period == 2 {
		if req.Mode == gossip.FullDuplex {
			r := bounds.STwoFullDuplexLowerBound(n)
			if lg := ceilLog2(n); lg > r {
				r = lg
			}
			if n <= 4096 && net.G != nil {
				if diam := net.G.Diameter(); diam > r {
					r = diam
				}
			}
			return Bound{Rounds: r, Source: "s=2 sqrt(n) argument"}, nil
		}
		return Bound{Rounds: bounds.STwoLowerBound(n), Source: "s=2 cycle argument"}, nil
	}
	gen, lam := generalFor(req)
	best := Bound{Coefficient: gen, Lambda: lam, Source: "general"}
	if net.FamilyKnown {
		sep := bounds.LemmaSeparator(net.Family, net.DegreeParam)
		spec, lamS := separatorFor(sep, req)
		if spec > best.Coefficient {
			best = Bound{Coefficient: spec, Lambda: lamS, Source: "separator"}
		}
		if diam := bounds.DiameterCoefficient(net.Family, net.DegreeParam); diam > best.Coefficient {
			best = Bound{Coefficient: diam, Lambda: 0, Source: "diameter"}
		}
	}
	// Rounds is certified at finite n by the strongest of three
	// unconditional facts: Theorem 4.1 at the general root (which holds
	// regardless of which refinement gave the best coefficient), the
	// information bound ⌈log₂ n⌉ (knowledge at most doubles per round in
	// every mode), and the directed diameter (an item crosses one arc per
	// round). The diameter is only computed for moderate instance sizes.
	best.Rounds = bounds.Theorem41LowerBound(n, lam)
	if lg := ceilLog2(n); lg > best.Rounds {
		best.Rounds = lg
	}
	if n <= 4096 && net.G != nil {
		if diam := net.G.Diameter(); diam > best.Rounds {
			best.Rounds = diam
		}
	}
	return best, nil
}

func ceilLog2(n int) int {
	lg := 0
	for m := 1; m < n; m <<= 1 {
		lg++
	}
	return lg
}

func generalFor(req Request) (e, lambda float64) {
	if req.Mode == gossip.FullDuplex {
		if req.Period == NonSystolic {
			return bounds.GeneralFullDuplexInfinity()
		}
		return bounds.GeneralFullDuplex(req.Period)
	}
	if req.Period == NonSystolic {
		return bounds.GeneralHalfDuplexInfinity()
	}
	return bounds.GeneralHalfDuplex(req.Period)
}

func separatorFor(sep bounds.Separator, req Request) (e, lambda float64) {
	if req.Mode == gossip.FullDuplex {
		if req.Period == NonSystolic {
			return bounds.SeparatorFullDuplexInfinity(sep)
		}
		return bounds.SeparatorFullDuplex(sep, req.Period)
	}
	if req.Period == NonSystolic {
		return bounds.SeparatorHalfDuplexInfinity(sep)
	}
	return bounds.SeparatorHalfDuplex(sep, req.Period)
}

// String renders the bound for human consumption.
func (b Bound) String() string {
	if b.Coefficient == 0 {
		return fmt.Sprintf("≥ %d rounds (%s)", b.Rounds, b.Source)
	}
	return fmt.Sprintf("≥ %.4f·log₂(n) − o(log n) [≥ %d rounds here] (%s, λ=%.4f)",
		b.Coefficient, b.Rounds, b.Source, b.Lambda)
}
