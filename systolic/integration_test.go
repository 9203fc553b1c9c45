package systolic

import (
	"context"
	"testing"

	"repro/internal/bounds"
	"repro/internal/gossip"
	"repro/internal/protocols"
	"repro/internal/separator"
	"repro/internal/topology"
)

// TestTheorem51InstanceBoundSound: evaluating Theorem 5.1's explicit
// finite-instance form with the *measured* separator data (c = min set
// size, d = BFS distance) must stay below the measured gossip time of every
// real protocol on that instance.
func TestTheorem51InstanceBoundSound(t *testing.T) {
	// The marker separator's distance promise holds on the de Bruijn
	// digraph (directed case); use a directed protocol accordingly.
	db := topology.NewDeBruijnDigraph(2, 5)
	sets := separator.DeBruijnMarker(db)
	d, err := sets.Verify(db.G)
	if err != nil {
		t.Fatal(err)
	}
	c := len(sets.V1)
	if len(sets.V2) < c {
		c = len(sets.V2)
	}

	p := protocols.RoundRobinDirected(db.G)
	res, err := gossip.Simulate(db.G, p, 100000)
	if err != nil {
		t.Fatal(err)
	}

	// Maximize the instance bound over a λ grid (any feasible λ is sound).
	best := 0
	for i := 1; i < 40; i++ {
		lambda := float64(i) / 40
		w := bounds.WHalfDuplex(p.Period, lambda)
		if w > 1 {
			break
		}
		if b := bounds.Theorem51LowerBound(c, d, lambda, w); b > best {
			best = b
		}
	}
	if best <= 0 {
		t.Fatal("instance bound degenerate")
	}
	if best > res.Rounds {
		t.Errorf("Theorem 5.1 instance bound %d exceeds measured %d rounds", best, res.Rounds)
	}
	t.Logf("DB(2,5): instance bound %d ≤ measured %d (c=%d, d=%d)", best, res.Rounds, c, d)
}

// TestEvaluateFiniteBoundsNeverExceedOptimalProtocols: the certified Rounds
// value must be met by protocols known to be optimal or near-optimal.
func TestEvaluateFiniteBoundsNeverExceedOptimalProtocols(t *testing.T) {
	// Hypercube Q_D: optimal D rounds; bound must be ≤ D and ideally = D.
	for D := 3; D <= 7; D++ {
		net, _ := New("hypercube", Dimension(D))
		b := mustEvaluate(t, net, Request{Mode: gossip.FullDuplex, Period: D})
		if b.Rounds > D {
			t.Errorf("Q%d: certified bound %d exceeds optimal %d", D, b.Rounds, D)
		}
		if b.Rounds != D {
			t.Errorf("Q%d: certified bound %d, want the tight log2(n) = %d", D, b.Rounds, D)
		}
	}
	// BF(2,3) full-duplex: the periodic protocol finishes in 9 rounds, so
	// any certified bound must be ≤ 9.
	net, _ := New("butterfly", Degree(2), Diameter(3))
	p := protocols.PeriodicFullDuplex(net.G)
	res, err := Simulate(context.Background(), net, p, WithRoundBudget(10000))
	if err != nil {
		t.Fatal(err)
	}
	b := mustEvaluate(t, net, Request{Mode: gossip.FullDuplex, Period: p.Period})
	if b.Rounds > res.Rounds {
		t.Errorf("BF(2,3): certified bound %d exceeds a real protocol's %d rounds", b.Rounds, res.Rounds)
	}
}

// TestEvaluateDiameterFloor: for sparse long networks the diameter dominates
// the certified bound.
func TestEvaluateDiameterFloor(t *testing.T) {
	net, _ := New("cycle", Nodes(40))
	b := mustEvaluate(t, net, Request{Mode: gossip.HalfDuplex, Period: 4})
	if b.Rounds < 20 {
		t.Errorf("C40 certified bound %d below diameter 20", b.Rounds)
	}
}

// TestAnalyzeDirectedRoundRobinKautz covers the directed mode end to end.
func TestAnalyzeDirectedRoundRobinKautz(t *testing.T) {
	net, _ := New("kautz-digraph", Degree(2), Diameter(3))
	p := protocols.RoundRobinDirected(net.G)
	rep, err := Analyze(context.Background(), net, p)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TheoremRespected {
		t.Error("Theorem 4.1 violated on Kautz round-robin")
	}
	if rep.Measured < rep.LowerBound.Rounds {
		t.Errorf("measured %d below certified bound %d", rep.Measured, rep.LowerBound.Rounds)
	}
}

// TestAnalyzeGreedyNonSystolic covers the non-systolic analysis path
// (s→∞ bound, horizon = full length).
func TestAnalyzeGreedyNonSystolic(t *testing.T) {
	net, _ := New("debruijn", Degree(2), Diameter(4))
	p, err := NewProtocol("greedy-half", net, 100000)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(context.Background(), net, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Period != 0 {
		t.Error("greedy protocol should be non-systolic")
	}
	if !rep.TheoremRespected {
		t.Error("Theorem 4.1 (s→∞ form) violated")
	}
}
