package systolic

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/gossip"
	"repro/internal/protocols"
)

func TestNewKinds(t *testing.T) {
	cases := []struct {
		kind   string
		params []Param
		n      int
	}{
		{"path", []Param{Nodes(5)}, 5},
		{"cycle", []Param{Nodes(6)}, 6},
		{"complete", []Param{Nodes(4)}, 4},
		{"hypercube", []Param{Dimension(3)}, 8},
		{"grid", []Param{Rows(3), Cols(4)}, 12},
		{"torus", []Param{Rows(3), Cols(3)}, 9},
		{"tree", []Param{Degree(2), Depth(2)}, 7},
		{"shuffle-exchange", []Param{Dimension(3)}, 8},
		{"ccc", []Param{Dimension(3)}, 24},
		{"butterfly", []Param{Degree(2), Diameter(3)}, 32},
		{"wbf", []Param{Degree(2), Diameter(3)}, 24},
		{"wbf-digraph", []Param{Degree(2), Diameter(3)}, 24},
		{"debruijn", []Param{Degree(2), Diameter(4)}, 16},
		{"debruijn-digraph", []Param{Degree(2), Diameter(4)}, 16},
		{"kautz", []Param{Degree(2), Diameter(3)}, 12},
		{"kautz-digraph", []Param{Degree(2), Diameter(3)}, 12},
	}
	for _, c := range cases {
		net, err := New(c.kind, c.params...)
		if err != nil {
			t.Errorf("%s: %v", c.kind, err)
			continue
		}
		if net.G.N() != c.n {
			t.Errorf("%s: N = %d, want %d", c.kind, net.G.N(), c.n)
		}
	}
}

func TestNewUnknownKind(t *testing.T) {
	_, err := New("moebius", Nodes(3))
	if !errors.Is(err, ErrUnknownTopology) {
		t.Fatalf("unknown kind error = %v, want ErrUnknownTopology", err)
	}
	// The message must list every registered kind so users can self-serve.
	for _, kind := range Kinds() {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("error text omits registered kind %q: %v", kind, err)
		}
	}
	if !strings.Contains(err.Error(), "accepted") {
		t.Errorf("error text = %v", err)
	}
}

func TestNewBadParams(t *testing.T) {
	cases := []struct {
		name   string
		kind   string
		params []Param
	}{
		{"cycle too small", "cycle", []Param{Nodes(1)}},
		{"debruijn degree 1", "debruijn", []Param{Degree(1), Diameter(4)}},
		{"debruijn missing diameter", "debruijn", []Param{Degree(2)}},
		{"grid missing cols", "grid", []Param{Rows(3)}},
		{"hypercube no params", "hypercube", nil},
		{"torus too small", "torus", []Param{Rows(2), Cols(4)}},
		{"hypercube too large", "hypercube", []Param{Dimension(80)}},
		{"debruijn too large", "debruijn", []Param{Degree(2), Diameter(60)}},
		{"path too large", "path", []Param{Nodes(1 << 30)}},
		{"cycle too large", "cycle", []Param{Nodes(1 << 30)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.kind, c.params...); !errors.Is(err, ErrBadParam) {
				t.Errorf("New(%s) error = %v, want ErrBadParam", c.kind, err)
			}
		})
	}
}

func TestFamilyClassification(t *testing.T) {
	db, _ := New("debruijn", Degree(2), Diameter(4))
	if !db.FamilyKnown || db.DegreeParam != 2 {
		t.Error("de Bruijn family metadata wrong")
	}
	p, _ := New("path", Nodes(5))
	if p.FamilyKnown {
		t.Error("path should not claim a paper family")
	}
	if p.DegreeParam != 1 {
		t.Errorf("path degree param = %d, want 1", p.DegreeParam)
	}
}

func TestEvaluateGeneralVsSeparator(t *testing.T) {
	// WBF(2,D) at s=4 must use the separator bound 2.0218 > general 1.8133.
	w, _ := New("wbf", Degree(2), Diameter(4))
	b := mustEvaluate(t, w, Request{Mode: gossip.HalfDuplex, Period: 4})
	if b.Source != "separator" {
		t.Errorf("WBF s=4 source = %s, want separator", b.Source)
	}
	if b.Coefficient < 2.0 || b.Coefficient > 2.05 {
		t.Errorf("WBF s=4 coefficient = %g", b.Coefficient)
	}
	// A path has no family: always the general bound.
	p, _ := New("path", Nodes(16))
	bp := mustEvaluate(t, p, Request{Mode: gossip.HalfDuplex, Period: 4})
	if bp.Source != "general" {
		t.Errorf("path source = %s", bp.Source)
	}
}

func TestEvaluateSTwo(t *testing.T) {
	c, _ := New("cycle", Nodes(10))
	b := mustEvaluate(t, c, Request{Mode: gossip.HalfDuplex, Period: 2})
	if b.Rounds != 9 {
		t.Errorf("s=2 bound = %d rounds, want n-1 = 9", b.Rounds)
	}
}

func TestEvaluateFullDuplex(t *testing.T) {
	db, _ := New("debruijn", Degree(2), Diameter(5))
	b := mustEvaluate(t, db, Request{Mode: gossip.FullDuplex, Period: 4})
	if b.Coefficient <= 0 {
		t.Error("full-duplex bound not positive")
	}
	// Non-systolic full-duplex on de Bruijn: diameter coefficient
	// 1/log2(d) = 1 competes with separator/general values.
	binf := mustEvaluate(t, db, Request{Mode: gossip.FullDuplex, Period: NonSystolic})
	if binf.Coefficient < 1 {
		t.Errorf("full-duplex non-systolic coefficient = %g < diameter", binf.Coefficient)
	}
}

func TestEvaluateRoundsPositive(t *testing.T) {
	for _, kind := range []string{"debruijn", "kautz", "wbf", "butterfly"} {
		net, err := New(kind, Degree(2), Diameter(4))
		if err != nil {
			t.Fatal(err)
		}
		b := mustEvaluate(t, net, Request{Mode: gossip.HalfDuplex, Period: 6})
		if b.Rounds <= 0 {
			t.Errorf("%s: rounds bound = %d", kind, b.Rounds)
		}
	}
}

func TestGeneralBoundMatchesFig4(t *testing.T) {
	e, lambda := GeneralBound(HalfDuplex, 4)
	if e < 1.81 || e > 1.82 {
		t.Errorf("e(4) = %g, want ≈1.8133", e)
	}
	if lambda <= 0 || lambda >= 1 {
		t.Errorf("λ₀ = %g out of (0,1)", lambda)
	}
	eInf, lamInf := GeneralBound(HalfDuplex, NonSystolic)
	if eInf < 1.44 || eInf > 1.45 {
		t.Errorf("e(∞) = %g, want ≈1.4404", eInf)
	}
	if lamInf < 0.617 || lamInf > 0.619 {
		t.Errorf("λ(∞) = %g, want 1/φ ≈ 0.618", lamInf)
	}
}

func TestAnalyzePeriodicOnDeBruijn(t *testing.T) {
	net, _ := New("debruijn", Degree(2), Diameter(4))
	p := protocols.PeriodicHalfDuplex(net.G)
	rep, err := Analyze(context.Background(), net, p, WithRoundBudget(10000))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TheoremRespected {
		t.Errorf("Theorem 4.1 violated?! %v", rep)
	}
	if rep.Measured < rep.LowerBound.Rounds {
		t.Errorf("measured %d < lower bound %d: paper falsified or bug", rep.Measured, rep.LowerBound.Rounds)
	}
	if rep.NormAtRoot > rep.NormCap+1e-8 {
		t.Errorf("norm at root %g exceeds cap %g", rep.NormAtRoot, rep.NormCap)
	}
	if rep.DelayVerts == 0 || rep.DelayArcs == 0 {
		t.Error("empty delay digraph")
	}
	if !strings.Contains(rep.String(), "measured") {
		t.Error("report string malformed")
	}
}

func TestAnalyzeFullDuplexHypercube(t *testing.T) {
	net, _ := New("hypercube", Dimension(4))
	p := protocols.HypercubeExchange(4)
	rep, err := Analyze(context.Background(), net, p, WithRoundBudget(100))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Measured != 4 {
		t.Errorf("Q4 measured = %d, want 4", rep.Measured)
	}
	if !rep.TheoremRespected {
		t.Error("Theorem 4.1 violated on the optimal hypercube protocol")
	}
}

func TestAnalyzeSTwoCycle(t *testing.T) {
	net, _ := New("cycle", Nodes(8))
	// Build the directed 2-phase protocol on the symmetric cycle (arcs are
	// present in both orientations, we use forward ones).
	p := protocols.CycleTwoPhase(8)
	p.Mode = gossip.HalfDuplex
	rep, err := Analyze(context.Background(), net, p, WithRoundBudget(1000))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TheoremRespected {
		t.Errorf("s=2 protocol measured %d rounds < n-1", rep.Measured)
	}
}

func TestAnalyzeIncompleteProtocol(t *testing.T) {
	net, _ := New("path", Nodes(6))
	p := protocols.PathZigZag(6)
	_, err := Analyze(context.Background(), net, p, WithRoundBudget(3))
	if !errors.Is(err, ErrIncomplete) {
		t.Errorf("insufficient budget error = %v, want ErrIncomplete", err)
	}
}

func TestAnalyzeCancelledContext(t *testing.T) {
	net, _ := New("debruijn", Degree(2), Diameter(5))
	p := protocols.PeriodicHalfDuplex(net.G)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Analyze(ctx, net, p); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled analyze error = %v, want context.Canceled", err)
	}
}

func TestSimulateObserverSeesMonotoneCurve(t *testing.T) {
	net, _ := New("hypercube", Dimension(4))
	p := protocols.HypercubeExchange(4)
	var rounds []int
	var knowledge []int
	res, err := Simulate(context.Background(), net, p,
		WithTrace(ObserverFunc(func(round, know, target int) {
			rounds = append(rounds, round)
			knowledge = append(knowledge, know)
			if target != 16*16 {
				t.Errorf("target = %d, want %d", target, 16*16)
			}
		})))
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != res.Rounds {
		t.Fatalf("observer saw %d rounds, simulation ran %d", len(rounds), res.Rounds)
	}
	for i := 1; i < len(knowledge); i++ {
		if knowledge[i] < knowledge[i-1] {
			t.Fatal("knowledge curve not monotone")
		}
	}
	if knowledge[len(knowledge)-1] != 16*16 {
		t.Errorf("final knowledge %d, want complete %d", knowledge[len(knowledge)-1], 16*16)
	}
}

func TestKindsListedSortedAndComplete(t *testing.T) {
	ks := Kinds()
	builtin := []string{
		"butterfly", "ccc", "complete", "cycle", "debruijn",
		"debruijn-digraph", "grid", "hypercube", "kautz", "kautz-digraph",
		"path", "shuffle-exchange", "torus", "tree", "wbf", "wbf-digraph",
	}
	have := map[string]bool{}
	for _, k := range ks {
		have[k] = true
	}
	for _, k := range builtin {
		if !have[k] {
			t.Errorf("builtin kind %q missing from Kinds()", k)
		}
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Error("Kinds not sorted")
		}
	}
}
