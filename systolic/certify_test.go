// Differential and regression coverage for the certification pipeline:
// Certify must reproduce the pre-refactor Analyze report field by field
// (the reference is recomputed here through the classic delay.Build path),
// budget-truncated runs must yield well-defined prefix certificates with
// inapplicable theorem verdicts, and a shared DelayPlan must change nothing
// but the work performed.
package systolic

import (
	"context"
	"errors"
	"testing"

	"repro/internal/delay"
)

// referenceReport recomputes the pre-refactor Analyze result: simulate via
// the session, then the classic rebuild-per-call delay.Build + dg.Norm path
// of the old implementation, line for line.
func referenceReport(t *testing.T, net *Network, p *Protocol) *Report {
	t.Helper()
	sess, err := NewEngine(net, p, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{
		Network:  net.Name,
		Mode:     p.Mode.String(),
		Period:   p.Period,
		Measured: res.Rounds,
	}
	reqPeriod := p.Period
	if !p.Systolic() {
		reqPeriod = NonSystolic
	}
	rep.LowerBound = mustEvaluate(t, net, Request{Mode: p.Mode, Period: reqPeriod})
	dg, err := delay.Build(net.G, p, res.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	rep.DelayVerts = len(dg.Verts)
	rep.DelayArcs = len(dg.Arcs)
	lambda := rootFor(p)
	if lambda > 0 {
		rep.NormAtRoot = dg.Norm(lambda)
		rep.NormCap = 1
		rep.TheoremRespected = theorem41Holds(net.G.N(), res.Rounds, lambda)
	} else {
		rep.TheoremRespected = res.Rounds >= rep.LowerBound.Rounds
	}
	return rep
}

// TestCertifyDifferentialAllKinds pins Certify against the pre-refactor
// Analyze computation for every registered topology kind under a directed,
// a half-duplex and a full-duplex protocol (symmetric-only constructions
// are skipped on directed kinds, mirroring the execution differential).
// Field-by-field equality with the reference report also pins that the
// existing Report goldens stay valid.
func TestCertifyDifferentialAllKinds(t *testing.T) {
	protocolsByMode := []struct {
		protocol      string
		symmetricOnly bool
	}{
		{"round-robin", false},  // directed
		{"periodic-half", true}, // half-duplex
		{"periodic-full", true}, // full-duplex
	}
	ctx := context.Background()
	for _, kind := range Kinds() {
		params, ok := smallParams[kind]
		if !ok {
			t.Errorf("registered kind %q has no certification coverage — add it to smallParams", kind)
			continue
		}
		for _, mp := range protocolsByMode {
			t.Run(kind+"/"+mp.protocol, func(t *testing.T) {
				net, err := New(kind, params...)
				if err != nil {
					t.Fatalf("building %s: %v", kind, err)
				}
				if mp.symmetricOnly && !net.G.IsSymmetric() {
					t.Skip("symmetric-only protocol on a directed kind")
				}
				p, err := NewProtocol(mp.protocol, net, DefaultRoundBudget)
				if err != nil {
					t.Fatalf("building %s: %v", mp.protocol, err)
				}
				want := referenceReport(t, net, p)

				cert, err := Certify(ctx, net, p, WithWorkers(1))
				if err != nil {
					t.Fatal(err)
				}
				if !cert.Complete {
					t.Fatal("complete run certified as incomplete")
				}
				if !cert.TheoremApplicable {
					t.Error("complete run must have an applicable theorem verdict")
				}
				if cert.Network != want.Network || cert.Mode != want.Mode || cert.Period != want.Period {
					t.Errorf("identity (%s,%s,%d) != reference (%s,%s,%d)",
						cert.Network, cert.Mode, cert.Period, want.Network, want.Mode, want.Period)
				}
				if cert.Measured != want.Measured {
					t.Errorf("measured %d != reference %d", cert.Measured, want.Measured)
				}
				if cert.LowerBound != want.LowerBound {
					t.Errorf("lower bound %+v != reference %+v", cert.LowerBound, want.LowerBound)
				}
				if cert.DelayVerts != want.DelayVerts || cert.DelayArcs != want.DelayArcs {
					t.Errorf("delay digraph %d/%d != reference %d/%d",
						cert.DelayVerts, cert.DelayArcs, want.DelayVerts, want.DelayArcs)
				}
				if cert.NormAtRoot != want.NormAtRoot || cert.NormCap != want.NormCap {
					t.Errorf("norm %v ≤ %v != reference %v ≤ %v",
						cert.NormAtRoot, cert.NormCap, want.NormAtRoot, want.NormCap)
				}
				if cert.TheoremRespected != want.TheoremRespected {
					t.Errorf("theorem respected %v != reference %v", cert.TheoremRespected, want.TheoremRespected)
				}
				if cert.NormChecked && !cert.NormRespected {
					t.Errorf("‖M(λ₀)‖ = %v exceeds its cap %v", cert.NormAtRoot, cert.NormCap)
				}
				// The Report view and the rebased Analyze must coincide with
				// the reference exactly.
				if got := *cert.Report(); got != *want {
					t.Errorf("cert.Report() = %+v, reference %+v", got, want)
				}
				rep, err := Analyze(ctx, net, p, WithWorkers(1))
				if err != nil {
					t.Fatal(err)
				}
				if *rep != *want {
					t.Errorf("Analyze = %+v, reference %+v", rep, want)
				}
			})
		}
	}
}

// TestCertifyBudgetTruncated pins the behavior on budget-truncated runs
// (satellite regression): the delay digraph of the executed prefix is
// well-defined, the certificate marks the theorem check inapplicable rather
// than vacuously true, and Analyze keeps returning ErrIncomplete.
func TestCertifyBudgetTruncated(t *testing.T) {
	net, err := New("cycle", Nodes(16))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProtocol("periodic-half", net, DefaultRoundBudget)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 3
	ctx := context.Background()

	cert, err := Certify(ctx, net, p, WithRoundBudget(budget), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if cert.Complete {
		t.Fatal("budget-truncated run certified as complete")
	}
	if cert.Measured != budget || cert.Budget != budget {
		t.Errorf("measured %d / budget %d, want %d rounds executed", cert.Measured, cert.Budget, budget)
	}
	if cert.TheoremApplicable || cert.TheoremRespected {
		t.Errorf("truncated run: theorem applicable=%v respected=%v, want false/false (not vacuously true)",
			cert.TheoremApplicable, cert.TheoremRespected)
	}
	// The executed prefix's delay digraph must match the classic
	// construction over exactly the executed rounds.
	dg, err := delay.Build(net.G, p, budget)
	if err != nil {
		t.Fatal(err)
	}
	if cert.DelayVerts != len(dg.Verts) || cert.DelayArcs != len(dg.Arcs) {
		t.Errorf("prefix delay digraph %d verts / %d arcs, reference %d / %d",
			cert.DelayVerts, cert.DelayArcs, len(dg.Verts), len(dg.Arcs))
	}
	if cert.DelayVerts == 0 {
		t.Error("prefix delay digraph is empty — the executed rounds must define it")
	}
	// The lower bound is a network property and must still be reported.
	if cert.LowerBound.Rounds == 0 && cert.LowerBound.Coefficient == 0 {
		t.Error("truncated certificate dropped the lower bound")
	}

	// Analyze's contract is unchanged: truncation is an error.
	if _, err := Analyze(ctx, net, p, WithRoundBudget(budget), WithWorkers(1)); !errors.Is(err, ErrIncomplete) {
		t.Errorf("Analyze on truncated run = %v, want ErrIncomplete", err)
	}
}

// TestCertifyWithDelayPlan pins that a shared compiled plan changes nothing
// about the certificate, that repeated certifications share one memoized
// instance, and that a mismatched plan is ignored instead of corrupting the
// result.
func TestCertifyWithDelayPlan(t *testing.T) {
	net, err := New("debruijn", Degree(2), Diameter(4))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProtocol("periodic-half", net, DefaultRoundBudget)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := Certify(ctx, net, p, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := CompileProtocol(net, p)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := pr.DelayPlan()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sess, err := NewEngineFromProgram(pr, WithDelayPlan(dp), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		cert, err := sess.Certify(ctx)
		sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		if *cert.Report() != *base.Report() || cert.Complete != base.Complete {
			t.Fatalf("iteration %d: plan-backed certificate %+v != baseline %+v", i, cert, base)
		}
	}

	// A plan compiled for a different protocol must be ignored.
	other, err := NewProtocol("periodic-full", net, DefaultRoundBudget)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := CompileDelayPlan(net, other)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := Certify(ctx, net, p, WithDelayPlan(wrong), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if *cert.Report() != *base.Report() {
		t.Errorf("mismatched plan corrupted the certificate: %+v != %+v", cert, base)
	}
}

// TestCertifyConcurrentSharedPlan exercises many sessions certifying
// through one Program + DelayPlan at once — the serving layer's shape —
// under the race detector: the plan's memoized instances and norm scratch
// must serialize correctly and every certificate must be identical.
func TestCertifyConcurrentSharedPlan(t *testing.T) {
	net, err := New("kautz", Degree(2), Diameter(3))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProtocol("periodic-full", net, DefaultRoundBudget)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := CompileProtocol(net, p)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := pr.DelayPlan()
	if err != nil {
		t.Fatal(err)
	}
	base, err := Certify(context.Background(), net, p, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	certs := make([]*Certificate, goroutines)
	errs := make([]error, goroutines)
	done := make(chan int, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer func() { done <- g }()
			sess, err := NewEngineFromProgram(pr, WithDelayPlan(dp), WithWorkers(1))
			if err != nil {
				errs[g] = err
				return
			}
			defer sess.Close()
			certs[g], errs[g] = sess.Certify(context.Background())
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if *certs[g].Report() != *base.Report() {
			t.Fatalf("goroutine %d: certificate diverged: %+v != %+v", g, certs[g], base)
		}
	}
}

// TestCertifyBroadcast pins broadcast certificates against AnalyzeBroadcast
// and the truncation semantics of the broadcast bound.
func TestCertifyBroadcast(t *testing.T) {
	net, err := New("hypercube", Dimension(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rep, err := AnalyzeBroadcast(ctx, net, 3)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := CertifyBroadcast(ctx, net, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Broadcast == nil {
		t.Fatal("broadcast certificate without a broadcast section")
	}
	if !cert.Complete || !cert.Broadcast.Applicable || !cert.Broadcast.Respected {
		t.Errorf("complete broadcast: complete=%v applicable=%v respected=%v",
			cert.Complete, cert.Broadcast.Applicable, cert.Broadcast.Respected)
	}
	if cert.Network != rep.Network || cert.Measured != rep.Measured ||
		cert.Broadcast.Source != rep.Source || cert.Broadcast.CBound != rep.CBound ||
		cert.Broadcast.C != rep.C {
		t.Errorf("broadcast certificate %+v does not match report %+v", cert, rep)
	}
	if cert.DelayVerts != 0 || cert.DelayArcs != 0 || cert.NormChecked {
		t.Error("broadcast certificates carry no delay-digraph section")
	}

	trunc, err := CertifyBroadcast(ctx, net, 3, WithRoundBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if trunc.Complete || trunc.Broadcast.Applicable || trunc.Broadcast.Respected {
		t.Errorf("truncated broadcast: complete=%v applicable=%v respected=%v, want all false",
			trunc.Complete, trunc.Broadcast.Applicable, trunc.Broadcast.Respected)
	}
	if _, err := AnalyzeBroadcast(ctx, net, 3, WithRoundBudget(1)); !errors.Is(err, ErrIncomplete) {
		t.Errorf("AnalyzeBroadcast on truncated run = %v, want ErrIncomplete", err)
	}

	// Gossip/broadcast session mismatches keep their typed errors.
	p, err := NewProtocol("periodic-half", net, DefaultRoundBudget)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.AnalyzeBroadcast(ctx); err == nil {
		t.Error("AnalyzeBroadcast on a gossip session must error")
	}
	gossipCert, err := sess.Certify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gossipCert.Broadcast != nil {
		t.Error("gossip certificate with a broadcast section")
	}
}
