package systolic

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/gossip"
	"repro/internal/graph"
)

// waitGoroutines fails unless the goroutine count falls back to base: a
// worker that has signalled its exit may need a moment to be gone.
func waitGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines left running, want %d", after, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFanoutsReleaseGoroutines: every fan-out runs on internal/par, and its
// workers live no longer than the call or session that started them.
func TestFanoutsReleaseGoroutines(t *testing.T) {
	ctx := context.Background()
	big, err := New("hypercube", Dimension(13)) // two generator chunks
	if err != nil {
		t.Fatal(err)
	}
	net, p := sessionNet(t)
	base := runtime.NumGoroutine()

	// One batch of 64 sources, range-sharded across a scan-lifetime pool.
	if _, err := AnalyzeBroadcastAll(ctx, big, WithSources(subset64(big.N())),
		WithWorkers(2), WithShardThreshold(1)); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "a sharded single-batch scan")

	if _, err := AnalyzeBroadcastAll(ctx, net, WithWorkers(3)); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "a multi-batch scan")

	if _, err := CertifyScenario(ctx, net, p, &Scenario{Loss: 0.05, Seed: 1}, 8, WithWorkers(3)); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "CertifyScenario")

	jobs := make([]SweepJob, 8)
	for i := range jobs {
		jobs[i] = SweepJob{Label: "db", Kind: "debruijn",
			Params:   []Param{Degree(2), Diameter(5)},
			Protocol: UseProtocol("periodic-half", 0)}
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := ObserverFunc(func(int, int, int) { cancel() })
	if _, err := Sweep(cctx, jobs, WithWorkers(2), WithTrace(stop)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Sweep returned %v, want context.Canceled", err)
	}
	waitGoroutines(t, base, "a Sweep cancelled mid-grid")

	sess, err := NewEngine(net, p, WithWorkers(3), WithShardThreshold(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	waitGoroutines(t, base, "Session.Close")
}

// TestShardedFloodStepAllocatesNothing pins the range-sharded flood round:
// the pool and every shard are built with the stepper, so a round only
// wakes the parked workers.
func TestShardedFloodStepAllocatesNothing(t *testing.T) {
	net, err := New("hypercube", Dimension(13))
	if err != nil {
		t.Fatal(err)
	}
	n := net.N()
	step := floodStep(net.Gen, n, 1, newConfig([]Option{WithWorkers(2), WithShardThreshold(1)}))
	defer step.close()
	if _, ok := step.(*shardedFlood); !ok {
		t.Fatalf("floodStep built %T, want a sharded stepper", step)
	}
	pf := gossip.NewPackedFrontier(n)
	pf.Reset([]int{0})
	if a := testing.AllocsPerRun(20, func() { step.step(pf) }); a != 0 {
		t.Errorf("sharded flood step allocated %.1f times per round, want 0", a)
	}
}

// TestScanReportsScanOrderFirstError: on a one-way path the late batch's
// sources stall at once while the first batch's stall only near the end,
// so with several workers the later failure is found first. The scan must
// still report the first batch's error, as a serial scan would.
func TestScanReportsScanOrderFirstError(t *testing.T) {
	const n = 400
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.AddArc(v, v+1)
	}
	oneway := Plain("one-way-path", g)
	sources := make([]int, 0, 4*gossip.PackedLanes)
	for i := 0; i < 4*gossip.PackedLanes; i++ {
		sources = append(sources, 1+i) // batch b holds sources 64b+1 … 64b+64
	}
	ctx := context.Background()
	_, want := AnalyzeBroadcastAll(ctx, oneway, WithSources(sources), WithWorkers(1))
	if !errors.Is(want, ErrUnreachable) {
		t.Fatalf("serial scan: err = %v, want ErrUnreachable", want)
	}
	for workers := 2; workers <= 4; workers++ {
		for range 5 {
			_, err := AnalyzeBroadcastAll(ctx, oneway, WithSources(sources), WithWorkers(workers))
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("workers=%d: err = %v, want the serial scan's %v", workers, err, want)
			}
		}
	}
}
