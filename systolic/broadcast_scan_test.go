// Differential coverage for the sources-aware broadcast scan: the packed
// 64-source kernel must reproduce the scalar per-source reference
// (scalarBroadcastAll) exactly — same reports, same errors, same trace —
// on every registered topology kind, on ragged multi-batch scans, on
// subsets, and for every worker count.
package systolic

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/gossip"
	"repro/internal/graph"
)

// scanFunc is AnalyzeBroadcastAll or its scalar oracle.
type scanFunc func(context.Context, *Network, ...Option) (*BroadcastAllReport, error)

// scanKernels names the packed scan and the scalar oracle, for tests that
// run the same checks on both.
var scanKernels = []struct {
	name string
	scan scanFunc
}{
	{"packed", AnalyzeBroadcastAll},
	{"scalar", scalarBroadcastAll},
}

// scanBoth runs AnalyzeBroadcastAll and the scalar oracle with identical
// options and demands deep-equal reports (or identical failures).
func scanBoth(t *testing.T, net *Network, opts ...Option) *BroadcastAllReport {
	t.Helper()
	ctx := context.Background()
	packed, perr := AnalyzeBroadcastAll(ctx, net, opts...)
	scalar, serr := scalarBroadcastAll(ctx, net, opts...)
	if (perr == nil) != (serr == nil) {
		t.Fatalf("kernel disagreement on %s: packed err %v, scalar err %v", net.Name, perr, serr)
	}
	if perr != nil {
		if perr.Error() != serr.Error() {
			t.Fatalf("error parity broken on %s:\n  packed: %v\n  scalar: %v", net.Name, perr, serr)
		}
		return nil
	}
	if !reflect.DeepEqual(packed, scalar) {
		t.Fatalf("kernel disagreement on %s:\n  packed: %+v\n  scalar: %+v", net.Name, packed, scalar)
	}
	return packed
}

// TestBroadcastScanDifferentialAllKinds: for every registered kind the
// packed scan equals the scalar reference — full scans and a small subset
// — every measured round count is the source's directed eccentricity, and
// the arc-source table (checkArcSources) holds.
func TestBroadcastScanDifferentialAllKinds(t *testing.T) {
	generators := 0
	for _, kind := range Kinds() {
		params, ok := smallParams[kind]
		if !ok {
			t.Errorf("registered kind %q has no scan coverage — add it to smallParams", kind)
			continue
		}
		t.Run(kind, func(t *testing.T) {
			net, err := New(kind, params...)
			if err != nil {
				t.Fatalf("building %s: %v", kind, err)
			}
			n := net.G.N()
			full := scanBoth(t, net)
			if full == nil {
				t.Fatal("full scan failed")
			}
			if len(full.Rounds) != n || full.Sources != nil {
				t.Fatalf("full scan shape: %d rounds, sources %v", len(full.Rounds), full.Sources)
			}
			for v := 0; v < n; v++ {
				if ecc := net.G.Eccentricity(v); full.Rounds[v] != ecc {
					t.Errorf("source %d: measured %d rounds, eccentricity %d", v, full.Rounds[v], ecc)
				}
			}
			sub := scanBoth(t, net, WithSources([]int{n - 1, 0}))
			if sub == nil {
				t.Fatal("subset scan failed")
			}
			if !reflect.DeepEqual(sub.Sources, []int{n - 1, 0}) {
				t.Fatalf("subset sources = %v", sub.Sources)
			}
			if sub.Rounds[0] != full.Rounds[n-1] || sub.Rounds[1] != full.Rounds[0] {
				t.Errorf("subset rows %v disagree with full rows (%d, %d)",
					sub.Rounds, full.Rounds[n-1], full.Rounds[0])
			}
			if net.Gen != nil {
				generators++
			}
			checkArcSources(t, net)
		})
	}
	if generators == 0 {
		t.Error("no registered kind carried a generator: the generator arc source went untested")
	}
}

// checkArcSources runs the arc-source table on net: over every arc source
// it offers, the packed scan — serial, and with the range-sharding rule
// forced on (WithShardThreshold(1)) at workers 1..8 — reproduces the
// scalar oracle's report and its budget-truncation error exactly, and
// emits the same ScanRound trace as the serial scan over the lowered CSR.
func checkArcSources(t *testing.T, net *Network) {
	t.Helper()
	ctx := context.Background()
	_, refTrace, err := traceScan(t, net, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range scanArcSources(net) {
		want, werr := scalarBroadcastAll(ctx, src.net, src.opts...)
		if werr != nil {
			t.Fatalf("%s: oracle: %v", src.name, werr)
		}
		_, wantCut := scalarBroadcastAll(ctx, src.net, append(src.opts, WithRoundBudget(1))...)
		for workers := 1; workers <= 8; workers++ {
			opts := append(src.opts[:len(src.opts):len(src.opts)], WithWorkers(workers), WithShardThreshold(1))
			got, trace, gerr := traceScan(t, src.net, opts...)
			sameScan(t, src.name, got, gerr, want, nil)
			if !reflect.DeepEqual(trace, refTrace) {
				t.Fatalf("%s workers=%d: trace\n  %v\nserial CSR\n  %v", src.name, workers, trace, refTrace)
			}
			cut, cerr := AnalyzeBroadcastAll(ctx, src.net, append(opts, WithRoundBudget(1))...)
			if wantCut == nil {
				sameScan(t, src.name+" budget 1", cut, cerr, want, nil)
			} else {
				sameScan(t, src.name+" budget 1", cut, cerr, nil, wantCut)
			}
		}
	}
}

// scanArcSource is one arc source a scan of net can walk: the lowered CSR,
// the network's generator, or the DigraphSource InArcs fallback.
type scanArcSource struct {
	name string
	net  *Network
	opts []Option
}

// scanArcSources lists the arc sources net offers: the lowered CSR, its
// generator when it carries one, and its digraph wrapped as a generator
// without the OrGatherer fast path.
func scanArcSources(net *Network) []scanArcSource {
	inArcs := *net
	inArcs.Gen = graph.NewDigraphSource(net.G)
	srcs := []scanArcSource{
		{"csr", net, nil},
		{"inarcs", &inArcs, []Option{WithImplicitScan()}},
	}
	if net.Gen != nil {
		srcs = append(srcs, scanArcSource{"gen", net, []Option{WithImplicitScan()}})
	}
	return srcs
}

// traceScan runs one packed scan under a ScanObserver.
func traceScan(t *testing.T, net *Network, opts ...Option) (*BroadcastAllReport, []scanEvent, error) {
	t.Helper()
	tr := &scanTrace{}
	rep, err := AnalyzeBroadcastAll(context.Background(), net, append(opts, WithTrace(tr))...)
	return rep, tr.events, err
}

// sameScan demands deep-equal reports (bound summary included) and
// byte-identical error texts.
func sameScan(t *testing.T, what string, got *BroadcastAllReport, gerr error, want *BroadcastAllReport, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%s: error %v, oracle %v", what, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: report\n  %+v\noracle\n  %+v", what, got, want)
	}
}

// TestBroadcastScanRangeSharded runs the arc-source table where range
// sharding really splits rounds: one batch on hypercube d=15 (eight
// 4096-vertex chunks), so workers 2..8 step 2..8 disjoint vertex ranges per
// round over each arc source.
func TestBroadcastScanRangeSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("steps a 32768-vertex hypercube")
	}
	ctx := context.Background()
	net, err := New("hypercube", Dimension(15))
	if err != nil {
		t.Fatal(err)
	}
	batch := WithSources([]int{0, 5, 1 << 14, 32767})
	_, refTrace, err := traceScan(t, net, batch, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range scanArcSources(net) {
		want, werr := scalarBroadcastAll(ctx, src.net, append(src.opts, batch)...)
		if werr != nil || want.Worst != 15 {
			t.Fatalf("%s: oracle %+v, %v", src.name, want, werr)
		}
		for workers := 1; workers <= 8; workers++ {
			opts := append(src.opts[:len(src.opts):len(src.opts)], batch, WithWorkers(workers), WithShardThreshold(1))
			got, trace, gerr := traceScan(t, src.net, opts...)
			sameScan(t, src.name, got, gerr, want, nil)
			if !reflect.DeepEqual(trace, refTrace) {
				t.Fatalf("%s workers=%d: sharded trace diverges from the serial CSR trace", src.name, workers)
			}
		}
	}
}

// TestBroadcastScanMultiBatchRagged: scans spanning several packed batches
// with a ragged final batch (sources % 64 != 0) stay kernel- and
// worker-count-independent.
func TestBroadcastScanMultiBatchRagged(t *testing.T) {
	net, err := New("cycle", Nodes(150)) // 3 batches: 64 + 64 + 22
	if err != nil {
		t.Fatal(err)
	}
	serial := scanBoth(t, net, WithWorkers(1))
	parallel := scanBoth(t, net, WithWorkers(5))
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("worker count changed the report:\n  serial:   %+v\n  parallel: %+v", serial, parallel)
	}
	if serial.Worst != 75 || serial.Best != 75 || serial.MeanRounds != 75 {
		t.Fatalf("cycle eccentricities: %+v", serial)
	}
	if len(serial.Histogram) != 1 || serial.Histogram[0] != (RoundsBucket{Rounds: 75, Count: 150}) {
		t.Fatalf("histogram = %v, want one bucket of 150 sources at 75 rounds", serial.Histogram)
	}

	// A ragged subset (70 sources = 64 + 6) in non-monotone order.
	hc, err := New("hypercube", Dimension(8))
	if err != nil {
		t.Fatal(err)
	}
	sub := make([]int, 70)
	for i := range sub {
		sub[i] = (37 * i) % hc.G.N() // distinct mod 256: gcd(37, 256) = 1
	}
	rep := scanBoth(t, hc, WithSources(sub), WithWorkers(3))
	if rep == nil {
		t.Fatal("ragged subset scan failed")
	}
	for i, s := range sub {
		if rep.Rounds[i] != 8 {
			t.Errorf("source %d: %d rounds, want the hypercube diameter 8", s, rep.Rounds[i])
		}
	}
}

// TestBroadcastScanSubsetEqualsFull: a subset scan is exactly the
// corresponding rows of the full scan, with extremes and statistics
// recomputed over the subset only.
func TestBroadcastScanSubsetEqualsFull(t *testing.T) {
	net, err := New("tree", Degree(2), Depth(3))
	if err != nil {
		t.Fatal(err)
	}
	full := scanBoth(t, net)
	sub := scanBoth(t, net, WithSources([]int{6, 0, 11}))
	for i, s := range []int{6, 0, 11} {
		if sub.Rounds[i] != full.Rounds[s] {
			t.Errorf("subset row %d (source %d) = %d, full scan has %d", i, s, sub.Rounds[i], full.Rounds[s])
		}
	}
	count := 0
	for _, b := range sub.Histogram {
		count += b.Count
	}
	if count != 3 {
		t.Errorf("subset histogram covers %d sources, want 3: %v", count, sub.Histogram)
	}
	if sub.Rounds[0] > sub.Worst || sub.Best > sub.Worst {
		t.Errorf("subset extremes inconsistent: %+v", sub)
	}
}

// TestBroadcastScanBadSources: WithSources validation fails with
// ErrBadParam before either kernel runs.
func TestBroadcastScanBadSources(t *testing.T) {
	net, err := New("cycle", Nodes(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, sources := range map[string][]int{
		"empty":        {},
		"negative":     {-1},
		"out-of-range": {5},
		"duplicate":    {1, 3, 1},
	} {
		for _, kernel := range scanKernels {
			if _, err := kernel.scan(ctx, net, WithSources(sources)); !errors.Is(err, ErrBadParam) {
				t.Errorf("%s sources (%s): err = %v, want ErrBadParam", name, kernel.name, err)
			}
		}
	}
}

// TestBroadcastScanErrorParity pins both kernels to the exact same error
// text — not merely the same sentinel — for budget truncation and for a
// stalled (unreachable) frontier, including the productive-round count the
// unreachable message carries.
func TestBroadcastScanErrorParity(t *testing.T) {
	ctx := context.Background()

	path, err := New("path", Nodes(6))
	if err != nil {
		t.Fatal(err)
	}
	_, perr := AnalyzeBroadcastAll(ctx, path, WithRoundBudget(2))
	_, serr := scalarBroadcastAll(ctx, path, WithRoundBudget(2))
	if perr == nil || serr == nil || perr.Error() != serr.Error() {
		t.Fatalf("truncated-scan parity:\n  packed: %v\n  scalar: %v", perr, serr)
	}
	if !errors.Is(perr, ErrIncomplete) {
		t.Fatalf("truncated scan: err = %v, want ErrIncomplete", perr)
	}

	// 0 → 1 → 2 with no return arcs: source 1 reaches only vertex 2, and
	// its frontier stalls after exactly 1 productive round.
	g := graph.New(3)
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	oneway := Plain("one-way-path", g)
	_, perr = AnalyzeBroadcastAll(ctx, oneway)
	_, serr = scalarBroadcastAll(ctx, oneway)
	if perr == nil || serr == nil || perr.Error() != serr.Error() {
		t.Fatalf("unreachable-scan parity:\n  packed: %v\n  scalar: %v", perr, serr)
	}
	if !errors.Is(perr, ErrUnreachable) || errors.Is(perr, ErrIncomplete) {
		t.Fatalf("stalled scan: err = %v, want ErrUnreachable and not ErrIncomplete", perr)
	}
	want := "systolic: source cannot reach every vertex: broadcast-all on one-way-path from source 1 (frontier stalled after 1 rounds)"
	if perr.Error() != want {
		t.Fatalf("stalled scan message:\n  got  %q\n  want %q", perr, want)
	}
}

// scanTrace records the ScanRound stream; safe for concurrent batches.
type scanTrace struct {
	mu     sync.Mutex
	rounds int // plain Observer fallback calls
	events []scanEvent
}

type scanEvent struct{ batch, round, cols, total int }

func (tr *scanTrace) Round(round, knowledge, target int) {
	tr.mu.Lock()
	tr.rounds++
	tr.mu.Unlock()
}

func (tr *scanTrace) ScanRound(batch, round, cols, total int) {
	tr.mu.Lock()
	tr.events = append(tr.events, scanEvent{batch, round, cols, total})
	tr.mu.Unlock()
}

// TestBroadcastScanTraceSeam: a ScanObserver sees per-batch progress from
// both kernels — monotone informed columns per batch, each batch ending at
// lanes × n columns — and the packed kernel emits each (batch, round)
// exactly once. A plain Observer still receives Round calls.
func TestBroadcastScanTraceSeam(t *testing.T) {
	net, err := New("hypercube", Dimension(7)) // 128 vertices: two full batches
	if err != nil {
		t.Fatal(err)
	}
	n := net.G.N()
	for _, kernel := range scanKernels {
		t.Run(kernel.name, func(t *testing.T) {
			tr := &scanTrace{}
			if _, err := kernel.scan(context.Background(), net, WithTrace(tr), WithWorkers(2)); err != nil {
				t.Fatal(err)
			}
			if tr.rounds != 0 {
				t.Fatalf("ScanObserver also received %d plain Round calls", tr.rounds)
			}
			perBatch := map[int][]scanEvent{}
			for _, ev := range tr.events {
				perBatch[ev.batch] = append(perBatch[ev.batch], ev)
			}
			if len(perBatch) != 2 {
				t.Fatalf("saw batches %v, want exactly {0, 1}", perBatch)
			}
			for batch, evs := range perBatch {
				sort.Slice(evs, func(i, j int) bool {
					if evs[i].round != evs[j].round {
						return evs[i].round < evs[j].round
					}
					return evs[i].cols < evs[j].cols
				})
				last := evs[len(evs)-1]
				if last.total != gossip.PackedLanes*n || last.cols != last.total {
					t.Fatalf("batch %d ends at %d/%d columns, want %d/%d",
						batch, last.cols, last.total, gossip.PackedLanes*n, gossip.PackedLanes*n)
				}
				if kernel.name == "packed" {
					prev := scanEvent{round: 0, cols: gossip.PackedLanes} // sources start informed
					for _, ev := range evs {
						if ev.round != prev.round+1 || ev.cols < prev.cols {
							t.Fatalf("batch %d: packed trace not a monotone once-per-round stream: %v after %v", batch, ev, prev)
						}
						prev = ev
					}
				}
			}
		})
	}

	// Plain observers get the Round fallback from both kernels.
	for _, kernel := range scanKernels {
		calls := 0
		obs := ObserverFunc(func(round, knowledge, target int) { calls++ })
		if _, err := kernel.scan(context.Background(), net, WithTrace(obs), WithWorkers(1)); err != nil {
			t.Fatal(err)
		}
		if calls == 0 {
			t.Fatal("plain Observer received no Round calls from a scan")
		}
	}
}

// TestBroadcastAllBound pins the per-source certification floor the scan
// now evaluates in its summary pass: the c(d)·log₂n floor (its certified
// finite-n part) is computed once, every source's measured rounds are
// compared against it, and the report surfaces the extremes plus the first
// violating source. Both kernels and the sharded path must agree.
func TestBroadcastAllBound(t *testing.T) {
	ctx := context.Background()
	// Hypercube d=5: every eccentricity is 5 = ⌈log₂ 32⌉, so the floor is
	// met with equality from every source.
	net, err := New("hypercube", Dimension(5))
	if err != nil {
		t.Fatal(err)
	}
	var bounds []*BroadcastBound
	for _, run := range []func() (*BroadcastAllReport, error){
		func() (*BroadcastAllReport, error) { return AnalyzeBroadcastAll(ctx, net) },
		func() (*BroadcastAllReport, error) { return scalarBroadcastAll(ctx, net) },
		func() (*BroadcastAllReport, error) { return AnalyzeBroadcastAll(ctx, net, WithWorkers(4)) },
	} {
		rep, err := run()
		if err != nil {
			t.Fatal(err)
		}
		b := rep.Bound
		if b == nil {
			t.Fatal("scan report carries no bound summary")
		}
		if b.Source != -1 || !b.Applicable || b.ScannedSources != 32 {
			t.Fatalf("bound header: %+v", b)
		}
		if b.MinRounds != rep.Best || b.MaxRounds != rep.Worst || b.MinRounds != 5 || b.MaxRounds != 5 {
			t.Fatalf("bound extremes %d..%d, scan %d..%d, want 5..5", b.MinRounds, b.MaxRounds, rep.Best, rep.Worst)
		}
		if !b.Respected || b.Violations != 0 || b.ViolatingSource != nil {
			t.Fatalf("hypercube floor should hold everywhere: %+v", b)
		}
		if b.CBound != 5 {
			t.Fatalf("certified floor %d, want 5", b.CBound)
		}
		bounds = append(bounds, b)
	}
	for i, b := range bounds[1:] {
		if *b != *bounds[0] {
			t.Fatalf("kernel %d bound diverges: %+v vs %+v", i+1, b, bounds[0])
		}
	}

	// Complete graph n=16: flooding reaches everyone in one round, below
	// the ⌈log₂ 16⌉ = 4 information floor of matching-model broadcast, so
	// every source violates and the first one is named.
	net, err = New("complete", Nodes(16))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeBroadcastAll(ctx, net)
	if err != nil {
		t.Fatal(err)
	}
	b := rep.Bound
	if b == nil || b.Respected || b.Violations != 16 {
		t.Fatalf("complete-graph scan should violate the floor everywhere: %+v", b)
	}
	if b.ViolatingSource == nil || *b.ViolatingSource != 0 {
		t.Fatalf("first violating source: %+v", b.ViolatingSource)
	}
	if b.MinRounds != 1 || b.MaxRounds != 1 || b.CBound != 4 {
		t.Fatalf("complete-graph extremes %d..%d floor %d, want 1..1 floor 4", b.MinRounds, b.MaxRounds, b.CBound)
	}
}
