// Coverage for the generator-backed scan seam: scans streaming the
// generator must reproduce scans over the lowered CSR exactly (reports,
// errors, traces) on every generator-eligible kind, the registry must attach generators and switch
// to implicit builds past the materialization threshold, and implicit
// networks must stream scans and certifications while every
// adjacency-walking entry point fails with ErrImplicit.
package systolic

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// genEligibleNets instantiates one modest network per generator-eligible
// registry kind. All come back materialized (below the threshold) with a
// generator attached, so CSR and generator scans can be compared on
// identical instances.
func genEligibleNets(t *testing.T) []*Network {
	t.Helper()
	cases := []struct {
		kind   string
		params []Param
	}{
		{"hypercube", []Param{Dimension(6)}},
		{"cycle", []Param{Nodes(97)}},
		{"torus", []Param{Rows(5), Cols(7)}},
		{"ccc", []Param{Dimension(4)}},
		{"butterfly", []Param{Degree(2), Diameter(3)}},
		{"debruijn", []Param{Degree(2), Diameter(5)}},
		{"debruijn-digraph", []Param{Degree(3), Diameter(4)}},
		{"kautz", []Param{Degree(2), Diameter(4)}},
		{"kautz-digraph", []Param{Degree(3), Diameter(3)}},
	}
	nets := make([]*Network, 0, len(cases))
	for _, c := range cases {
		net, err := New(c.kind, c.params...)
		if err != nil {
			t.Fatalf("New(%s): %v", c.kind, err)
		}
		if net.Gen == nil {
			t.Fatalf("%s: no generator attached by the registry", net.Name)
		}
		if net.Implicit() {
			t.Fatalf("%s: implicit below the materialization threshold", net.Name)
		}
		nets = append(nets, net)
	}
	return nets
}

// TestGeneratorKernelsMatchCSR is the scan differential: on every
// generator-eligible kind, the packed scan over the generator and the
// scalar oracle over the generator's arcs produce full-scan reports
// deep-equal to the packed CSR scan, across worker counts (including the
// single-batch vertex-sharded path, forced via WithShardThreshold).
func TestGeneratorKernelsMatchCSR(t *testing.T) {
	ctx := context.Background()
	for _, net := range genEligibleNets(t) {
		ref, err := AnalyzeBroadcastAll(ctx, net, WithWorkers(1))
		if err != nil {
			t.Fatalf("%s: CSR scan: %v", net.Name, err)
		}
		variants := []struct {
			name string
			scan scanFunc
			opts []Option
		}{
			{"gen-packed-serial", AnalyzeBroadcastAll, []Option{WithImplicitScan(), WithWorkers(1)}},
			{"gen-packed-parallel", AnalyzeBroadcastAll, []Option{WithImplicitScan(), WithWorkers(4)}},
			{"gen-scalar", scalarBroadcastAll, []Option{WithImplicitScan()}},
		}
		for _, v := range variants {
			got, err := v.scan(ctx, net, v.opts...)
			if err != nil {
				t.Fatalf("%s/%s: %v", net.Name, v.name, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s/%s diverges from CSR:\n  gen: %+v\n  csr: %+v", net.Name, v.name, got, ref)
			}
		}
		// Single-batch subset: 64 sources in one batch exercises the
		// vertex-range sharded step (shard threshold forced to 1).
		nsrc := 64
		if nsrc > net.N() {
			nsrc = net.N()
		}
		sources := make([]int, nsrc)
		for i := range sources {
			sources[i] = i
		}
		sharded, err := AnalyzeBroadcastAll(ctx, net,
			WithSources(sources), WithImplicitScan(), WithWorkers(4), WithShardThreshold(1))
		if err != nil {
			t.Fatalf("%s/sharded: %v", net.Name, err)
		}
		csrSub, err := AnalyzeBroadcastAll(ctx, net, WithSources(sources), WithWorkers(1))
		if err != nil {
			t.Fatalf("%s/csr-subset: %v", net.Name, err)
		}
		if !reflect.DeepEqual(sharded, csrSub) {
			t.Errorf("%s: sharded gen subset diverges from CSR:\n  gen: %+v\n  csr: %+v", net.Name, sharded, csrSub)
		}
	}
}

// TestGeneratorTraceMatchesCSR pins the frontier trace: a ScanObserver sees
// the identical ScanRound stream from generator and CSR scans (single
// worker, so the event order is deterministic).
func TestGeneratorTraceMatchesCSR(t *testing.T) {
	net, err := New("hypercube", Dimension(7)) // 128 vertices: two full batches
	if err != nil {
		t.Fatal(err)
	}
	trace := func(opts ...Option) []scanEvent {
		tr := &scanTrace{}
		if _, err := AnalyzeBroadcastAll(context.Background(), net,
			append(opts, WithTrace(tr), WithWorkers(1))...); err != nil {
			t.Fatal(err)
		}
		return tr.events
	}
	csr := trace()
	gen := trace(WithImplicitScan())
	if !reflect.DeepEqual(gen, csr) {
		t.Fatalf("generator trace diverges from CSR:\n  gen: %v\n  csr: %v", gen, csr)
	}
}

// TestRegistryImplicitBuilds: past the materialization threshold the
// generator-eligible builders return implicit networks — instantly, with
// the right size and classification — and reject only past the implicit
// ceiling.
func TestRegistryImplicitBuilds(t *testing.T) {
	net, err := New("hypercube", Dimension(20))
	if err != nil {
		t.Fatal(err)
	}
	if !net.Implicit() || net.Gen == nil {
		t.Fatalf("hypercube d=20 (2^20 vertices) should be implicit past threshold %d", materializeThreshold)
	}
	if net.N() != 1<<20 {
		t.Fatalf("implicit N = %d, want %d", net.N(), 1<<20)
	}
	if net.DegreeParam != 19 {
		t.Fatalf("implicit hypercube degree param = %d, want 19", net.DegreeParam)
	}
	k, err := New("kautz-digraph", Degree(4), Diameter(12))
	if err != nil {
		t.Fatal(err)
	}
	if !k.Implicit() || !k.FamilyKnown {
		t.Fatalf("large kautz-digraph should be implicit and classified, got %+v", k)
	}
	// Past even the implicit ceiling: reject.
	if _, err := New("hypercube", Dimension(29)); !errors.Is(err, ErrBadParam) {
		t.Fatalf("hypercube d=29 (2^29 > implicit ceiling) err = %v, want ErrBadParam", err)
	}
	// Non-eligible kinds keep the materialized ceiling.
	if _, err := New("path", Nodes(maxInstanceVertices+1)); !errors.Is(err, ErrBadParam) {
		t.Fatalf("oversized path err = %v, want ErrBadParam", err)
	}
}

// TestCompleteRejectsAbsurdN pins the tightened complete-graph cap: K_n
// materializes n² arcs, so the registry rejects n past maxCompleteVertices
// with ErrBadParam instead of attempting a gigabyte-scale build.
func TestCompleteRejectsAbsurdN(t *testing.T) {
	if _, err := New("complete", Nodes(maxCompleteVertices+1)); !errors.Is(err, ErrBadParam) {
		t.Fatalf("complete n=%d err = %v, want ErrBadParam", maxCompleteVertices+1, err)
	}
	if _, err := New("complete", Nodes(8192)); !errors.Is(err, ErrBadParam) {
		t.Fatal("complete n=8192 (the old cap, ~67M arcs) must now be rejected")
	}
	net, err := New("complete", Nodes(64))
	if err != nil {
		t.Fatalf("complete n=64: %v", err)
	}
	if net.N() != 64 {
		t.Fatalf("complete n = %d, want 64", net.N())
	}
}

// TestImplicitGuards: every adjacency-walking entry point fails fast with
// ErrImplicit on an implicit network, while the streaming entry points
// work.
func TestImplicitGuards(t *testing.T) {
	net, err := New("debruijn", Degree(2), Diameter(21)) // 2^21 vertices, implicit
	if err != nil {
		t.Fatal(err)
	}
	if !net.Implicit() {
		t.Fatal("DB(2,21) should be implicit")
	}
	ctx := context.Background()
	p := &Protocol{}
	guards := []struct {
		name string
		call func() error
	}{
		{"NewProtocol", func() error { _, err := NewProtocol("periodic-half", net, 0); return err }},
		{"CompileProtocol", func() error { _, err := CompileProtocol(net, p); return err }},
		{"CompileDelayPlan", func() error { _, err := CompileDelayPlan(net, p); return err }},
		{"NewBroadcastEngine", func() error { _, err := NewBroadcastEngine(net, 0); return err }},
		{"AnalyzeBroadcast", func() error { _, err := AnalyzeBroadcast(ctx, net, 0); return err }},
		{"Certify", func() error { _, err := Certify(ctx, net, p); return err }},
	}
	for _, g := range guards {
		if err := g.call(); !errors.Is(err, ErrImplicit) {
			t.Errorf("%s on implicit net: err = %v, want ErrImplicit", g.name, err)
		}
	}
	// The bound evaluator degrades gracefully instead of erroring: the
	// diameter refinement needs adjacency, everything else is n + family.
	b := mustEvaluate(t, net, Request{Mode: HalfDuplex, Period: NonSystolic})
	if b.Rounds < ceilLog2(net.N()) {
		t.Errorf("implicit Evaluate rounds = %d, below the information bound", b.Rounds)
	}
}

// TestImplicitScanNeedsGenerator: WithImplicitScan on a network without a
// generator is ErrBadParam, not a panic.
func TestImplicitScanNeedsGenerator(t *testing.T) {
	net, err := New("path", Nodes(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeBroadcastAll(context.Background(), net, WithImplicitScan()); !errors.Is(err, ErrBadParam) {
		t.Fatalf("WithImplicitScan on path err = %v, want ErrBadParam", err)
	}
}

// TestMaxMemoryGuardRail pins the WithMaxMemory kernel demotion: a cap the
// CSR cannot fit falls back to the generator kernel (same report), and a
// cap nothing fits fails with ErrMemoryBudget.
func TestMaxMemoryGuardRail(t *testing.T) {
	net, err := New("hypercube", Dimension(8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{workers: 1}
	genBytes, csrBytes := scanFootprint(net, net.N(), cfg)
	if genBytes >= csrBytes {
		t.Fatalf("generator footprint %d should undercut CSR %d", genBytes, csrBytes)
	}
	// Kernel choice, directly: between the two footprints the picker must
	// demote to the generator; below both it must refuse.
	cfg.maxMemory = csrBytes - 1
	useGen, err := pickScanSource(net, net.N(), cfg)
	if err != nil || !useGen {
		t.Fatalf("cap %d: useGen=%v err=%v, want generator fallback", cfg.maxMemory, useGen, err)
	}
	cfg.maxMemory = genBytes - 1
	if _, err := pickScanSource(net, net.N(), cfg); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("cap %d: err = %v, want ErrMemoryBudget", cfg.maxMemory, err)
	}
	// End to end: the demoted scan still returns the CSR kernel's report.
	ref, err := AnalyzeBroadcastAll(context.Background(), net)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := AnalyzeBroadcastAll(context.Background(), net, WithWorkers(1), WithMaxMemory(csrBytes-1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(capped, ref) {
		t.Fatalf("memory-demoted scan diverges:\n  capped: %+v\n  ref:    %+v", capped, ref)
	}
	if _, err := AnalyzeBroadcastAll(context.Background(), net, WithWorkers(1), WithMaxMemory(1)); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("cap 1 byte: err = %v, want ErrMemoryBudget", err)
	}
}

// TestCertifyBroadcastImplicit: on an implicit network certification
// streams single-source flooding — measured = source eccentricity — and
// reports Mode "flooding" with the bound respected by construction.
func TestCertifyBroadcastImplicit(t *testing.T) {
	gen := topology.NewHypercubeGen(10)
	net := PlainImplicit("hc10-implicit", gen, 9)
	cert, err := CertifyBroadcast(context.Background(), net, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Mode != "flooding" {
		t.Errorf("mode = %q, want flooding", cert.Mode)
	}
	if cert.Measured != 10 {
		t.Errorf("measured = %d, want hypercube eccentricity 10", cert.Measured)
	}
	if !cert.Complete || !cert.Broadcast.Applicable || !cert.Broadcast.Respected {
		t.Errorf("certificate flags: %+v", cert.Broadcast)
	}
	if cert.Broadcast.CBound != 10 {
		t.Errorf("cbound = %d, want eccentricity floor 10", cert.Broadcast.CBound)
	}
	// Out-of-range source and budget truncation.
	if _, err := CertifyBroadcast(context.Background(), net, -1); !errors.Is(err, ErrBadParam) {
		t.Errorf("source -1: err = %v, want ErrBadParam", err)
	}
	trunc, err := CertifyBroadcast(context.Background(), net, 0, WithRoundBudget(3))
	if err != nil {
		t.Fatal(err)
	}
	if trunc.Complete || trunc.Broadcast.Applicable || trunc.Measured != 3 {
		t.Errorf("truncated certificate: %+v", trunc)
	}
	// Sharded single-source path agrees with the serial one.
	sharded, err := CertifyBroadcast(context.Background(), net, 5, WithWorkers(4), WithShardThreshold(1))
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Measured != cert.Measured || sharded.Broadcast.CBound != cert.Broadcast.CBound {
		t.Errorf("sharded certify diverges: %+v vs %+v", sharded, cert)
	}
}

// TestImplicitScanUnreachable: a generator-backed digraph source that
// cannot reach every vertex surfaces ErrUnreachable with the same error
// text as the CSR kernel.
func TestImplicitScanUnreachable(t *testing.T) {
	g := newOneWayPairNetwork(t)
	csr, csrErr := AnalyzeBroadcastAll(context.Background(), g)
	if csr != nil || !errors.Is(csrErr, ErrUnreachable) {
		t.Fatalf("CSR: report %v err %v, want ErrUnreachable", csr, csrErr)
	}
	gen, genErr := AnalyzeBroadcastAll(context.Background(), g, WithImplicitScan())
	if gen != nil || !errors.Is(genErr, ErrUnreachable) {
		t.Fatalf("generator: report %v err %v, want ErrUnreachable", gen, genErr)
	}
	if csrErr.Error() != genErr.Error() {
		t.Fatalf("error parity broken:\n  csr: %v\n  gen: %v", csrErr, genErr)
	}
}

// TestStreamingScanD20Acceptance is the scale-tier acceptance point: a
// 64-source eccentricity scan of the implicit d=20 hypercube (2^20 nodes,
// ~21M arcs never materialized) completes with every source at
// eccentricity 20, under a heap ceiling far below what the CSR lowering
// alone would cost (~100 MB). Skipped under -short.
func TestStreamingScanD20Acceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("scale acceptance test")
	}
	net, err := New("hypercube", Dimension(20))
	if err != nil {
		t.Fatal(err)
	}
	if !net.Implicit() {
		t.Fatal("hypercube d=20 should build implicit")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sources := make([]int, 64)
	for i := range sources {
		sources[i] = i * (net.N() / 64)
	}
	rep, err := AnalyzeBroadcastAll(context.Background(), net, WithSources(sources))
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	for i, r := range rep.Rounds {
		if r != 20 {
			t.Fatalf("source %d: %d rounds, want hypercube eccentricity 20", sources[i], r)
		}
	}
	// The streaming scan's working set is the packed frontier (16 bytes ×
	// 2^20 = 16 MiB) plus scratch; allow generous slack but stay an order
	// of magnitude under the ~100 MB CSR footprint.
	const ceiling = 64 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > ceiling {
		t.Errorf("heap grew %d bytes during streaming scan, ceiling %d", grew, ceiling)
	}
	t.Logf("d=20 implicit scan: worst=%d mean=%.2f heap-growth=%dB",
		rep.Worst, rep.MeanRounds, int64(after.HeapAlloc)-int64(before.HeapAlloc))
}

// newOneWayPairNetwork builds a 3-vertex network with vertex 2 unreachable
// from 0 and 1, carrying both a materialized digraph and its generator
// adapter.
func newOneWayPairNetwork(t *testing.T) *Network {
	t.Helper()
	g := graph.New(3)
	g.AddArc(0, 1)
	g.AddArc(1, 0)
	g.AddArc(2, 0)
	net := Plain("one-way-pair", g)
	net.Gen = graph.NewDigraphSource(g)
	return net
}
