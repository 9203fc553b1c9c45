// Differential coverage for the schedule compiler: executing a compiled
// Program must be byte-identical to interpreting the protocol's arc slices,
// round by round, on every backend (serial state, sharded pool, packed
// frontier, completion certificate), and the compiled hot path must not
// allocate. The tests live in the external package so they can drive the
// core through real protocol constructions.
package gossip_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/protocols"
	"repro/internal/topology"
)

// randomMatchingProtocol builds a random valid protocol on g: each round
// greedily packs a random subset of arcs into a matching. Systolic or
// finite, per the flag.
func randomMatchingProtocol(rng *rand.Rand, g *graph.Digraph, rounds int, systolic bool, mode gossip.Mode) *gossip.Protocol {
	arcs := g.Arcs()
	var rs [][]graph.Arc
	for r := 0; r < rounds; r++ {
		perm := rng.Perm(len(arcs))
		busy := make(map[int]struct{})
		var round []graph.Arc
		for _, i := range perm {
			a := arcs[i]
			if rng.Intn(2) == 0 {
				continue
			}
			if _, ok := busy[a.From]; ok {
				continue
			}
			if _, ok := busy[a.To]; ok {
				continue
			}
			busy[a.From] = struct{}{}
			busy[a.To] = struct{}{}
			round = append(round, a)
		}
		rs = append(rs, round)
	}
	if systolic {
		return gossip.NewSystolic(rs, mode)
	}
	return gossip.NewFinite(rs, mode)
}

func randomSymmetricGraph(rng *rand.Rand, n int) *graph.Digraph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v)
	}
	for extra := 0; extra < n; extra++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasArc(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g
}

// TestCompiledStepMatchesInterpreted is the fuzz-style core differential:
// across random graphs and random (systolic and finite) protocols, the
// compiled gossip state — serial and sharded — and the compiled frontier
// must match the interpreted backends after every round, byte for byte.
func TestCompiledStepMatchesInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(9)
		g := randomSymmetricGraph(rng, n)
		p := randomMatchingProtocol(rng, g, 3+rng.Intn(8), trial%2 == 0, gossip.HalfDuplex)
		if err := p.Validate(g); err != nil {
			t.Fatalf("trial %d: generator produced invalid protocol: %v", trial, err)
		}
		prog, err := gossip.Compile(p, n, n)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		if got, want := prog.Fingerprint(), p.Fingerprint(); got != want {
			t.Fatalf("trial %d: program fingerprint %s, protocol %s", trial, got, want)
		}

		interp := gossip.NewState(n)
		compiled := gossip.NewState(n)
		sharded := gossip.NewState(n)
		pool := par.New(1 + rng.Intn(4))
		sharded.UsePool(pool)

		bprog, err := gossip.Compile(p, n, 1)
		if err != nil {
			t.Fatalf("trial %d: broadcast compile: %v", trial, err)
		}
		src := rng.Intn(n)
		interpFr := gossip.NewFrontierState(n, src)
		compiledFr := gossip.NewFrontierState(n, src)

		rounds := 4 * (p.Len() + 1) // past the end of finite protocols on purpose
		for r := -1; r < rounds; r++ {
			interp.Step(p.Round(r))
			compiled.StepProgram(prog, r)
			sharded.StepProgram(prog, r)
			want := interp.Export()
			if !bytes.Equal(compiled.Export(), want) {
				t.Fatalf("trial %d round %d: serial compiled state diverged", trial, r)
			}
			if !bytes.Equal(sharded.Export(), want) {
				t.Fatalf("trial %d round %d: sharded compiled state diverged", trial, r)
			}
			if compiled.TotalKnowledge() != interp.TotalKnowledge() ||
				sharded.TotalKnowledge() != interp.TotalKnowledge() {
				t.Fatalf("trial %d round %d: knowledge counters diverged", trial, r)
			}
			if compiled.GossipComplete() != interp.GossipComplete() {
				t.Fatalf("trial %d round %d: completion flags diverged", trial, r)
			}

			wantGain := interpFr.Step(p.Round(r))
			if gotGain := compiledFr.StepProgram(bprog, r); gotGain != wantGain {
				t.Fatalf("trial %d round %d: frontier gains %d vs %d", trial, r, gotGain, wantGain)
			}
			if !bytes.Equal(compiledFr.Export(), interpFr.Export()) {
				t.Fatalf("trial %d round %d: frontier sets diverged", trial, r)
			}
		}
		pool.Close()
	}
}

// TestCompiledArbitraryArcSets exercises the compiler's general path:
// rounds that are NOT matchings — overlapping senders and receivers,
// duplicate destinations, opposite pairs entangled with extra arcs — force
// the snapshot spans, the prev/cur regrouping and the duplicate-receiver
// bucketing that validated protocols never need. Compiled execution
// (serial and sharded) must still match the interpreter byte for byte.
func TestCompiledArbitraryArcSets(t *testing.T) {
	rng := rand.New(rand.NewSource(1337))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(8)
		var rs [][]graph.Arc
		for r := 0; r < 2+rng.Intn(6); r++ {
			var round []graph.Arc
			for k := 0; k < rng.Intn(3*n); k++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v {
					round = append(round, graph.Arc{From: u, To: v})
				}
			}
			rs = append(rs, round)
		}
		var p *gossip.Protocol
		if trial%2 == 0 {
			p = gossip.NewSystolic(rs, gossip.Directed)
		} else {
			p = gossip.NewFinite(rs, gossip.Directed)
		}
		prog, err := gossip.Compile(p, n, n)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		interp := gossip.NewState(n)
		compiled := gossip.NewState(n)
		sharded := gossip.NewState(n)
		pool := par.New(1 + rng.Intn(4))
		sharded.UsePool(pool)
		for r := 0; r < 3*(len(rs)+1); r++ {
			interp.Step(p.Round(r))
			compiled.StepProgram(prog, r)
			sharded.StepProgram(prog, r)
			want := interp.Export()
			if !bytes.Equal(compiled.Export(), want) {
				t.Fatalf("trial %d round %d: serial compiled diverged on arbitrary arc set", trial, r)
			}
			if !bytes.Equal(sharded.Export(), want) {
				t.Fatalf("trial %d round %d: sharded compiled diverged on arbitrary arc set", trial, r)
			}
			if compiled.TotalKnowledge() != interp.TotalKnowledge() ||
				sharded.TotalKnowledge() != interp.TotalKnowledge() {
				t.Fatalf("trial %d round %d: knowledge counters diverged", trial, r)
			}
		}
		pool.Close()
	}
}

// TestCompiledMatchesOnRealTopologies pins the differential on the paper's
// constructions across all three communication modes, sweeping worker
// counts through the shard partitions.
func TestCompiledMatchesOnRealTopologies(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Digraph
		proto func(*graph.Digraph) *gossip.Protocol
	}{
		{"debruijn/half", topology.NewDeBruijn(2, 6).G, protocols.PeriodicHalfDuplex},
		{"hypercube/full", topology.Hypercube(5), protocols.PeriodicFullDuplex},
		{"kautz-digraph/directed", topology.NewKautzDigraph(2, 5).G, protocols.RoundRobinDirected},
		{"ccc/full", topology.CCC(3), protocols.PeriodicFullDuplex},
		{"shuffle-exchange/half", topology.ShuffleExchange(4), protocols.PeriodicInterleavedHalfDuplex},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.proto(tc.g)
			if err := p.Validate(tc.g); err != nil {
				t.Fatal(err)
			}
			n := tc.g.N()
			prog, err := gossip.Compile(p, n, n)
			if err != nil {
				t.Fatal(err)
			}
			interp := gossip.NewState(n)
			var dumps [][]byte
			for r := 0; !interp.GossipComplete() && r < 10000; r++ {
				interp.Step(p.Round(r))
				dumps = append(dumps, interp.Export())
			}
			if !interp.GossipComplete() {
				t.Fatal("interpreted run did not complete")
			}
			for workers := 0; workers <= 5; workers++ {
				st := gossip.NewState(n)
				var pool *par.Pool
				if workers > 0 {
					pool = par.New(workers)
					st.UsePool(pool)
				}
				for r := range dumps {
					st.StepProgram(prog, r)
					if !bytes.Equal(st.Export(), dumps[r]) {
						t.Fatalf("workers=%d: compiled state diverged at round %d", workers, r+1)
					}
				}
				if !st.GossipComplete() {
					t.Fatalf("workers=%d: compiled run did not complete", workers)
				}
				if pool != nil {
					pool.Close()
				}
			}
		})
	}
}

// TestProgramCertificateMatchesInterpreted cross-checks the compiled
// completion certificate against a direct interpretation of the same
// forward propagation over arc slices.
func TestProgramCertificateMatchesInterpreted(t *testing.T) {
	interpretedCert := func(g *graph.Digraph, p *gossip.Protocol, tt int) bool {
		n := g.N()
		for x := 0; x < n; x++ {
			reached := make([]bool, n)
			reached[x] = true
			cnt := 1
			for r := 0; r < tt && cnt < n; r++ {
				var gained []int
				for _, a := range p.Round(r) {
					if reached[a.From] && !reached[a.To] {
						gained = append(gained, a.To)
					}
				}
				for _, v := range gained {
					reached[v] = true
				}
				cnt += len(gained)
			}
			if cnt < n {
				return false
			}
		}
		return true
	}

	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(6)
		g := randomSymmetricGraph(rng, n)
		p := randomMatchingProtocol(rng, g, 12, trial%2 == 0, gossip.HalfDuplex)
		for tt := 0; tt <= 14; tt += 2 {
			if got, want := gossip.CompletionCertificate(g, p, tt), interpretedCert(g, p, tt); got != want {
				t.Fatalf("trial %d t=%d: compiled certificate %v, interpreted %v", trial, tt, got, want)
			}
		}
	}
}

// TestCompiledStepZeroAlloc pins the compiled hot path at zero allocations
// in steady state — serial and sharded alike (the shard partition is
// memoized on first use, which the warm-up run absorbs).
func TestCompiledStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := topology.NewDeBruijn(2, 8)
	p := protocols.PeriodicHalfDuplex(db.G)
	n := db.G.N()
	prog, err := gossip.Compile(p, n, n)
	if err != nil {
		t.Fatal(err)
	}

	st := gossip.NewState(n)
	r := 0
	if got := testing.AllocsPerRun(50, func() {
		st.StepProgram(prog, r)
		r++
	}); got != 0 {
		t.Errorf("serial compiled Step allocates %v objects per round, want 0", got)
	}

	sharded := gossip.NewState(n)
	pool := par.New(4)
	defer pool.Close()
	sharded.UsePool(pool)
	r = 0
	if got := testing.AllocsPerRun(50, func() {
		sharded.StepProgram(prog, r)
		r++
	}); got != 0 {
		t.Errorf("sharded compiled Step allocates %v objects per round, want 0", got)
	}

	bprog, err := gossip.Compile(p, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	fr := gossip.NewFrontierState(n, 0)
	r = 0
	if got := testing.AllocsPerRun(50, func() {
		fr.StepProgram(bprog, r)
		r++
	}); got != 0 {
		t.Errorf("compiled frontier Step allocates %v objects per round, want 0", got)
	}
}

// TestCompileRejects: arcs outside the processor range and degenerate
// shapes must fail compilation with an error, not a panic downstream.
func TestCompileRejects(t *testing.T) {
	p := gossip.NewFinite([][]graph.Arc{{{From: 0, To: 7}}}, gossip.Directed)
	if _, err := gossip.Compile(p, 4, 4); err == nil {
		t.Error("out-of-range arc compiled")
	}
	if _, err := gossip.Compile(p, -1, 1); err == nil {
		t.Error("negative processor count compiled")
	}
	if _, err := gossip.Compile(p, 8, 0); err == nil {
		t.Error("zero item width compiled")
	}
	ok := gossip.NewSystolic([][]graph.Arc{{{From: 0, To: 1}}}, gossip.Directed)
	pr, err := gossip.Compile(ok, 2, 2)
	if err != nil {
		t.Fatalf("valid protocol failed to compile: %v", err)
	}
	if pr.Len() != 1 || !pr.Systolic() || pr.NumArcs() != 1 || pr.N() != 2 || pr.Items() != 2 {
		t.Errorf("program metadata mismatch: %+v", pr)
	}
	if pr.Mode() != gossip.Directed || pr.Period() != 1 {
		t.Errorf("program mode/period mismatch")
	}
}
