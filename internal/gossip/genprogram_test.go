package gossip

import (
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// genProgCase is one generator-compiled schedule plus the mode it runs
// under.
type genProgCase struct {
	name string
	rs   graph.RoundSource
	mode Mode
}

func genProgCases() []genProgCase {
	var cases []genProgCase
	add := func(kind string, s *topology.Schedule) {
		cases = append(cases,
			genProgCase{kind + "-full", s.FullDuplex(), FullDuplex},
			genProgCase{kind + "-half", s.HalfDuplex(), HalfDuplex},
			genProgCase{kind + "-interleaved", s.Interleaved(), HalfDuplex},
		)
	}
	add("hypercube-D4", topology.NewSchedule(topology.NewHypercubeClasses(4)))
	add("cycle-9", topology.NewSchedule(topology.NewCycleClasses(9)))
	add("cycle-8", topology.NewSchedule(topology.NewCycleClasses(8)))
	add("torus-3x4", topology.NewSchedule(topology.NewTorusClasses(3, 4)))
	add("ccc-3", topology.NewSchedule(topology.NewCCCClasses(3)))
	add("butterfly-2x2", topology.NewSchedule(topology.NewButterflyClasses(2, 2)))
	cases = append(cases, genProgCase{"cycle2-10", topology.NewCycleTwoPhase(10), Directed})
	return cases
}

// noChunk hides a RoundSource's chunk fast path, forcing the scalar Sender
// walk — the fallback the chunked kernels are differential-pinned against.
type noChunk struct{ rs graph.RoundSource }

func (n noChunk) N() int              { return n.rs.N() }
func (n noChunk) Rounds() int         { return n.rs.Rounds() }
func (n noChunk) Sender(r, v int) int { return n.rs.Sender(r, v) }

// TestGenProgramFingerprintMatchesMaterialized pins the streamed
// fingerprint against Protocol.Fingerprint of the materialized rounds, and
// the gen-backed Protocol's delegation to it.
func TestGenProgramFingerprintMatchesMaterialized(t *testing.T) {
	for _, tc := range genProgCases() {
		t.Run(tc.name, func(t *testing.T) {
			gen := CompileGen(tc.rs, tc.mode)
			p := gen.Materialize()
			if got, want := gen.Fingerprint(), p.Fingerprint(); got != want {
				t.Fatalf("gen fingerprint %s, materialized %s", got, want)
			}
			backed := &Protocol{Gen: gen, Period: gen.Period(), Mode: tc.mode}
			if got, want := backed.Fingerprint(), p.Fingerprint(); got != want {
				t.Fatalf("gen-backed protocol fingerprint %s, materialized %s", got, want)
			}
			// The scalar fallback must stream the identical byte sequence.
			scalar := CompileGen(noChunk{tc.rs}, tc.mode)
			if got, want := scalar.Fingerprint(), p.Fingerprint(); got != want {
				t.Fatalf("scalar-path fingerprint %s, materialized %s", got, want)
			}
		})
	}
}

// TestGenProgramMaterializeValid checks the materialized protocols are
// well-formed for their modes on the matching materialized graph.
func TestGenProgramMaterializeValid(t *testing.T) {
	graphs := map[string]*graph.Digraph{
		"hypercube-D4":  topology.Hypercube(4),
		"cycle-9":       topology.Cycle(9),
		"cycle-8":       topology.Cycle(8),
		"torus-3x4":     topology.Torus(3, 4),
		"ccc-3":         topology.CCC(3),
		"butterfly-2x2": topology.NewButterfly(2, 2).G,
		"cycle2-10":     topology.Cycle(10),
	}
	for _, tc := range genProgCases() {
		t.Run(tc.name, func(t *testing.T) {
			g := graphs[baseName(tc.name)]
			if g == nil {
				t.Fatalf("no graph for %s", tc.name)
			}
			p := CompileGen(tc.rs, tc.mode).Materialize()
			if err := p.Validate(g); err != nil {
				t.Fatalf("materialized protocol invalid: %v", err)
			}
		})
	}
}

// baseName strips the protocol suffix (-full, -half, -interleaved) from a
// case name; cycle2 cases keep their full name.
func baseName(name string) string {
	for _, suf := range []string{"-full", "-half", "-interleaved"} {
		if len(name) > len(suf) && name[len(name)-len(suf):] == suf {
			return name[:len(name)-len(suf)]
		}
	}
	return name
}

// TestStepGenProgramMatchesStepProgram is the execution differential: the
// generator-compiled step must inform exactly the vertices the
// CSR-compiled step of the materialized protocol informs, round for round,
// from every source — on both the chunked and scalar sender paths.
func TestStepGenProgramMatchesStepProgram(t *testing.T) {
	for _, tc := range genProgCases() {
		t.Run(tc.name, func(t *testing.T) {
			gen := CompileGen(tc.rs, tc.mode)
			n := gen.N()
			pr, err := Compile(gen.Materialize(), n, 1)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			for _, g := range []*GenProgram{gen, CompileGen(noChunk{tc.rs}, tc.mode)} {
				run := NewGenRun(g)
				for src := 0; src < n; src++ {
					fg := NewFrontierState(n, src)
					fc := NewFrontierState(n, src)
					for i := 0; i < 4*gen.Period()+4; i++ {
						gg := fg.StepGenProgram(run, i)
						gc := fc.StepProgram(pr, i)
						if gg != gc {
							t.Fatalf("source %d round %d: gen gained %d, csr %d", src, i, gg, gc)
						}
						for v := 0; v < n; v++ {
							if fg.Informed(v) != fc.Informed(v) {
								t.Fatalf("source %d round %d: informed(%d) gen %v csr %v",
									src, i, v, fg.Informed(v), fc.Informed(v))
							}
						}
					}
				}
			}
		})
	}
}

// programRound presents round r of a generator-compiled schedule as a
// flooding source: a destination's only in-arc comes from its sender, if
// it has one. A program round is a flooding round over its sender arcs —
// an arc sender → v informs v iff sender was informed at the beginning of
// the round — so the packed flood kernel steps 64 broadcasts of the
// program at once through this adapter.
type programRound struct {
	g *GenProgram
	r int
}

func (p *programRound) N() int        { return p.g.N() }
func (p *programRound) DegBound() int { return 1 }
func (p *programRound) InArcs(v int, buf []int32) int {
	if s := p.g.rs.Sender(p.r, v); s >= 0 {
		buf[0] = int32(s)
		return 1
	}
	return 0
}

// TestPackedStepGenProgramMatchesScalar pins the packed 64-lane flood
// kernel over a program's rounds (and its sharded range form) against the
// scalar StepGenProgram walk: lane l of the packed frontier must trace the
// broadcast from source l exactly.
func TestPackedStepGenProgramMatchesScalar(t *testing.T) {
	for _, tc := range genProgCases() {
		t.Run(tc.name, func(t *testing.T) {
			gen := CompileGen(tc.rs, tc.mode)
			n := gen.N()
			lanes := min(n, PackedLanes)
			sources := make([]int, lanes)
			for l := range sources {
				sources[l] = (l * 7) % n
			}
			scalars := make([]*FrontierState, lanes)
			for l, src := range sources {
				scalars[l] = NewFrontierState(n, src)
			}
			run := NewGenRun(gen)
			round := &programRound{g: gen}
			fg := graph.NewFloodGen(round)
			sfgs := []graph.FloodGen{graph.NewFloodGen(round), graph.NewFloodGen(round), graph.NewFloodGen(round)}
			pf := NewPackedFrontier(n)
			pf.Reset(sources)
			sharded := NewPackedFrontier(n)
			sharded.Reset(sources)
			for i := 0; i < 3*gen.Period()+3; i++ {
				round.r = i % gen.Period()
				_, _, informed := floodRound(pf, &fg)
				// Sharded: three uneven ranges, then one commit.
				var sInformed int
				cuts := []int{0, n / 3, n / 2, n}
				for s := 0; s+1 < len(cuts); s++ {
					_, _, inf := sharded.StepFloodRange(&sfgs[s], cuts[s], cuts[s+1])
					sInformed += inf
				}
				sharded.CommitStep()
				if sInformed != informed {
					t.Fatalf("round %d: sharded informed %d, serial %d", i, sInformed, informed)
				}
				want := 0
				for l := range scalars {
					scalars[l].StepGenProgram(run, i)
					want += scalars[l].InformedCount()
				}
				if informed != want {
					t.Fatalf("round %d: packed informed %d, scalar %d", i, informed, want)
				}
				for v := 0; v < n; v++ {
					for l := range scalars {
						if pf.Informed(v, l) != scalars[l].Informed(v) {
							t.Fatalf("round %d: lane %d vertex %d packed %v scalar %v",
								i, l, v, pf.Informed(v, l), scalars[l].Informed(v))
						}
					}
				}
			}
		})
	}
}

// TestStepGenProgramAllocs pins the zero-allocation contract of the
// generator-compiled hot paths.
func TestStepGenProgramAllocs(t *testing.T) {
	gen := CompileGen(topology.NewSchedule(topology.NewHypercubeClasses(8)).FullDuplex(), FullDuplex)
	n := gen.N()
	run := NewGenRun(gen)
	fr := NewFrontierState(n, 0)
	round := 0
	if avg := testing.AllocsPerRun(100, func() {
		fr.StepGenProgram(run, round)
		round++
	}); avg != 0 {
		t.Errorf("FrontierState.StepGenProgram allocates %.1f per step", avg)
	}
}

// TestGenProgramRoundArcs cross-checks the streamed arc counts against the
// materialized rounds.
func TestGenProgramRoundArcs(t *testing.T) {
	for _, tc := range genProgCases() {
		t.Run(tc.name, func(t *testing.T) {
			gen := CompileGen(tc.rs, tc.mode)
			p := gen.Materialize()
			for r := 0; r < gen.Period(); r++ {
				if got, want := gen.RoundArcs(r), len(p.Rounds[r]); got != want {
					t.Fatalf("round %d: RoundArcs %d, materialized %d", r, got, want)
				}
			}
			if gen.RoundArcs(-1) != 0 {
				t.Fatalf("RoundArcs(-1) != 0")
			}
		})
	}
}

// TestPackedStepGenProgramWorkerShards runs the range-sharded flood step
// over a program's rounds the way the scan pool does — one goroutine per
// worker on disjoint vertex ranges, a join, then CommitStep — for every
// worker count 1..8, and demands the informed counts match the
// single-worker step round for round. Under -race this pins the
// concurrency contract of StepFloodRange (per-worker FloodGen scratch,
// disjoint destination ranges, commit after the join).
func TestPackedStepGenProgramWorkerShards(t *testing.T) {
	for _, tc := range genProgCases() {
		t.Run(tc.name, func(t *testing.T) {
			gen := CompileGen(tc.rs, tc.mode)
			n := gen.N()
			lanes := min(n, PackedLanes)
			sources := make([]int, lanes)
			for l := range sources {
				sources[l] = (l * 5) % n
			}
			round := &programRound{g: gen}
			serial := NewPackedFrontier(n)
			sfg := graph.NewFloodGen(round)
			for workers := 1; workers <= 8; workers++ {
				serial.Reset(sources)
				pf := NewPackedFrontier(n)
				pf.Reset(sources)
				fgs := make([]graph.FloodGen, workers)
				for w := range fgs {
					fgs[w] = graph.NewFloodGen(round)
				}
				for i := 0; i < 2*gen.Period()+2; i++ {
					round.r = i % gen.Period()
					_, _, want := floodRound(serial, &sfg)
					informed := make([]int, workers)
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						lo, hi := n*w/workers, n*(w+1)/workers
						wg.Add(1)
						go func(w, lo, hi int) {
							defer wg.Done()
							_, _, inf := pf.StepFloodRange(&fgs[w], lo, hi)
							informed[w] = inf
						}(w, lo, hi)
					}
					wg.Wait()
					pf.CommitStep()
					got := 0
					for _, inf := range informed {
						got += inf
					}
					if got != want {
						t.Fatalf("workers=%d round %d: sharded informed %d, serial %d",
							workers, i, got, want)
					}
					for v := 0; v < n; v++ {
						for l := 0; l < lanes; l++ {
							if pf.Informed(v, l) != serial.Informed(v, l) {
								t.Fatalf("workers=%d round %d: informed(%d, lane %d) sharded %v serial %v",
									workers, i, v, l, pf.Informed(v, l), serial.Informed(v, l))
							}
						}
					}
				}
			}
		})
	}
}
