package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"repro/systolic"
)

// The scale tier straddles the 2^19-vertex materialization threshold:
// hypercube d=17 is materialized and scans on the packed CSR kernel,
// d=20 is implicit and scans and broadcasts on the generator kernels.
const (
	scanCSRDim     = 17
	scanGenDim     = 20
	scanCSRSources = 512
	scanGenSources = 64
	scanGenWorkers = 2
)

// scanNets are the two networks of the scale tier.
type scanNets struct{ csr, gen *systolic.Network }

func buildScanNets() (scanNets, error) {
	csr, err := systolic.New("hypercube", systolic.Dimension(scanCSRDim))
	if err != nil {
		return scanNets{}, err
	}
	gen, err := systolic.New("hypercube", systolic.Dimension(scanGenDim))
	if err != nil {
		return scanNets{}, err
	}
	if csr.Implicit() || !gen.Implicit() {
		return scanNets{}, fmt.Errorf("hypercube d=%d implicit=%v, d=%d implicit=%v: the scan tier no longer straddles the materialization threshold",
			scanCSRDim, csr.Implicit(), scanGenDim, gen.Implicit())
	}
	return scanNets{csr, gen}, nil
}

// scanOp is one operation's seeded inputs.
type scanOp struct {
	CSR    []int `json:"csr_sources"`
	Gen    []int `json:"gen_sources"`
	Source int   `json:"program_source"`
}

// distinct draws k distinct vertices of [0, n).
func distinct(rng *rand.Rand, n, k int) []int {
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		v := rng.IntN(n)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func newScanOp(rng *rand.Rand) scanOp {
	return scanOp{
		CSR:    distinct(rng, 1<<scanCSRDim, scanCSRSources),
		Gen:    distinct(rng, 1<<scanGenDim, scanGenSources),
		Source: rng.IntN(1 << scanGenDim),
	}
}

// scanCounter counts ScanObserver callbacks: one per (batch, round) of the
// packed kernels.
type scanCounter struct{ rounds atomic.Int64 }

func (c *scanCounter) Round(round, knowledge, target int) {}

func (c *scanCounter) ScanRound(batch, round, informed, total int) { c.rounds.Add(1) }

// scanHooks lets the traced run wrap each call in a span and count scan
// rounds; the timed run passes nil.
type scanHooks struct {
	step     func(name string, f func() error) error
	csr, gen *scanCounter
}

// checkEcc checks that every scanned source has eccentricity want: in a
// hypercube every vertex's is the dimension.
func checkEcc(rep *systolic.BroadcastAllReport, want int) error {
	for i, r := range rep.Rounds {
		if r != want {
			return fmt.Errorf("%s: source %d scanned eccentricity %d, want %d", rep.Network, rep.Sources[i], r, want)
		}
	}
	return nil
}

// runScanOp runs the trio: a 512-source CSR scan on d=17, a 64-source
// generator scan on d=20, and a periodic-full generator-program broadcast
// on d=20, checking every output.
func runScanOp(nets scanNets, op scanOp, h *scanHooks) error {
	ctx := context.Background()
	step := func(name string, f func() error) error { return f() }
	var csrOpts, genOpts []systolic.Option
	if h != nil {
		step = h.step
		csrOpts = append(csrOpts, systolic.WithTrace(h.csr))
		genOpts = append(genOpts, systolic.WithTrace(h.gen))
	}
	if err := step("systolic.scan_csr", func() error {
		rep, err := systolic.AnalyzeBroadcastAll(ctx, nets.csr, append(csrOpts, systolic.WithSources(op.CSR))...)
		if err != nil {
			return err
		}
		return checkEcc(rep, scanCSRDim)
	}); err != nil {
		return err
	}
	if err := step("systolic.scan_gen", func() error {
		rep, err := systolic.AnalyzeBroadcastAll(ctx, nets.gen,
			append(genOpts, systolic.WithSources(op.Gen), systolic.WithWorkers(scanGenWorkers))...)
		if err != nil {
			return err
		}
		return checkEcc(rep, scanGenDim)
	}); err != nil {
		return err
	}
	var pr *systolic.Program
	if err := step("gossip.compile_gen", func() error {
		p, err := systolic.NewProtocol("periodic-full", nets.gen, systolic.DefaultRoundBudget)
		if err != nil {
			return err
		}
		pr, err = systolic.CompileProtocol(nets.gen, p)
		if err == nil && pr.GenProgram() == nil {
			err = fmt.Errorf("periodic-full on %s did not compile to a generator program", nets.gen.Name)
		}
		return err
	}); err != nil {
		return err
	}
	return step("systolic.program_gen", func() error {
		sess, err := systolic.NewEngineFromProgram(pr, systolic.WithSource(op.Source))
		if err != nil {
			return err
		}
		defer sess.Close()
		res, err := sess.Run(ctx)
		if err != nil {
			return err
		}
		if res.Rounds != scanGenDim {
			return fmt.Errorf("periodic-full broadcast on %s from %d took %d rounds, want %d", nets.gen.Name, op.Source, res.Rounds, scanGenDim)
		}
		return nil
	})
}

// scanSetup builds the networks three times, each after a forced GC, and
// returns the last build with the median build time.
func scanSetup() (scanNets, float64, error) {
	var nets scanNets
	var builds []float64
	for i := 0; i < 3; i++ {
		nets = scanNets{}
		b, err := timed(func() (err error) {
			nets, err = buildScanNets()
			return err
		})
		if err != nil {
			return nets, 0, err
		}
		builds = append(builds, b)
	}
	return nets, median(builds), nil
}

// scanInputs records a run's generated inputs.
type scanInputs struct {
	Seed int64    `json:"seed"`
	Ops  []scanOp `json:"ops"`
}

// runScanScale repeats the trio with fresh seeded sources until the time
// is spent; each op is one throughput window.
func runScanScale(cfg config, t *tally) (map[string]metric, error) {
	nets, setup, err := scanSetup()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 3))
	inputs := scanInputs{Seed: cfg.seed}
	// One untimed warm-up op pays the first CSR scan's one-time adjacency
	// sort; its inputs come from their own stream so the timed ops match
	// between the timed and the traced run.
	if err := runScanOp(nets, newScanOp(rand.New(rand.NewPCG(uint64(cfg.seed), 4))), nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if cfg.trace {
		return traceScanScale(cfg, t, nets, setup, rng, inputs)
	}
	quiesce()
	var lat []float64
	start := time.Now()
	for time.Since(start).Seconds() < cfg.seconds {
		op := newScanOp(rng)
		inputs.Ops = append(inputs.Ops, op)
		t0 := time.Now()
		err := runScanOp(nets, op, nil)
		lat = append(lat, ms(time.Since(t0)))
		t.check(err)
	}
	if err := writeJSON(cfg, fmt.Sprintf("scan-scale-seed%d-inputs.json", cfg.seed), inputs); err != nil {
		return nil, err
	}
	return e2e(lat, median(windowRates(lat, 1)), setup)
}

// genProgramArcs counts the arcs the periodic-full generator program on
// d=20 streams over the scanGenDim rounds of one broadcast.
func genProgramArcs(nets scanNets) (int, error) {
	p, err := systolic.NewProtocol("periodic-full", nets.gen, systolic.DefaultRoundBudget)
	if err != nil {
		return 0, err
	}
	pr, err := systolic.CompileProtocol(nets.gen, p)
	if err != nil {
		return 0, err
	}
	arcs := 0
	for r := 0; r < scanGenDim; r++ {
		arcs += pr.GenProgram().RoundArcs(r)
	}
	return arcs, nil
}

// scanTraceOps is how many ops the traced run makes on each side.
const scanTraceOps = 5

// traceScanScale alternates untraced and traced ops. A traced op records a
// span per call; after it, an extra LowerFlood on d=17 is timed on its own,
// since the CSR scan lowers the graph inside and the lowering is not
// memoized.
func traceScanScale(cfg config, t *tally, nets scanNets, setup float64, rng *rand.Rand, inputs scanInputs) (map[string]metric, error) {
	programArcs, err := genProgramArcs(nets)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	var untraced []float64
	var mem memDelta
	var csrRounds, genRounds []int64
	quiesce()
	for i := 0; i < 2*scanTraceOps; i++ {
		op := newScanOp(rng)
		inputs.Ops = append(inputs.Ops, op)
		if i%2 == 0 {
			mark := markMem()
			t0 := time.Now()
			err := runScanOp(nets, op, nil)
			untraced = append(untraced, ms(time.Since(t0)))
			mem.add(mark.since())
			t.check(err)
			continue
		}
		req := i/2 + 1
		root := rec.begin(req, 0, "scan.op")
		h := &scanHooks{
			step: func(name string, f func() error) error { return rec.do(req, root, name, f) },
			csr:  new(scanCounter),
			gen:  new(scanCounter),
		}
		err := runScanOp(nets, op, h)
		rec.end(root)
		t.check(err)
		csrRounds = append(csrRounds, h.csr.rounds.Load())
		genRounds = append(genRounds, h.gen.rounds.Load())
		rec.do(req, 0, "graph.lower", func() error {
			nets.csr.G.LowerFlood()
			return nil
		})
	}
	for i := range csrRounds {
		if csrRounds[i] != csrRounds[0] || genRounds[i] != genRounds[0] {
			t.fail("scan rounds differ between ops: csr %v, gen %v", csrRounds, genRounds)
			break
		}
	}
	if err := writeJSON(cfg, fmt.Sprintf("scan-scale-seed%d-trace-inputs.json", cfg.seed), inputs); err != nil {
		return nil, err
	}
	spans := rec.snapshot()
	if err := writeSpans(cfg, fmt.Sprintf("scan-scale-seed%d-spans.jsonl", cfg.seed), spans); err != nil {
		return nil, err
	}
	dur := layerTimes(spans, false)
	med := func(name string) float64 { return median(values(dur[name])) }
	// Arc visits are computed, not counted: rounds stepped times the arcs a
	// round streams (every arc of the network for a flooding scan).
	csrVisits := float64(csrRounds[0]) * float64(nets.csr.G.M())
	genVisits := float64(genRounds[0]) * float64(nets.gen.N()*nets.gen.Gen.DegBound())
	csrMs, genMs, progMs := med("systolic.scan_csr"), med("systolic.scan_gen"), med("systolic.program_gen")
	return layerMetrics(map[string]float64{
		"topology.build_s":               setup,
		"graph.lower_ms":                 med("graph.lower"),
		"systolic.scan_csr_ms":           csrMs,
		"systolic.scan_gen_ms":           genMs,
		"gossip.compile_gen_ms":          med("gossip.compile_gen"),
		"systolic.program_gen_ms":        progMs,
		"gossip.csr_arcs_per_s":          csrVisits / (csrMs / 1e3),
		"gossip.gen_arcs_per_s":          genVisits / (genMs / 1e3),
		"gossip.program_arcs_per_s":      float64(programArcs) / (progMs / 1e3),
		"gossip.gen_over_csr_ns_per_arc": (genMs / genVisits) / (csrMs / csrVisits),
		"gossip.scan_rounds":             float64(csrRounds[0] + genRounds[0]),
		"gossip.program_arcs":            float64(programArcs),
		"runtime.gc_cycles":              float64(mem.gcs),
		"trace.overhead_ms":              med("scan.op") - median(untraced),
	})
}
