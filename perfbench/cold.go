package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/delay"
	"repro/systolic"
)

// poolJSON is the certify-cold pool with its pinned certificates. The
// instances span eleven families and the four periodic/round-robin
// protocols; TestPoolPins checks every pin against the library and
// rewrites them under -update.
//
//go:embed pool.json
var poolJSON []byte

// normTol is how far a served ‖M(λ₀)‖ may sit from its pin. Most
// instances' power iterations converge to 1e-12; the ones that stop at the
// 10 000-step cap return an estimate from below, so the tolerance leaves
// room for a better solver without letting a wrong certificate through.
const normTol = 1e-3

// instance is one certify-cold request and the certificate fields its
// reply must reproduce.
type instance struct {
	Kind        string         `json:"kind"`
	Params      map[string]int `json:"params"`
	Protocol    string         `json:"protocol"`
	Rounds      int            `json:"rounds"`
	Verts       int            `json:"verts"`
	Arcs        int            `json:"arcs"`
	Norm        float64        `json:"norm"`
	NormChecked bool           `json:"norm_checked"`
	// Iterations is the power-iteration step count behind Norm, counted by
	// the pin test's replica of the solver; 10000 means the cap was hit.
	Iterations int `json:"iterations"`
}

func loadPool() ([]instance, error) {
	var pool []instance
	if err := json.Unmarshal(poolJSON, &pool); err != nil {
		return nil, fmt.Errorf("pool.json: %w", err)
	}
	return pool, nil
}

// paramNames returns the instance's parameter names in sorted order.
func (in instance) paramNames() []string {
	names := make([]string, 0, len(in.Params))
	for n := range in.Params {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (in instance) label() string {
	names := in.paramNames()
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, in.Params[n])
	}
	return fmt.Sprintf("%s(%s)/%s", in.Kind, strings.Join(parts, ","), in.Protocol)
}

// body is the POST /v1/certify request: default budget, no scenario.
func (in instance) body() []byte {
	b, _ := json.Marshal(map[string]any{"kind": in.Kind, "params": in.Params, "protocol": in.Protocol})
	return b
}

func (in instance) paramList() ([]systolic.Param, error) {
	ctors := map[string]func(int) systolic.Param{
		systolic.ParamNodes: systolic.Nodes, systolic.ParamDegree: systolic.Degree,
		systolic.ParamDiameter: systolic.Diameter, systolic.ParamDimension: systolic.Dimension,
		systolic.ParamRows: systolic.Rows, systolic.ParamCols: systolic.Cols, systolic.ParamDepth: systolic.Depth,
	}
	var list []systolic.Param
	for _, n := range in.paramNames() {
		ctor, ok := ctors[n]
		if !ok {
			return nil, fmt.Errorf("%s: unknown parameter %q", in.label(), n)
		}
		list = append(list, ctor(in.Params[n]))
	}
	return list, nil
}

// certEnvelope is the /v1/certify reply.
type certEnvelope struct {
	Cached bool                 `json:"cached"`
	Report systolic.Certificate `json:"report"`
}

// checkCert checks one reply against the instance's pins: a cache miss,
// exact rounds and delay-digraph size, the norm within normTol, a complete
// run and Theorem 4.1 (and the norm cap, where one applies) respected.
func checkCert(in instance, status int, body []byte) (*systolic.Certificate, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", in.label(), status, body)
	}
	var env certEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fmt.Errorf("%s: %w", in.label(), err)
	}
	c := &env.Report
	switch {
	case env.Cached:
		return nil, fmt.Errorf("%s: reply came from the result cache", in.label())
	case c.Measured != in.Rounds || c.DelayVerts != in.Verts || c.DelayArcs != in.Arcs:
		return nil, fmt.Errorf("%s: rounds/verts/arcs %d/%d/%d, pinned %d/%d/%d",
			in.label(), c.Measured, c.DelayVerts, c.DelayArcs, in.Rounds, in.Verts, in.Arcs)
	case c.NormChecked != in.NormChecked || math.Abs(c.NormAtRoot-in.Norm) > normTol:
		return nil, fmt.Errorf("%s: norm %v (checked %v), pinned %v (checked %v)",
			in.label(), c.NormAtRoot, c.NormChecked, in.Norm, in.NormChecked)
	case !c.Complete || !c.TheoremRespected || (c.NormChecked && !c.NormRespected):
		return nil, fmt.Errorf("%s: complete=%v theorem_respected=%v norm_respected=%v",
			in.label(), c.Complete, c.TheoremRespected, c.NormRespected)
	}
	return c, nil
}

// coldWarmup is certified once per fresh server during set-up; it is not
// in the pool, so the pool's requests still miss every cache.
var coldWarmup = instance{Kind: "torus", Params: map[string]int{"rows": 12, "cols": 12}, Protocol: "periodic-full"}

// startColdServer is certify-cold's set-up: a fresh server, its keep-alive
// connection, and one warm-up certification.
func startColdServer(wrap func(http.Handler) http.Handler) (*server, error) {
	s, err := startServer(wrap)
	if err != nil {
		return nil, err
	}
	status, _, body, err := s.do(http.MethodPost, "/v1/certify", coldWarmup.body(), "")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("warm-up certify: status %d: %.200s", status, body)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// coldPass sends every pool instance once, in order, to s and returns the
// client-side latencies in milliseconds. With rec set, each request is a
// traced process.http span whose id the handler wrapper picks up.
func coldPass(s *server, pool []instance, bodies [][]byte, order []int, t *tally, rec *recorder, certs []*systolic.Certificate) []float64 {
	lat := make([]float64, 0, len(order))
	for pos, i := range order {
		var sid string
		var cs int
		if rec != nil {
			cs = rec.begin(pos+1, 0, "process.http")
			sid = spanID(pos+1, cs)
		}
		t0 := time.Now()
		status, _, body, err := s.do(http.MethodPost, "/v1/certify", bodies[i], sid)
		d := time.Since(t0)
		if rec != nil {
			rec.end(cs)
		}
		lat = append(lat, ms(d))
		if err != nil {
			t.fail("%s: %v", pool[i].label(), err)
			continue
		}
		c, err := checkCert(pool[i], status, body)
		t.check(err)
		if certs != nil {
			certs[pos] = c
		}
	}
	return lat
}

// coldInputs records a run's generated inputs so it can be replayed.
type coldInputs struct {
	Seed      int64    `json:"seed"`
	Instances []string `json:"instances"`
	// Orders holds one permutation of Instances per pass.
	Orders [][]int `json:"orders"`
}

// runCertifyCold: every pass starts a fresh server and certifies each pool
// instance once in a seeded order, so every request misses the result,
// program and delay-plan caches. Passes repeat until the time is spent;
// ops_per_s is the median of per-pass rates.
func runCertifyCold(cfg config, t *tally) (map[string]metric, error) {
	pool, err := loadPool()
	if err != nil {
		return nil, err
	}
	return certifyCold(cfg, t, pool)
}

// certifyCold runs the workload over the given pool (tests pass a small
// one).
func certifyCold(cfg config, t *tally, pool []instance) (map[string]metric, error) {
	bodies := make([][]byte, len(pool))
	inputs := coldInputs{Seed: cfg.seed}
	for i, in := range pool {
		bodies[i] = in.body()
		inputs.Instances = append(inputs.Instances, in.label())
	}
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 1))
	if cfg.trace {
		order := rng.Perm(len(pool))
		inputs.Orders = [][]int{order}
		if err := writeJSON(cfg, fmt.Sprintf("certify-cold-seed%d-trace-inputs.json", cfg.seed), inputs); err != nil {
			return nil, err
		}
		return traceCertifyCold(cfg, t, pool, bodies, order)
	}
	var lat, setups []float64
	start := time.Now()
	for {
		order := rng.Perm(len(pool))
		inputs.Orders = append(inputs.Orders, order)
		var s *server
		setup, err := timed(func() (err error) {
			s, err = startColdServer(nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		passStart := time.Now()
		lat = append(lat, coldPass(s, pool, bodies, order, t, nil, nil)...)
		pass := time.Since(passStart).Seconds()
		s.close()
		// Stop when the time is spent, or when one more pass would overrun
		// it by more than 15 %.
		if el := time.Since(start).Seconds(); el >= cfg.seconds || el+pass > cfg.seconds*1.15 {
			break
		}
	}
	if err := writeJSON(cfg, fmt.Sprintf("certify-cold-seed%d-inputs.json", cfg.seed), inputs); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "certify-cold: %d passes of %d instances, per-pass rates %.4g/s\n", len(inputs.Orders), len(pool), windowRates(lat, len(pool)))
	return e2e(lat, median(windowRates(lat, len(pool))), median(setups))
}

// coldParts are the layer calls of one cold certification, in the order
// the serve compute path makes them.
var coldParts = []string{
	"topology.build", "protocols.build", "gossip.compile", "delay.plan",
	"gossip.simulate", "bounds.evaluate", "delay.instance", "matrix.norm",
}

// replayed is what the external replay of one instance measured.
type replayed struct {
	rounds, verts, arcs int
	norm                float64
}

// replayCert certifies in outside the server by calling each layer's
// public function in the serve compute path's order, one span per call.
// The bound period and the norm's root λ₀ come from the served
// certificate c.
func replayCert(rec *recorder, req int, in instance, c *systolic.Certificate) (replayed, error) {
	var r replayed
	params, err := in.paramList()
	if err != nil {
		return r, err
	}
	root := rec.begin(req, 0, "replay")
	defer rec.end(root)
	step := func(name string, f func() error) error {
		if err := rec.do(req, root, name, f); err != nil {
			return fmt.Errorf("%s: %s: %w", in.label(), name, err)
		}
		return nil
	}
	var (
		net  *systolic.Network
		p    *systolic.Protocol
		pr   *systolic.Program
		plan *delay.Plan
		inst *delay.Instance
	)
	if err := step("topology.build", func() (err error) {
		net, err = systolic.New(in.Kind, params...)
		return err
	}); err != nil {
		return r, err
	}
	if err := step("protocols.build", func() (err error) {
		p, err = systolic.NewProtocol(in.Protocol, net, systolic.DefaultRoundBudget)
		return err
	}); err != nil {
		return r, err
	}
	if err := step("gossip.compile", func() (err error) {
		pr, err = systolic.CompileProtocol(net, p)
		return err
	}); err != nil {
		return r, err
	}
	// (*systolic.Program).DelayPlan runs NewPlanValidated: the program's
	// schedule was validated when it compiled.
	if err := step("delay.plan", func() (err error) {
		plan, err = delay.NewPlanValidated(net.G, p)
		return err
	}); err != nil {
		return r, err
	}
	if err := step("gossip.simulate", func() error {
		sess, err := systolic.NewEngineFromProgram(pr, systolic.WithRoundBudget(systolic.DefaultRoundBudget))
		if err != nil {
			return err
		}
		defer sess.Close()
		res, err := sess.Run(context.Background())
		r.rounds = res.Rounds
		return err
	}); err != nil {
		return r, err
	}
	// A certificate's period is 0 for a non-systolic protocol, whose bound
	// is the s→∞ one.
	period := c.Period
	if period == 0 {
		period = systolic.NonSystolic
	}
	if err := step("bounds.evaluate", func() error {
		systolic.Evaluate(net, systolic.Request{Mode: p.Mode, Period: period})
		return nil
	}); err != nil {
		return r, err
	}
	if err := step("delay.instance", func() (err error) {
		inst, err = plan.Instance(r.rounds)
		return err
	}); err != nil {
		return r, err
	}
	r.verts, r.arcs = inst.Verts(), inst.Arcs()
	if c.Lambda > 0 {
		if err := step("matrix.norm", func() error {
			r.norm = inst.Norm(c.Lambda)
			return nil
		}); err != nil {
			return r, err
		}
	}
	return r, nil
}

// traceCertifyCold replays the run's first seeded order twice: once
// untraced on a fresh server (the baseline for tracing overhead and the
// runtime counters), then traced on another fresh server, each request
// followed by an external replay of the same certification whose spans
// split its time by layer.
func traceCertifyCold(cfg config, t *tally, pool []instance, bodies [][]byte, order []int) (map[string]metric, error) {
	s, err := startColdServer(nil)
	if err != nil {
		return nil, err
	}
	mark := markMem()
	untraced := coldPass(s, pool, bodies, order, t, nil, nil)
	mem := mark.since()
	s.close()

	rec := newRecorder()
	s, err = startColdServer(traceHandler(rec))
	if err != nil {
		return nil, err
	}
	before := s.srv.Metrics().Snapshot()
	certs := make([]*systolic.Certificate, len(order))
	traced := coldPass(s, pool, bodies, order, t, rec, certs)
	after := s.srv.Metrics().Snapshot()
	s.close()

	var arcs, verts, rounds int
	for pos, i := range order {
		if certs[pos] == nil {
			// The served reply already failed its check.
			continue
		}
		r, err := replayCert(rec, pos+1, pool[i], certs[pos])
		if err == nil && (r.norm != certs[pos].NormAtRoot || r.rounds != certs[pos].Measured ||
			r.verts != certs[pos].DelayVerts || r.arcs != certs[pos].DelayArcs) {
			err = fmt.Errorf("%s: external replay gave rounds/verts/arcs/norm %d/%d/%d/%v, server %d/%d/%d/%v",
				pool[i].label(), r.rounds, r.verts, r.arcs, r.norm,
				certs[pos].Measured, certs[pos].DelayVerts, certs[pos].DelayArcs, certs[pos].NormAtRoot)
		}
		t.check(err)
		arcs += r.arcs
		verts += r.verts
		rounds += r.rounds
	}

	spans := rec.snapshot()
	if err := writeSpans(cfg, fmt.Sprintf("certify-cold-seed%d-spans.jsonl", cfg.seed), spans); err != nil {
		return nil, err
	}
	dur := layerTimes(spans, false)
	self := layerTimes(spans, true)
	total := sum(values(dur["process.http"]))
	v := map[string]float64{
		"process.http_ms":          median(values(self["process.http"])),
		"delay.arcs_total":         float64(arcs),
		"delay.verts_total":        float64(verts),
		"gossip.rounds_total":      float64(rounds),
		"serve.cache_misses":       float64(after.CacheMisses - before.CacheMisses),
		"serve.program_misses":     float64(after.ProgramMisses - before.ProgramMisses),
		"serve.plan_misses":        float64(after.PlanMisses - before.PlanMisses),
		"runtime.gc_cycles":        float64(mem.gcs),
		"runtime.alloc_mib_per_op": float64(mem.bytes) / float64(len(order)) / (1 << 20),
		"trace.overhead_ms":        median(traced) - median(untraced),
	}
	for _, part := range coldParts {
		v[part+"_ms"] = median(values(dur[part]))
		v[part+"_share"] = 100 * sum(values(dur[part])) / total
	}
	// serve.self is what the handler spent outside the layer calls: its
	// span minus the external replay's parts for the same instance.
	var serveSelf []float64
	for req, h := range dur["serve.handler"] {
		parts := 0.0
		for _, part := range coldParts {
			parts += dur[part][req]
		}
		serveSelf = append(serveSelf, h-parts)
	}
	v["serve.self_ms"] = median(serveSelf)
	return layerMetrics(v)
}
