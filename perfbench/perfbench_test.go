package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net/http"
	"os"
	"slices"
	"sort"
	"testing"

	"repro/internal/delay"
	"repro/internal/matrix"
	"repro/systolic"
)

var update = flag.Bool("update", false, "rewrite the pins in pool.json from the library")

// powerIterations replays the library's power iteration for ‖m‖₂ (the
// arithmetic of matrix.(*CSR).Norm2Scratch at the time the pool was
// pinned) and returns the step count and the norm it reaches; 10000 steps
// is the library's cap. It only counts steps for the pins: the library
// is free to solve the norm differently.
func powerIterations(m *matrix.CSR) (int, float64) {
	x := make(matrix.Vector, m.Cols())
	y := make(matrix.Vector, m.Cols())
	t := make(matrix.Vector, m.Rows())
	for i := range x {
		x[i] = 1 + float64(i%7)/8
	}
	if err := x.Normalize(); err != nil {
		return 0, 0
	}
	prev := -1.0
	for iter := 1; iter <= 10000; iter++ {
		m.MulVecTo(t, x)
		m.TransposeMulVecTo(y, t)
		lambda := x.Dot(y)
		ny := y.Norm2()
		if ny == 0 {
			return iter, 0
		}
		y.Scale(1 / ny)
		x, y = y, x
		if prev >= 0 && math.Abs(lambda-prev) <= 1e-12*(1+math.Abs(lambda)) {
			return iter, math.Sqrt(lambda)
		}
		prev = lambda
	}
	return 10000, math.Sqrt(prev)
}

// TestPoolPins certifies every pool instance through the library and
// checks its certificate against the pins as the benchmark does (the norm
// within normTol). With -update it rewrites the pins, counting each
// norm's power-iteration steps with the replica above.
func TestPoolPins(t *testing.T) {
	pool, err := loadPool()
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) < 100 {
		t.Fatalf("pool has %d instances, want at least 100", len(pool))
	}
	seen := make(map[string]bool)
	families := make(map[string]bool)
	capped := 0
	for i, in := range pool {
		if seen[in.label()] {
			t.Fatalf("%s appears twice", in.label())
		}
		seen[in.label()] = true
		families[in.Kind] = true
		params, err := in.paramList()
		if err != nil {
			t.Fatal(err)
		}
		net, err := systolic.New(in.Kind, params...)
		if err != nil {
			t.Fatalf("%s: %v", in.label(), err)
		}
		p, err := systolic.NewProtocol(in.Protocol, net, systolic.DefaultRoundBudget)
		if err != nil {
			t.Fatalf("%s: %v", in.label(), err)
		}
		c, err := systolic.Certify(context.Background(), net, p)
		if err != nil {
			t.Fatalf("%s: %v", in.label(), err)
		}
		if !*update {
			body, _ := json.Marshal(certEnvelope{Report: *c})
			if _, err := checkCert(in, http.StatusOK, body); err != nil {
				t.Error(err)
			}
			if in.Iterations == 10000 {
				capped++
			}
			continue
		}
		iters := 0
		if c.NormChecked {
			plan, err := delay.NewPlan(net.G, p)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := plan.Instance(c.Measured)
			if err != nil {
				t.Fatal(err)
			}
			var norm float64
			iters, norm = powerIterations(inst.Matrix(c.Lambda))
			if norm != c.NormAtRoot {
				t.Logf("%s: the replica's norm %v differs from the library's %v; its step count is the replica's", in.label(), norm, c.NormAtRoot)
			}
		}
		if iters == 10000 {
			capped++
		}
		pool[i] = instance{Kind: in.Kind, Params: in.Params, Protocol: in.Protocol, Rounds: c.Measured,
			Verts: c.DelayVerts, Arcs: c.DelayArcs, Norm: c.NormAtRoot, NormChecked: c.NormChecked, Iterations: iters}
	}
	if len(families) < 6 {
		t.Errorf("pool spans %d families, want at least 6", len(families))
	}
	if capped == 0 {
		t.Error("no pool instance hits the power-iteration cap")
	}
	t.Logf("%d instances, %d families, %d at the power-iteration cap", len(pool), len(families), capped)
	if *update {
		writePool(t, pool)
	}
}

// writePool writes pool.json one instance per line.
func writePool(t *testing.T, pool []instance) {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, in := range pool {
		line, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		if i < len(pool)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	if err := os.WriteFile("pool.json", b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// metricNames returns the sorted names of a metric table.
func metricNames(table []struct{ name, unit string }) []string {
	out := make([]string, len(table))
	for i, m := range table {
		out[i] = m.name
	}
	sort.Strings(out)
	return out
}

// smoke runs one workload at a tiny size and checks that every op passed
// and the metric set is complete.
func smoke(t *testing.T, trace bool, run func(config, *tally) (map[string]metric, error)) {
	t.Helper()
	cfg := config{seed: 7, seconds: 0.05, trace: trace, outDir: t.TempDir(), log: io.Discard}
	var tl tally
	m, err := run(cfg, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if tl.attempted == 0 || tl.failed != 0 {
		t.Fatalf("attempted %d, failed %d: %v", tl.attempted, tl.failed, tl.reasons)
	}
	want := metricNames(endToEnd)
	if trace {
		want = metricNames(perLayer)
	}
	if got := sortedNames(m); !slices.Equal(got, want) {
		t.Fatalf("metrics %v, want %v", got, want)
	}
}

// smokePool is a handful of the pool's cheapest instances.
func smokePool(t *testing.T) []instance {
	pool, err := loadPool()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].Arcs < pool[j].Arcs })
	return pool[:4]
}

func TestSmoke(t *testing.T) {
	for _, trace := range []bool{false, true} {
		name := map[bool]string{false: "timed", true: "traced"}[trace]
		t.Run("certify-cold/"+name, func(t *testing.T) {
			pool := smokePool(t)
			smoke(t, trace, func(cfg config, tl *tally) (map[string]metric, error) { return certifyCold(cfg, tl, pool) })
		})
		t.Run("serve-hot/"+name, func(t *testing.T) { smoke(t, trace, runServeHot) })
		t.Run("scan-scale/"+name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("builds hypercube d=17 three times")
			}
			smoke(t, trace, runScanScale)
		})
	}
}

func TestChecksCatchBadReplies(t *testing.T) {
	in := smokePool(t)[0]
	good := func() certEnvelope {
		return certEnvelope{Report: systolic.Certificate{
			Complete: true, Measured: in.Rounds, DelayVerts: in.Verts, DelayArcs: in.Arcs,
			NormAtRoot: in.Norm, NormChecked: in.NormChecked, NormRespected: in.NormChecked, TheoremRespected: true,
		}}
	}
	for name, corrupt := range map[string]func(*certEnvelope){
		"intact":         func(*certEnvelope) {},
		"cached":         func(e *certEnvelope) { e.Cached = true },
		"rounds":         func(e *certEnvelope) { e.Report.Measured++ },
		"arcs":           func(e *certEnvelope) { e.Report.DelayArcs-- },
		"norm":           func(e *certEnvelope) { e.Report.NormAtRoot += 2 * normTol },
		"incomplete":     func(e *certEnvelope) { e.Report.Complete = false },
		"theorem broken": func(e *certEnvelope) { e.Report.TheoremRespected = false },
	} {
		env := good()
		corrupt(&env)
		body, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		_, err = checkCert(in, http.StatusOK, body)
		if (err == nil) != (name == "intact") {
			t.Errorf("certify reply %s: check returned %v", name, err)
		}
	}
	if _, err := checkCert(in, http.StatusInternalServerError, []byte(`{"error":"boom"}`)); err == nil {
		t.Error("certify: a 500 passed the check")
	}

	primed := []byte(`{"key": "k", "cached": true, "report": {"rounds": 6}}`)
	value := hotSet[0]
	if err := checkHot(value, primed, http.StatusOK, http.Header{}, primed); err != nil {
		t.Errorf("intact hot reply: %v", err)
	}
	corrupted := bytes.Replace(primed, []byte("6"), []byte("7"), 1)
	if err := checkHot(value, primed, http.StatusOK, http.Header{}, corrupted); err == nil {
		t.Error("a corrupted hot reply passed the check")
	}
	var sweep, metrics hotReq
	for _, r := range hotSet {
		switch r.path {
		case "/v1/sweep":
			sweep = r
		case "/metrics":
			metrics = r
		}
	}
	if err := checkHot(sweep, primed, http.StatusOK, http.Header{}, primed); err == nil {
		t.Error("a sweep reply without the cache header passed the check")
	}
	if err := checkHot(metrics, nil, http.StatusOK, http.Header{}, []byte("gossipd_requests_total 3\n")); err == nil {
		t.Error("a /metrics reply without the cache-hit counter passed the check")
	}

	rep := &systolic.BroadcastAllReport{Network: "hypercube(17)", Sources: []int{3, 9}, Rounds: []int{17, 17}}
	if err := checkEcc(rep, scanCSRDim); err != nil {
		t.Errorf("intact scan: %v", err)
	}
	rep.Rounds[1] = 16
	if err := checkEcc(rep, scanCSRDim); err == nil {
		t.Error("a wrong eccentricity passed the check")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics the program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !slices.Equal(names, sortedNames(workloads)) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, sortedNames(workloads))
	}
	for _, c := range []struct {
		decl  []struct{ Name, Unit string }
		table []struct{ name, unit string }
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.decl) != len(c.table) {
			t.Errorf("BENCHMARK.json declares %d metrics, program %d", len(c.decl), len(c.table))
			continue
		}
		for i, m := range c.table {
			if c.decl[i].Name != m.name || c.decl[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, c.decl[i].Name, c.decl[i].Unit, m.name, m.unit)
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-hot", "--trace", "2"},
		{"--workload", "serve-hot", "--seconds", "0"},
	} {
		out.Reset()
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
