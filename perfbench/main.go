// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process against the gossip analysis stack and prints, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (latency percentiles,
// windowed throughput, peak RSS, set-up time); with -trace 1 the run is a
// separate traced replay that reports per-layer times, shares and exact
// counts, timed by spans recorded around calls into each layer's public
// functions. README.md documents the workloads, the metrics and the layer
// map. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload certify-cold --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations and keeps the first few
// failure reasons for the report.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.reasons) < 5 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// check records one operation: a nil error counts as a success, anything
// else as a failure carrying its reason.
func (t *tally) check(err error) {
	if err != nil {
		t.fail("%v", err)
		return
	}
	t.attempted++
}

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// outDir receives the run's recorded inputs and, when tracing, its
	// spans. It lies inside the checkout the benchmark runs from.
	outDir string
	log    io.Writer
}

// workload runs one workload and fills in the result's metrics.
type workload func(cfg config, t *tally) (map[string]metric, error)

var workloads = map[string]workload{
	"certify-cold": runCertifyCold,
	"serve-hot":    runServeHot,
	"scan-scale":   runScanScale,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: certify-cold, serve-hot or scan-scale")
	seed := fs.Int64("seed", 1, "workload seed: instance order, scan sources and the hot mix derive from it")
	seconds := fs.Float64("seconds", 30, "how long the timed part of a run measures")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer replay instead of the timed run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for recorded inputs and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload %s, -trace 0|1 and -seconds > 0\n", strings.Join(sortedNames(workloads), "|"))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out, log: stdout}
	var t tally
	metrics, err := w(cfg, &t)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, r := range t.reasons {
		fmt.Fprintf(stderr, "perfbench: %s: failed op: %s\n", *name, r)
	}
	if t.attempted == 0 {
		fmt.Fprintf(stderr, "perfbench: %s: no operation ran\n", *name)
		return 1
	}
	printTable(stdout, *name, cfg.trace, metrics)
	line, err := json.Marshal(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// printTable prints the metrics by name with their units, ahead of the
// JSON line.
func printTable(w io.Writer, name string, traced bool, metrics map[string]metric) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "%s — %s metrics\n", name, kind)
	for _, n := range sortedNames(metrics) {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

// writeJSON records v under the run's output directory.
func writeJSON(cfg config, file string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, file), append(b, '\n'), 0o644)
}

// quiesce collects garbage and returns freed memory to the OS, so timed
// set-up starts from the same heap state on every run and no collection
// left over from earlier work lands inside it.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
}

// timed runs f after quiesce and returns its wall time in seconds.
func timed(f func() error) (float64, error) {
	quiesce()
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}
