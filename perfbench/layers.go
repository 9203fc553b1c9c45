package main

import (
	"fmt"
	"sort"
)

// endToEnd lists the metrics every timed run (-trace 0) reports.
var endToEnd = []struct{ name, unit string }{
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
	{"setup_s", "s"},
}

// perLayer lists the metrics every traced run (-trace 1) reports, named
// <layer>.<quantity> after the module doing the work. Each workload's
// traced run measures the layers that workload exercises; a layer it does
// not exercise reads 0, which is the prediction the README's interaction
// list makes for it.
var perLayer = []struct{ name, unit string }{
	// certify-cold: medians per request and shares of summed request time.
	{"topology.build_ms", "ms"}, {"topology.build_share", "%"},
	{"protocols.build_ms", "ms"}, {"protocols.build_share", "%"},
	{"gossip.compile_ms", "ms"}, {"gossip.compile_share", "%"},
	{"delay.plan_ms", "ms"}, {"delay.plan_share", "%"},
	{"gossip.simulate_ms", "ms"}, {"gossip.simulate_share", "%"},
	{"bounds.evaluate_ms", "ms"}, {"bounds.evaluate_share", "%"},
	{"delay.instance_ms", "ms"}, {"delay.instance_share", "%"},
	{"matrix.norm_ms", "ms"}, {"matrix.norm_share", "%"},
	{"serve.self_ms", "ms"},
	{"process.http_ms", "ms"},
	// certify-cold exact counts, summed over one pass of the pool.
	{"delay.arcs_total", "count"},
	{"delay.verts_total", "count"},
	{"gossip.rounds_total", "count"},
	{"serve.cache_misses", "count"},
	{"serve.program_misses", "count"},
	{"serve.plan_misses", "count"},
	{"runtime.alloc_mib_per_op", "MiB"},
	// serve-hot.
	{"serve.handler_us", "us"},
	{"process.http_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.bytes_per_response", "B"},
	{"runtime.allocs_per_req", "count"},
	{"runtime.alloc_kib_per_req", "KiB"},
	// scan-scale.
	{"topology.build_s", "s"},
	{"graph.lower_ms", "ms"},
	{"systolic.scan_csr_ms", "ms"},
	{"systolic.scan_gen_ms", "ms"},
	{"gossip.compile_gen_ms", "ms"},
	{"systolic.program_gen_ms", "ms"},
	{"gossip.csr_arcs_per_s", "1/s"},
	{"gossip.gen_arcs_per_s", "1/s"},
	{"gossip.program_arcs_per_s", "1/s"},
	{"gossip.gen_over_csr_ns_per_arc", "ratio"},
	{"gossip.scan_rounds", "count"},
	{"gossip.program_arcs", "count"},
	// every workload.
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_ms", "ms"},
}

// layerMetrics turns a traced run's measured values into the full
// per-layer metric set, with zeros for layers the workload does not
// exercise. A name outside perLayer is a bug in the benchmark.
func layerMetrics(v map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{v[m.name], m.unit}
	}
	for _, name := range sortedNames(v) {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %q is not declared", name)
		}
	}
	return out, nil
}

// sortedNames returns the map's keys in sorted order.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
