package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"repro/internal/par"
	"repro/systolic/serve"
)

// loadtestMix is the request workload: a rotation of small, fast analyses
// and certifications, two Monte-Carlo scenario certifications, a
// single-source broadcast, and two broadcast scans (all sources and a
// subset), so a run exercises cold simulations, the certification pipeline
// (program + delay-plan caches), the scenario trial fan-out, the packed
// scan kernel and (heavily) the result cache/dedup path. Bodies are
// pre-marshaled JSON.
var loadtestMix = []struct {
	path string
	body string
}{
	{"/v1/analyze", `{"kind":"debruijn","params":{"degree":2,"diameter":4},"protocol":"periodic-half"}`},
	{"/v1/analyze", `{"kind":"debruijn","params":{"degree":2,"diameter":5},"protocol":"periodic-half"}`},
	{"/v1/certify", `{"kind":"debruijn","params":{"degree":2,"diameter":5},"protocol":"periodic-half"}`},
	{"/v1/analyze", `{"kind":"kautz","params":{"degree":2,"diameter":3},"protocol":"periodic-full"}`},
	{"/v1/analyze", `{"kind":"kautz","params":{"degree":2,"diameter":4},"protocol":"periodic-full"}`},
	{"/v1/certify", `{"kind":"kautz","params":{"degree":2,"diameter":4},"protocol":"periodic-full"}`},
	{"/v1/analyze", `{"kind":"hypercube","params":{"dimension":4},"protocol":"hypercube"}`},
	{"/v1/analyze", `{"kind":"hypercube","params":{"dimension":5},"protocol":"hypercube"}`},
	{"/v1/certify", `{"kind":"hypercube","params":{"dimension":5},"protocol":"hypercube"}`},
	{"/v1/analyze", `{"kind":"complete","params":{"nodes":16},"protocol":"doubling"}`},
	{"/v1/certify", `{"kind":"debruijn","params":{"degree":2,"diameter":4},"protocol":"periodic-half","scenario":{"loss":0.05,"seed":1,"trials":16}}`},
	{"/v1/certify", `{"kind":"hypercube","params":{"dimension":5},"protocol":"hypercube","scenario":{"loss":0.1,"seed":2,"crashes":[{"node":1,"from":0,"to":4}],"trials":16}}`},
	{"/v1/broadcast", `{"kind":"hypercube","params":{"dimension":5},"source":0}`},
	{"/v1/broadcast", `{"kind":"hypercube","params":{"dimension":7},"sources":{"all":true}}`},
	{"/v1/broadcast", `{"kind":"debruijn","params":{"degree":2,"diameter":6},"sources":{"list":[0,7,31,63]}}`},
	{"/v1/sweep", `{"jobs":[{"kind":"debruijn","params":{"degree":2,"diameter":4},"protocol":"periodic-half"},{"kind":"kautz","params":{"degree":2,"diameter":3},"protocol":"periodic-full"}]}`},
}

// runLoadtest hammers base (or an in-process server when base is empty)
// with the mixed workload for the given duration and reports client-side
// latency percentiles plus, in-process, the server's own cache statistics.
// It fails when more than 1% of requests error — the contract the CI smoke
// step relies on.
func runLoadtest(cfg serve.Config, base string, duration time.Duration, concurrency int) error {
	if concurrency < 1 {
		concurrency = 1
	}
	client := http.DefaultClient
	var srv *serve.Server
	if base == "" {
		var err error
		srv, err = serve.New(cfg)
		if err != nil {
			return err
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Close()
		base = ts.URL
		client = ts.Client()
	}

	type worker struct {
		lat    []time.Duration
		errors int
	}
	workers := make([]worker, concurrency)
	deadline := time.Now().Add(duration)
	// One closed-loop client per index; each runs until the deadline.
	par.Each(concurrency, concurrency, func(_, w int) bool {
		me := &workers[w]
		for i := w; time.Now().Before(deadline); i++ {
			req := loadtestMix[i%len(loadtestMix)]
			start := time.Now()
			resp, err := client.Post(base+req.path, "application/json", bytes.NewReader([]byte(req.body)))
			if err != nil {
				me.errors++
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				me.errors++
				continue
			}
			me.lat = append(me.lat, time.Since(start))
		}
		return true
	})

	var all []time.Duration
	errors := 0
	for _, w := range workers {
		all = append(all, w.lat...)
		errors += w.errors
	}
	total := len(all) + errors
	if total == 0 {
		return fmt.Errorf("loadtest: no requests completed in %v", duration)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		idx := int(p * float64(len(all)-1))
		return all[idx]
	}
	fmt.Fprintf(os.Stdout, "gossipd loadtest: %d requests in %v (%d ok, %d errors, %.0f req/s, %d clients)\n",
		total, duration, len(all), errors, float64(total)/duration.Seconds(), concurrency)
	fmt.Fprintf(os.Stdout, "latency: p50 %v  p95 %v  p99 %v  max %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))
	if srv != nil {
		snap := srv.Metrics().Snapshot()
		fmt.Fprintf(os.Stdout, "server: cache hit ratio %.3f, %d simulations, %d dedup shares, %d rounds simulated, %d rejected\n",
			snap.HitRatio(), snap.Simulations, snap.DedupShared, snap.Rounds, snap.Rejected)
		fmt.Fprintf(os.Stdout, "programs: %d compiled, %d reused from the program cache\n",
			snap.ProgramMisses, snap.ProgramHits)
		fmt.Fprintf(os.Stdout, "delay plans: %d compiled, %d reused from the plan cache\n",
			snap.PlanMisses, snap.PlanHits)
		fmt.Fprintf(os.Stdout, "scenarios: %d Monte-Carlo trials (%d truncated), %.0f trials/s\n",
			snap.ScenarioTrials, snap.ScenarioTruncated,
			float64(snap.ScenarioTrials)/duration.Seconds())
		fmt.Fprintf(os.Stdout, "broadcast scans: %d sources measured, %.0f sources/s\n",
			snap.BroadcastSources, float64(snap.BroadcastSources)/duration.Seconds())
	}
	if float64(errors) > 0.01*float64(total) {
		return fmt.Errorf("loadtest: %d/%d requests failed", errors, total)
	}
	return nil
}
