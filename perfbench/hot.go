package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"
)

// hotReq is one request of the serve-hot set: a POST of body to path, or
// a GET when body is empty.
type hotReq struct {
	path string
	body string
}

func (r hotReq) method() string {
	if r.body == "" {
		return http.MethodGet
	}
	return http.MethodPost
}

func (r hotReq) label() string { return r.path + " " + r.body }

// hotSet is the serve-hot mix. The first sixteen requests are the
// rotation of gossipd's own load test (loadtestMix in
// cmd/gossipd/loadtest.go), body for body and in its equal weights:
// small analyses and certifications, two Monte-Carlo scenario
// certifications, a single-source broadcast, an all-sources and a subset
// broadcast scan, and a two-job sweep. Two requests that mix lacks ride
// along once per deck: an all-sources scan whose reply is ~10 KB, and a
// GET /metrics. Every POST is primed during set-up, so each replay is a
// result-cache hit; /metrics is the one uncached endpoint.
var hotSet = []hotReq{
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
	{"/v1/broadcast", `{"kind":"hypercube","params":{"dimension":10},"sources":{"all":true}}`},
	{"/metrics", ""},
}

// hotWindowDecks is how many decks one throughput window holds (252
// requests).
const hotWindowDecks = 14

// hotServer is a primed serve-hot server: the request bodies, and the hit
// body of every cached request, byte for byte.
type hotServer struct {
	*server
	bodies, primed [][]byte
}

// checkHot checks one replay: status 200, and for cached requests the
// exact primed body (plus the sweep's cache header); /metrics must carry
// the cache-hit counter.
func checkHot(r hotReq, primed []byte, status int, hdr http.Header, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", r.label(), status, body)
	}
	if r.method() == http.MethodGet {
		if !bytes.Contains(body, []byte("gossipd_cache_hits_total")) {
			return fmt.Errorf("%s: no gossipd_cache_hits_total in the reply", r.label())
		}
		return nil
	}
	if r.path == "/v1/sweep" && hdr.Get("X-Gossipd-Cached") != "true" {
		return fmt.Errorf("%s: sweep reply was not a cache replay", r.label())
	}
	if !bytes.Equal(body, primed) {
		return fmt.Errorf("%s: reply differs from the primed reply (%d vs %d bytes)", r.label(), len(body), len(primed))
	}
	return nil
}

// primeHot starts a fresh server and sends every cached request twice:
// the first computes (a miss), the second must come from the cache, and
// its body becomes the reference every replay must equal.
func primeHot(wrap func(http.Handler) http.Handler) (*hotServer, error) {
	s, err := startServer(wrap)
	if err != nil {
		return nil, err
	}
	hs := &hotServer{server: s, bodies: make([][]byte, len(hotSet)), primed: make([][]byte, len(hotSet))}
	for i, r := range hotSet {
		if r.method() == http.MethodGet {
			continue
		}
		hs.bodies[i] = []byte(r.body)
		for pass := 0; pass < 2; pass++ {
			status, hdr, body, err := s.do(r.method(), r.path, hs.bodies[i], "")
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %.200s", status, body)
			}
			if err == nil && pass == 1 && r.path != "/v1/sweep" && !bytes.Contains(body, []byte(`"cached": true`)) {
				err = fmt.Errorf("second request was not a cache hit")
			}
			if err == nil && pass == 1 && r.path == "/v1/sweep" && hdr.Get("X-Gossipd-Cached") != "true" {
				err = fmt.Errorf("second sweep was not a cache replay")
			}
			if err != nil {
				s.close()
				return nil, fmt.Errorf("priming %s: %w", r.label(), err)
			}
			hs.primed[i] = append([]byte(nil), body...)
		}
	}
	return hs, nil
}

// hotInputs records a run's generated inputs.
type hotInputs struct {
	Seed     int64    `json:"seed"`
	Requests []string `json:"requests"`
	// Decks is how many decks were replayed; each is a seeded permutation
	// of Requests, drawn from the seed in order.
	Decks int `json:"decks"`
}

// hotReplay sends decks seeded permutations of the hot set and returns the
// client-side latencies in milliseconds and the reply bytes. With rec set
// each request is a traced process.http span.
func hotReplay(s *hotServer, rng *rand.Rand, decks int, t *tally, rec *recorder, reqBase int) (lat []float64, bytesOut int) {
	lat = make([]float64, 0, decks*len(hotSet))
	for d := 0; d < decks; d++ {
		for _, i := range rng.Perm(len(hotSet)) {
			r := hotSet[i]
			var sid string
			var cs int
			if rec != nil {
				req := reqBase + len(lat) + 1
				cs = rec.begin(req, 0, "process.http")
				sid = spanID(req, cs)
			}
			t0 := time.Now()
			status, hdr, body, err := s.do(r.method(), r.path, s.bodies[i], sid)
			dt := time.Since(t0)
			if rec != nil {
				rec.end(cs)
			}
			lat = append(lat, ms(dt))
			bytesOut += len(body)
			if err != nil {
				t.fail("%s: %v", r.label(), err)
				continue
			}
			t.check(checkHot(r, s.primed[i], status, hdr, body))
		}
	}
	return lat, bytesOut
}

// runServeHot replays the primed hot set in seeded decks over one
// keep-alive connection; only the process and serve layers do work.
func runServeHot(cfg config, t *tally) (map[string]metric, error) {
	inputs := hotInputs{Seed: cfg.seed}
	for _, r := range hotSet {
		inputs.Requests = append(inputs.Requests, r.label())
	}
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 2))
	if cfg.trace {
		return traceServeHot(cfg, t, rng, inputs)
	}
	// Set-up primes five fresh servers and keeps the last; setup_s is the
	// median of the five.
	var s *hotServer
	var setups []float64
	for i := 0; i < 5; i++ {
		if s != nil {
			s.close()
		}
		setup, err := timed(func() (err error) {
			s, err = primeHot(nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
	}
	defer s.close()
	quiesce()
	var lat []float64
	start := time.Now()
	for time.Since(start).Seconds() < cfg.seconds {
		l, _ := hotReplay(s, rng, hotWindowDecks, t, nil, 0)
		lat = append(lat, l...)
		inputs.Decks += hotWindowDecks
	}
	if err := writeJSON(cfg, fmt.Sprintf("serve-hot-seed%d-inputs.json", cfg.seed), inputs); err != nil {
		return nil, err
	}
	return e2e(lat, median(windowRates(lat, hotWindowDecks*len(hotSet))), median(setups))
}

// hotTraceBlocks and hotTraceDecks size the traced run: blocks alternate
// untraced and traced, each holding hotTraceDecks decks.
const (
	hotTraceBlocks = 12
	hotTraceDecks  = 20
)

// traceServeHot alternates untraced and traced blocks on one primed
// server whose handler is wrapped for spans (requests without the span
// header pass straight through the wrapper).
func traceServeHot(cfg config, t *tally, rng *rand.Rand, inputs hotInputs) (map[string]metric, error) {
	rec := newRecorder()
	s, err := primeHot(traceHandler(rec))
	if err != nil {
		return nil, err
	}
	defer s.close()
	quiesce()
	before := s.srv.Metrics().Snapshot()
	var untraced, traced []float64
	var mem memDelta
	var bytesOut, cached int
	for b := 0; b < hotTraceBlocks; b++ {
		if b%2 == 0 {
			mark := markMem()
			l, n := hotReplay(s, rng, hotTraceDecks, t, nil, 0)
			mem.add(mark.since())
			untraced = append(untraced, l...)
			bytesOut += n
		} else {
			l, n := hotReplay(s, rng, hotTraceDecks, t, rec, len(traced))
			traced = append(traced, l...)
			bytesOut += n
		}
	}
	after := s.srv.Metrics().Snapshot()
	inputs.Decks = hotTraceBlocks * hotTraceDecks
	for _, r := range hotSet {
		if r.method() != http.MethodGet {
			cached += hotTraceBlocks * hotTraceDecks
		}
	}
	if err := writeJSON(cfg, fmt.Sprintf("serve-hot-seed%d-trace-inputs.json", cfg.seed), inputs); err != nil {
		return nil, err
	}
	spans := rec.snapshot()
	if err := writeSpans(cfg, fmt.Sprintf("serve-hot-seed%d-spans.jsonl", cfg.seed), spans); err != nil {
		return nil, err
	}
	dur := layerTimes(spans, false)
	self := layerTimes(spans, true)
	n := float64(len(untraced))
	return layerMetrics(map[string]float64{
		"serve.handler_us":          1e3 * median(values(dur["serve.handler"])),
		"process.http_us":           1e3 * median(values(self["process.http"])),
		"serve.cache_hit_ratio":     float64(after.CacheHits-before.CacheHits) / float64(cached),
		"serve.bytes_per_response":  float64(bytesOut) / float64(len(untraced)+len(traced)),
		"runtime.allocs_per_req":    float64(mem.mallocs) / n,
		"runtime.alloc_kib_per_req": float64(mem.bytes) / n / 1024,
		"runtime.gc_cycles":         float64(mem.gcs),
		"trace.overhead_ms":         median(traced) - median(untraced),
	})
}
