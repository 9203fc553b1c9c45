package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/systolic"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, client *http.Client, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func waitFor(t *testing.T, timeout time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

var analyzeDB25 = AnalyzeRequest{
	Kind:     "debruijn",
	Params:   map[string]int{"degree": 2, "diameter": 5},
	Protocol: "periodic-half",
}

func TestKindsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/v1/kinds")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	catalog := decodeBody[struct {
		Topologies []struct {
			Kind   string   `json:"kind"`
			Params []string `json:"params"`
		} `json:"topologies"`
		Protocols []string `json:"protocols"`
	}](t, resp)
	foundDB := false
	for _, topo := range catalog.Topologies {
		if topo.Kind == "debruijn" {
			foundDB = true
			if len(topo.Params) != 2 || topo.Params[0] != "degree" || topo.Params[1] != "diameter" {
				t.Errorf("debruijn params = %v", topo.Params)
			}
		}
	}
	if !foundDB {
		t.Error("debruijn missing from the catalog")
	}
	foundProto := false
	for _, p := range catalog.Protocols {
		if p == "periodic-half" {
			foundProto = true
		}
	}
	if !foundProto {
		t.Error("periodic-half missing from the protocol catalog")
	}
}

func TestAnalyzeCaching(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", analyzeDB25)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	env := decodeBody[struct {
		Key    string          `json:"key"`
		Cached bool            `json:"cached"`
		Report systolic.Report `json:"report"`
	}](t, resp)
	if env.Cached {
		t.Error("first request claims to be cached")
	}
	if env.Report.Measured <= 0 || env.Report.Network == "" {
		t.Errorf("implausible report: %+v", env.Report)
	}
	if !strings.Contains(env.Key, "debruijn") || !strings.Contains(env.Key, "degree=2,diameter=5") {
		t.Errorf("key %q does not look canonical", env.Key)
	}

	resp2 := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", analyzeDB25)
	env2 := decodeBody[struct {
		Key    string          `json:"key"`
		Cached bool            `json:"cached"`
		Report systolic.Report `json:"report"`
	}](t, resp2)
	if !env2.Cached {
		t.Error("second identical request missed the cache")
	}
	if env2.Report != env.Report {
		t.Errorf("cached report differs: %+v vs %+v", env2.Report, env.Report)
	}
	if sims := s.Metrics().Snapshot().Simulations; sims != 1 {
		t.Errorf("ran %d simulations for two identical requests, want 1", sims)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"unknown kind", `{"kind":"mobius","params":{"nodes":8},"protocol":"periodic-half"}`, 400},
		{"unknown param", `{"kind":"debruijn","params":{"order":2},"protocol":"periodic-half"}`, 400},
		{"missing protocol", `{"kind":"debruijn","params":{"degree":2,"diameter":5}}`, 400},
		{"bad param value", `{"kind":"debruijn","params":{"degree":1,"diameter":5},"protocol":"periodic-half"}`, 400},
		{"unknown field", `{"kind":"debruijn","params":{"degree":2,"diameter":5},"protocol":"periodic-half","nope":1}`, 400},
		{"negative budget", `{"kind":"debruijn","params":{"degree":2,"diameter":5},"protocol":"periodic-half","budget":-1}`, 400},
		{"garbage", `{]`, 400},
		{"budget too small", `{"kind":"debruijn","params":{"degree":2,"diameter":5},"protocol":"periodic-half","budget":2}`, 422},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		if !bytes.Contains(body, []byte("error")) {
			t.Errorf("%s: error body missing: %s", tc.name, body)
		}
	}
}

func TestBroadcastEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/broadcast", AnalyzeRequest{
		Kind: "hypercube", Params: map[string]int{"dimension": 4}, Source: 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("broadcast status %d", resp.StatusCode)
	}
	env := decodeBody[struct {
		Report systolic.BroadcastReport `json:"report"`
	}](t, resp)
	if env.Report.Source != 3 || env.Report.Measured < env.Report.CBound {
		t.Errorf("implausible broadcast report: %+v", env.Report)
	}

	resp = postJSON(t, ts.Client(), ts.URL+"/v1/broadcast", AnalyzeRequest{
		Kind: "hypercube", Params: map[string]int{"dimension": 4}, AllSources: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("broadcast all status %d", resp.StatusCode)
	}
	all := decodeBody[struct {
		Report systolic.BroadcastAllReport `json:"report"`
	}](t, resp)
	if len(all.Report.Rounds) != 16 {
		t.Fatalf("all-sources rounds has %d entries, want 16", len(all.Report.Rounds))
	}
	// The scan measures flooding time — the source's eccentricity, 4 on a
	// 4-cube from every source — which lower-bounds the single-source
	// BFS-tree whispering time.
	if all.Report.Rounds[3] != 4 || all.Report.Worst != 4 || all.Report.Best != 4 {
		t.Errorf("hypercube scan should measure eccentricity 4 everywhere: %+v", all.Report)
	}
	if all.Report.Rounds[3] > env.Report.Measured {
		t.Errorf("flooding time %d exceeds whispering time %d",
			all.Report.Rounds[3], env.Report.Measured)
	}
	if all.Report.Sources != nil {
		t.Errorf("full scan echoed explicit sources %v", all.Report.Sources)
	}

	// The structured {"all": true} block is the same request as the
	// deprecated all_sources boolean.
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/broadcast", AnalyzeRequest{
		Kind: "hypercube", Params: map[string]int{"dimension": 4}, Sources: &SourcesSpec{All: true},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sources-all status %d", resp.StatusCode)
	}
	structured := decodeBody[struct {
		Report systolic.BroadcastAllReport `json:"report"`
	}](t, resp)
	if !reflect.DeepEqual(structured.Report, all.Report) {
		t.Errorf("structured sources block diverged from all_sources:\n  %+v\n  %+v",
			structured.Report, all.Report)
	}

	// A subset scan returns the matching rows, keyed by its sorted list.
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/broadcast", AnalyzeRequest{
		Kind: "hypercube", Params: map[string]int{"dimension": 4}, Sources: &SourcesSpec{List: []int{7, 3}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sources-list status %d", resp.StatusCode)
	}
	sub := decodeBody[struct {
		Report systolic.BroadcastAllReport `json:"report"`
	}](t, resp)
	if !reflect.DeepEqual(sub.Report.Sources, []int{3, 7}) {
		t.Errorf("subset sources = %v, want canonicalized [3 7]", sub.Report.Sources)
	}
	if !reflect.DeepEqual(sub.Report.Rounds, []int{all.Report.Rounds[3], all.Report.Rounds[7]}) {
		t.Errorf("subset rounds %v disagree with full-scan rows", sub.Report.Rounds)
	}

	// Malformed sources blocks are client errors.
	for _, bad := range []*SourcesSpec{{}, {All: true, List: []int{1}}, {List: []int{-1}}} {
		resp = postJSON(t, ts.Client(), ts.URL+"/v1/broadcast", AnalyzeRequest{
			Kind: "hypercube", Params: map[string]int{"dimension": 4}, Sources: bad,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("sources %+v: status %d, want 400", bad, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// An out-of-range subset entry fails at instantiation (422, like other
	// semantically invalid parameters).
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/broadcast", AnalyzeRequest{
		Kind: "hypercube", Params: map[string]int{"dimension": 4}, Sources: &SourcesSpec{List: []int{16}},
	})
	if resp.StatusCode == http.StatusOK {
		t.Errorf("out-of-range source accepted")
	}
	resp.Body.Close()

	// A protocol on a broadcast request is rejected.
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/broadcast", AnalyzeRequest{
		Kind: "hypercube", Params: map[string]int{"dimension": 4}, Protocol: "periodic-half",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("broadcast with protocol: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

var sweepTwoJobs = SweepRequest{Jobs: []SweepJobRequest{
	{Label: "db", Kind: "debruijn", Params: map[string]int{"degree": 2, "diameter": 5}, Protocol: "periodic-half"},
	{Kind: "kautz", Params: map[string]int{"degree": 2, "diameter": 4}, Protocol: "periodic-full"},
}}

func readSweepLines(t *testing.T, body io.Reader) []sweepLine {
	t.Helper()
	var lines []sweepLine
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line sweepLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad sweep line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

func TestSweepStreaming(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", sweepTwoJobs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	lines := readSweepLines(t, resp.Body)
	resp.Body.Close()
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	seen := map[int]bool{}
	for _, line := range lines {
		seen[line.Index] = true
		if line.Report == nil || line.Error != "" {
			t.Errorf("line %d has no report (err %q)", line.Index, line.Error)
		}
	}
	if !seen[0] || !seen[1] {
		t.Errorf("line indexes wrong: %v", seen)
	}

	// The default label is derived; the explicit one is echoed.
	for _, line := range lines {
		switch line.Index {
		case 0:
			if line.Label != "db" {
				t.Errorf("explicit label lost: %q", line.Label)
			}
		case 1:
			if line.Label != "kautz/periodic-full" {
				t.Errorf("derived label = %q", line.Label)
			}
		}
	}

	resp2 := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", sweepTwoJobs)
	if resp2.Header.Get("X-Gossipd-Cached") != "true" {
		t.Error("second identical sweep not served from cache")
	}
	cached := readSweepLines(t, resp2.Body)
	resp2.Body.Close()
	if len(cached) != 2 || cached[0].Index != 0 || cached[1].Index != 1 {
		t.Errorf("cached replay not in job order: %+v", cached)
	}
}

// TestSweepLabelsPartOfIdentity: labels are echoed on response lines, so a
// relabeled grid must not share a cached replay with another client's.
func TestSweepLabelsPartOfIdentity(t *testing.T) {
	relabel := func(label string) SweepRequest {
		return SweepRequest{Jobs: []SweepJobRequest{{
			Label: label, Kind: "debruijn",
			Params: map[string]int{"degree": 2, "diameter": 4}, Protocol: "periodic-half",
		}}}
	}
	_, _, kA, err := normalizeSweep(relabel("run-A"), 16)
	if err != nil {
		t.Fatal(err)
	}
	_, _, kB, _ := normalizeSweep(relabel("run-B"), 16)
	_, _, kDef, _ := normalizeSweep(relabel(""), 16)
	if kA == kB || kA == kDef || kB == kDef {
		t.Fatalf("relabeled grids share keys: %q %q %q", kA, kB, kDef)
	}

	s, ts := newTestServer(t, Config{})
	respA := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", relabel("run-A"))
	linesA := readSweepLines(t, respA.Body)
	respA.Body.Close()
	respB := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", relabel("run-B"))
	linesB := readSweepLines(t, respB.Body)
	respB.Body.Close()
	if len(linesA) != 1 || linesA[0].Label != "run-A" {
		t.Errorf("grid A lines: %+v", linesA)
	}
	if len(linesB) != 1 || linesB[0].Label != "run-B" {
		t.Errorf("grid B served grid A's labels: %+v", linesB)
	}
	if sims := s.Metrics().Snapshot().Simulations; sims != 2 {
		t.Errorf("two distinct grids ran %d simulations, want 2", sims)
	}
}

// TestSweepDedup64Concurrent is the acceptance test for the cache +
// singleflight layer: 64 concurrent identical sweep requests must run
// exactly one underlying simulation, verified both by the simulation
// counter and by the rounds-simulated counter matching a single reference
// run.
func TestSweepDedup64Concurrent(t *testing.T) {
	// Reference: one run of the same grid on a fresh server.
	ref, tsRef := newTestServer(t, Config{})
	resp := postJSON(t, tsRef.Client(), tsRef.URL+"/v1/sweep", sweepTwoJobs)
	if lines := readSweepLines(t, resp.Body); len(lines) != 2 {
		t.Fatalf("reference run produced %d lines", len(lines))
	}
	resp.Body.Close()
	refRounds := ref.Metrics().Snapshot().Rounds
	if refRounds == 0 {
		t.Fatal("reference run simulated zero rounds")
	}

	s, ts := newTestServer(t, Config{})
	const clients = 64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, _ := json.Marshal(sweepTwoJobs)
			resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(data))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var lines []sweepLine
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var line sweepLine
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
					errs <- err
					return
				}
				lines = append(lines, line)
			}
			if len(lines) != 2 {
				errs <- fmt.Errorf("got %d lines, want 2", len(lines))
				return
			}
			for _, line := range lines {
				if line.Report == nil {
					errs <- fmt.Errorf("line %d missing report", line.Index)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := s.Metrics().Snapshot()
	if snap.Simulations != 1 {
		t.Errorf("%d concurrent identical sweeps ran %d simulations, want exactly 1", clients, snap.Simulations)
	}
	if snap.Rounds != refRounds {
		t.Errorf("simulated %d rounds for %d concurrent sweeps, single run simulates %d", snap.Rounds, clients, refRounds)
	}
	if snap.CacheHits+snap.DedupShared < clients-1 {
		t.Errorf("hits (%d) + dedup (%d) < %d: some requests recomputed", snap.CacheHits, snap.DedupShared, clients-1)
	}
}

// TestSweepCancelMidStreamFreesWorker is the acceptance test for
// cancel-on-disconnect: a client that walks away mid-stream cancels the
// underlying sweep, the worker frees up, and the aborted result is not
// cached.
func TestSweepCancelMidStreamFreesWorker(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Job 0 finishes in milliseconds; job 1 needs seconds of simulation.
	slowSweep := SweepRequest{Jobs: []SweepJobRequest{
		{Kind: "debruijn", Params: map[string]int{"degree": 2, "diameter": 4}, Protocol: "periodic-half"},
		{Kind: "path", Params: map[string]int{"nodes": 900}, Protocol: "zigzag"},
	}}
	_, _, key, err := normalizeSweep(slowSweep, 16)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	data, _ := json.Marshal(slowSweep)
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first line before cancel: %v", sc.Err())
	}
	var first sweepLine
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("bad first line: %v", err)
	}
	if first.Index != 0 || first.Report == nil {
		t.Fatalf("first streamed line should be the fast job: %+v", first)
	}
	// Disconnect mid-stream.
	cancel()

	waitFor(t, 10*time.Second, "worker to free after client disconnect", func() bool {
		snap := s.Metrics().Snapshot()
		return snap.Inflight == 0 && snap.Queued == 0
	})
	// The aborted sweep must not be cached...
	if _, ok := s.cache.get(key); ok {
		t.Error("cancelled sweep was cached")
	}
	// ...and no simulation keeps burning rounds in the background.
	r1 := s.Metrics().Snapshot().Rounds
	time.Sleep(150 * time.Millisecond)
	if r2 := s.Metrics().Snapshot().Rounds; r2 != r1 {
		t.Errorf("rounds still advancing after cancellation: %d -> %d", r1, r2)
	}
	// The server stays fully usable.
	resp2 := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", analyzeDB25)
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("follow-up request failed with %d", resp2.StatusCode)
	}
	resp2.Body.Close()
}

func TestQueueSaturation429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	slow := func(budget int) AnalyzeRequest {
		return AnalyzeRequest{
			Kind: "path", Params: map[string]int{"nodes": 700},
			Protocol: "zigzag", Budget: budget, // distinct budgets → distinct keys
		}
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	fire := func(ctx context.Context, req AnalyzeRequest) {
		data, _ := json.Marshal(req)
		r, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/analyze", bytes.NewReader(data))
		resp, err := ts.Client().Do(r)
		if err == nil {
			resp.Body.Close()
		}
	}
	go fire(ctx1, slow(100001))
	waitFor(t, 10*time.Second, "first request to occupy the worker", func() bool {
		return s.Metrics().Snapshot().Inflight == 1
	})
	go fire(ctx2, slow(100002))
	waitFor(t, 10*time.Second, "second request to queue", func() bool {
		return s.Metrics().Snapshot().Queued == 1
	})

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", slow(100003))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	resp.Body.Close()
	if s.Metrics().Snapshot().Rejected == 0 {
		t.Error("rejection not counted")
	}

	// Disconnecting both clients frees the worker and the queue slot.
	cancel1()
	cancel2()
	waitFor(t, 10*time.Second, "pool to drain after disconnects", func() bool {
		snap := s.Metrics().Snapshot()
		return snap.Inflight == 0 && snap.Queued == 0
	})
}

func TestAsyncSweepJob(t *testing.T) {
	spool := t.TempDir()
	s, ts := newTestServer(t, Config{SpoolDir: spool})
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/sweep?async=true", sweepTwoJobs)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d", resp.StatusCode)
	}
	accepted := decodeBody[struct {
		ID        string `json:"id"`
		StatusURL string `json:"status_url"`
	}](t, resp)
	if accepted.ID == "" || accepted.StatusURL != "/v1/jobs/"+accepted.ID {
		t.Fatalf("bad accept payload: %+v", accepted)
	}

	var job Job
	waitFor(t, 15*time.Second, "async sweep to finish", func() bool {
		r, err := ts.Client().Get(ts.URL + accepted.StatusURL)
		if err != nil {
			return false
		}
		job = decodeBody[Job](t, r)
		return job.terminal()
	})
	if job.Status != JobDone {
		t.Fatalf("job finished as %s (%s)", job.Status, job.Error)
	}
	if len(job.Results) != 2 || job.Results[0].Index != 0 || job.Results[1].Index != 1 {
		t.Fatalf("job results wrong: %+v", job.Results)
	}
	for _, line := range job.Results {
		if line.Report == nil {
			t.Errorf("job line %d missing report", line.Index)
		}
	}
	if job.Created.IsZero() || job.Started.IsZero() || job.Finished.IsZero() {
		t.Errorf("job timestamps incomplete: %+v", job)
	}

	// The async result lands in the same cache as sync requests.
	resp2 := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", sweepTwoJobs)
	if resp2.Header.Get("X-Gossipd-Cached") != "true" {
		t.Error("sync request after async job missed the cache")
	}
	resp2.Body.Close()

	// Persistence: a fresh store over the same spool serves the job (the
	// restart path).
	restarted, err := newJobStore(spool, 10)
	if err != nil {
		t.Fatal(err)
	}
	back, ok := restarted.get(job.ID)
	if !ok {
		t.Fatal("job not reloadable from the spool")
	}
	if back.Status != JobDone || len(back.Results) != 2 {
		t.Errorf("reloaded job corrupt: %+v", back)
	}

	// Unknown and malicious ids 404.
	for _, id := range []string{"jffffffffffffffff", "../../etc/passwd", "j....."} {
		r, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			continue
		}
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("job %q: status %d, want 404", id, r.StatusCode)
		}
		r.Body.Close()
	}
	_ = s
}

// TestAsyncAnalyzeSharesPoolAndCache: the async path runs through the same
// worker accounting and result cache as the synchronous one — an async job
// counts as a simulation, and its result serves later sync requests.
func TestAsyncAnalyzeSharesPoolAndCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/analyze?async=true", analyzeDB25)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d", resp.StatusCode)
	}
	accepted := decodeBody[struct {
		ID string `json:"id"`
	}](t, resp)
	var job Job
	waitFor(t, 15*time.Second, "async analyze to finish", func() bool {
		r, err := ts.Client().Get(ts.URL + "/v1/jobs/" + accepted.ID)
		if err != nil {
			return false
		}
		job = decodeBody[Job](t, r)
		return job.terminal()
	})
	if job.Status != JobDone || job.Report == nil {
		t.Fatalf("job finished as %s with report %v (%s)", job.Status, job.Report, job.Error)
	}
	if sims := s.Metrics().Snapshot().Simulations; sims != 1 {
		t.Errorf("async analyze ran %d counted simulations, want 1", sims)
	}
	resp2 := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", analyzeDB25)
	env := decodeBody[struct {
		Cached bool `json:"cached"`
	}](t, resp2)
	if !env.Cached {
		t.Error("sync request after async analyze missed the cache")
	}
	if sims := s.Metrics().Snapshot().Simulations; sims != 1 {
		t.Errorf("follow-up request re-simulated: %d simulations", sims)
	}
}

func TestAsyncAnalyzeIncompleteCheckpoints(t *testing.T) {
	spool := t.TempDir()
	_, ts := newTestServer(t, Config{SpoolDir: spool})
	req := analyzeDB25
	req.Budget = 3 // far below completion
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/analyze?async=true", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d", resp.StatusCode)
	}
	accepted := decodeBody[struct {
		ID string `json:"id"`
	}](t, resp)

	var job Job
	waitFor(t, 15*time.Second, "async analyze to finish", func() bool {
		r, err := ts.Client().Get(ts.URL + "/v1/jobs/" + accepted.ID)
		if err != nil {
			return false
		}
		job = decodeBody[Job](t, r)
		return job.terminal()
	})
	if job.Status != JobIncomplete {
		t.Fatalf("job finished as %s, want incomplete (%s)", job.Status, job.Error)
	}
	if job.Checkpoint == "" {
		t.Fatal("incomplete job has no checkpoint")
	}
	f, err := os.Open(job.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := systolic.ReadCheckpoint(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Round != 3 {
		t.Errorf("checkpoint at round %d, want 3", ck.Round)
	}

	// The persisted checkpoint resumes offline to completion.
	net, err := systolic.New("debruijn", systolic.Degree(2), systolic.Diameter(5))
	if err != nil {
		t.Fatal(err)
	}
	p, err := systolic.NewProtocol("periodic-half", net, 3)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := systolic.NewEngine(net, p, systolic.WithRoundBudget(systolic.DefaultRoundBudget))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Restore(ck); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Measured <= 3 {
		t.Errorf("resumed run measured %d rounds, want > 3", rep.Measured)
	}
}

func TestHealthzMetricsAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decodeBody[map[string]any](t, resp)
	if health["status"] != "ok" {
		t.Errorf("health status %v", health["status"])
	}

	// Warm the cache, then check the metrics text.
	postJSON(t, ts.Client(), ts.URL+"/v1/analyze", analyzeDB25).Body.Close()
	postJSON(t, ts.Client(), ts.URL+"/v1/analyze", analyzeDB25).Body.Close()
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`gossipd_requests_total{endpoint="analyze"} 2`,
		"gossipd_cache_hits_total 1",
		"gossipd_program_cache_misses_total 1",
		"gossipd_program_cache_hits_total 0",
		"gossipd_simulations_total 1",
		"gossipd_rounds_simulated_total",
		"gossipd_inflight_sessions 0",
		"gossipd_cache_hit_ratio 0.5",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Drain: new computations 503, cached results and read-only endpoints
	// keep serving.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{
		Kind: "kautz", Params: map[string]int{"degree": 2, "diameter": 4}, Protocol: "periodic-full",
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining server answered %d to new work, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/analyze", analyzeDB25)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("draining server refused a cached result: %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if h := decodeBody[map[string]any](t, resp); h["status"] != "draining" {
		t.Errorf("health status %v, want draining", h["status"])
	}
}

// TestPanickingComputeIsContained: a computation that panics fails its
// requests with ErrInternal (HTTP 500) instead of killing the process —
// synchronously, through a shared flight and as an async job — the panic
// is counted, and the server keeps serving. The doubling and cycle2
// requests that used to crash gossipd are now rejected up front as bad
// parameters (400).
func TestPanickingComputeIsContained(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	client := ts.Client()
	healthy := func() {
		t.Helper()
		r, err := client.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d after a failed compute", r.StatusCode)
		}
	}

	doubling := AnalyzeRequest{Kind: "cycle", Params: map[string]int{"nodes": 3}, Protocol: "doubling"}
	resp := postJSON(t, client, ts.URL+"/v1/analyze", doubling)
	body := decodeBody[map[string]string](t, resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"], "power-of-two") {
		t.Fatalf("doubling on a 3-cycle: status %d body %v, want 400 naming the precondition", resp.StatusCode, body)
	}
	healthy()

	cycle2 := AnalyzeRequest{Kind: "path", Params: map[string]int{"nodes": 3}, Protocol: "cycle2"}
	resp = postJSON(t, client, ts.URL+"/v1/analyze", cycle2)
	body = decodeBody[map[string]string](t, resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"], "even vertex count") {
		t.Fatalf("cycle2 on a 3-vertex path: status %d body %v, want 400 naming the precondition", resp.StatusCode, body)
	}
	healthy()

	// No request reaches a panicking construction any more, so poison the
	// program cache: a compute on this key panics on the cached entry.
	poisoned := AnalyzeRequest{Kind: "path", Params: map[string]int{"nodes": 4}, Protocol: "zigzag"}
	n, err := normalizeAnalyze(poisoned)
	if err != nil {
		t.Fatal(err)
	}
	s.programs.add(n.progKey, "not a compiled program")
	resp = postJSON(t, client, ts.URL+"/v1/analyze", poisoned)
	body = decodeBody[map[string]string](t, resp)
	if resp.StatusCode != http.StatusInternalServerError || !strings.HasPrefix(body["error"], ErrInternal.Error()+": ") {
		t.Fatalf("panicking compute: status %d body %v, want 500 carrying the panic", resp.StatusCode, body)
	}
	healthy()

	resp = postJSON(t, client, ts.URL+"/v1/analyze?async=true", poisoned)
	accepted := decodeBody[struct {
		ID string `json:"id"`
	}](t, resp)
	var job Job
	waitFor(t, 15*time.Second, "async panicking job to finish", func() bool {
		r, err := client.Get(ts.URL + "/v1/jobs/" + accepted.ID)
		if err != nil {
			return false
		}
		job = decodeBody[Job](t, r)
		return job.terminal()
	})
	if job.Status != JobFailed || !strings.HasPrefix(job.Error, ErrInternal.Error()+": ") {
		t.Fatalf("async panicking job finished %s (%q), want failed with the internal error", job.Status, job.Error)
	}
	healthy()

	// Every subscriber of a panicking flight gets the typed error.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	release := make(chan struct{})
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.sharedItems(context.Background(), "panic-key", 1, func(context.Context, func(any)) error {
				<-release
				panic("boom")
			})
		}(i)
	}
	waitFor(t, 5*time.Second, "subscribers to share the flight", func() bool {
		return s.Metrics().Snapshot().DedupShared >= 3
	})
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrInternal) || !strings.Contains(err.Error(), "boom") {
			t.Errorf("subscriber %d: err = %v, want ErrInternal carrying the panic value", i, err)
		}
	}
	if got := s.Metrics().Snapshot().Panics; got != 3 {
		t.Errorf("panics counted %d, want 3 (sync, async, shared flight)", got)
	}
	r, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !bytes.Contains(metrics, []byte("gossipd_panics_total 3\n")) {
		t.Errorf("/metrics does not report gossipd_panics_total 3")
	}
	healthy()
}
