package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/systolic"
)

// Config tunes a Server. The zero value is usable: every field has a
// default.
type Config struct {
	// Workers bounds concurrently running computations (default
	// GOMAXPROCS). A sweep counts as one unit regardless of its internal
	// parallelism.
	Workers int
	// QueueDepth bounds computations waiting for a worker; beyond it the
	// server answers 429 (default 64).
	QueueDepth int
	// CacheSize bounds the result cache (default 1024 entries).
	CacheSize int
	// ProgramCacheSize bounds the compiled-program cache (default 256
	// entries): built networks plus their compiled schedules, kept across
	// requests so a result-cache miss skips build+validate+compile.
	ProgramCacheSize int
	// DelayPlanCacheSize bounds the compiled delay-plan cache (default 256
	// entries): the certification-side artifact cached alongside each
	// program, so a repeated /v1/certify never rebuilds the delay digraph.
	DelayPlanCacheSize int
	// SpoolDir persists async job results (and the checkpoints of
	// budget-incomplete analyze jobs) as JSON files; empty keeps jobs in
	// memory only.
	SpoolDir string
	// MaxSweepJobs bounds the grid size of one sweep request (default 256).
	MaxSweepJobs int
	// MaxScanNodes bounds the vertex count of one broadcast scan (default
	// 2^24, the largest instance whose streaming scan is known to stay
	// under a gigabyte). Implicit (generator-only) networks make huge
	// instances cheap to *build*, so the guard moved from construction
	// time to scan admission: a /v1/broadcast scan request on a larger
	// network answers 400.
	MaxScanNodes int
	// MaxJobs bounds async jobs held in memory (default 1024).
	MaxJobs int
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Version is the build/version string reported on /healthz (default
	// "dev"; binaries stamp it from their build info).
	Version string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.ProgramCacheSize <= 0 {
		c.ProgramCacheSize = 256
	}
	if c.DelayPlanCacheSize <= 0 {
		c.DelayPlanCacheSize = 256
	}
	if c.MaxSweepJobs <= 0 {
		c.MaxSweepJobs = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.MaxScanNodes <= 0 {
		c.MaxScanNodes = 1 << 24
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Version == "" {
		c.Version = "dev"
	}
	return c
}

// Server multiplexes concurrent gossip analyses over the systolic engine:
// requests normalize to canonical cache keys (systolic.RequestKey), results
// come from a sharded LRU, concurrent identical requests coalesce onto one
// simulation, and the simulations themselves run on a bounded worker pool.
// See the package documentation for the wire schema.
type Server struct {
	cfg      Config
	cache    *resultCache
	programs *resultCache // compiled *systolic.Program by program key
	plans    *resultCache // compiled *systolic.DelayPlan by program key
	flights  group
	jobs     *jobStore
	metrics  *Metrics
	mux      *http.ServeMux

	sem        chan struct{}
	wg         sync.WaitGroup // in-flight computations and async jobs
	drainMu    sync.Mutex     // guards draining and makes check+wg.Add atomic
	draining   bool
	base       context.Context
	baseCancel context.CancelFunc
	started    time.Time
}

// ErrInternal is the error of a computation that panicked: the panic is
// recovered on the compute goroutine, every request waiting on that
// computation fails with ErrInternal (HTTP 500) carrying the panic value,
// gossipd_panics_total counts it, and the server keeps serving.
var ErrInternal = errors.New("serve: internal error")

var (
	errSaturated = errors.New("serve: worker queue is full")
	errDraining  = errors.New("serve: server is draining")
	errNoResult  = errors.New("serve: computation finished without a result")
)

// New builds a Server. Callers mount Handler on an http.Server and should
// Drain (then Close) on shutdown.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	jobs, err := newJobStore(cfg.SpoolDir, cfg.MaxJobs)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		cache:    newResultCache(cfg.CacheSize),
		programs: newResultCache(cfg.ProgramCacheSize),
		plans:    newResultCache(cfg.DelayPlanCacheSize),
		jobs:     jobs,
		metrics:  newMetrics(),
		sem:      make(chan struct{}, cfg.Workers),
		started:  time.Now(),
	}
	s.base, s.baseCancel = context.WithCancel(context.Background())
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/kinds", s.handleKinds)
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/certify", s.handleCertify)
	mux.HandleFunc("POST /v1/broadcast", s.handleBroadcast)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux = mux
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's instrumentation (tests and the loadtest
// driver read snapshots from it).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Drain stops accepting computation-starting requests (they get 503) and
// waits for every in-flight computation and async job to finish, or for the
// context to expire. Read-only endpoints keep serving.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// Close cancels every remaining computation. Call it after Drain (or
// instead of it, for an abrupt stop).
func (s *Server) Close() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.baseCancel()
}

func (s *Server) isDraining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// startWork registers one computation (or async job) with the drain
// accounting, atomically with the draining check — a work unit can never
// slip in between Drain's flag store and its wg.Wait. The returned done
// must be called when the work finishes.
func (s *Server) startWork() (done func(), err error) {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	s.wg.Add(1)
	return func() { s.wg.Done() }, nil
}

// spawnFlight starts the computation for a flight the caller just created,
// under the drain accounting; a drain that began after the caller's check
// fails the flight (and thus every subscriber) with errDraining.
func (s *Server) spawnFlight(key string, f *flight, compute func(ctx context.Context, emit func(any)) error) {
	done, err := s.startWork()
	if err != nil {
		go s.flights.run(key, f, func(context.Context, func(any)) error { return err })
		return
	}
	go func() {
		defer done()
		s.flights.run(key, f, func(ctx context.Context, emit func(any)) (err error) {
			defer s.recoverPanic(&err)
			return compute(ctx, emit)
		})
	}()
}

// recoverPanic, deferred on a goroutine that runs a computation, turns a
// panic into *err: ErrInternal carrying the panic value. Compute runs
// outside net/http's per-handler recovery, so an unrecovered panic there
// would take the whole process down.
func (s *Server) recoverPanic(err *error) {
	if v := recover(); v != nil {
		s.metrics.panics.Add(1)
		*err = fmt.Errorf("%w: %v", ErrInternal, v)
	}
}

// roundsObserver counts every simulated round into the metrics through the
// systolic trace-observer hook.
func (s *Server) roundsObserver() systolic.Option {
	return systolic.WithTrace(systolic.ObserverFunc(func(round, knowledge, target int) {
		s.metrics.rounds.Add(1)
	}))
}

// acquire claims a worker slot, queueing up to QueueDepth waiters; beyond
// that it fails fast with errSaturated (HTTP 429).
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
	default:
		if s.metrics.queued.Add(1) > int64(s.cfg.QueueDepth) {
			s.metrics.queued.Add(-1)
			s.metrics.rejected.Add(1)
			return nil, errSaturated
		}
		defer s.metrics.queued.Add(-1)
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s.metrics.inflight.Add(1)
	return func() {
		s.metrics.inflight.Add(-1)
		<-s.sem
	}, nil
}

// --- wire helpers ---

// resultEnvelope wraps single-value responses.
type resultEnvelope struct {
	// Key is the canonical cache key the request normalized to.
	Key string `json:"key"`
	// Cached reports whether the result came straight from the cache.
	Cached bool `json:"cached"`
	// Report is the operation's report object.
	Report any `json:"report"`
}

// sweepLine is one JSON line of a sweep stream (systolic.SweepResult with
// the error rendered as a string).
type sweepLine struct {
	Index   int              `json:"index"`
	Label   string           `json:"label,omitempty"`
	Network string           `json:"network,omitempty"`
	N       int              `json:"n,omitempty"`
	Report  *systolic.Report `json:"report,omitempty"`
	Error   string           `json:"error,omitempty"`
}

func toSweepLine(res systolic.SweepResult) sweepLine {
	line := sweepLine{Index: res.Index, Label: res.Label, Network: res.Network, N: res.N, Report: res.Report}
	if res.Err != nil {
		line.Error = res.Err.Error()
	}
	return line
}

// writeJSON encodes v before writing the header, so a value that cannot be
// encoded becomes a 500 with an error body instead of an empty 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		status = http.StatusInternalServerError
		// A string map always encodes.
		body, _ = json.MarshalIndent(map[string]string{"error": "serve: encode response: " + err.Error()}, "", "  ")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	var br badRequestError
	status := http.StatusInternalServerError
	switch {
	case errors.As(err, &br),
		errors.Is(err, systolic.ErrBadParam),
		errors.Is(err, systolic.ErrUnknownTopology),
		errors.Is(err, systolic.ErrUnknownProtocol),
		errors.Is(err, systolic.ErrImplicit):
		status = http.StatusBadRequest
	case errors.Is(err, systolic.ErrMemoryBudget):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, errSaturated):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, errDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, systolic.ErrIncomplete):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func decodeJSON[T any](w http.ResponseWriter, r *http.Request, maxBytes int64, v *T) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestf("invalid request body: %v", err)
	}
	return nil
}

// --- read-only endpoints ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("healthz")
	status := "ok"
	if s.isDraining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":          status,
		"version":         s.cfg.Version,
		"uptime_seconds":  time.Since(s.started).Seconds(),
		"inflight":        s.metrics.inflight.Load(),
		"queued":          s.metrics.queued.Load(),
		"cache_entries":   s.cache.len(),
		"program_entries": s.programs.len(),
		"plan_entries":    s.plans.len(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w)
}

func (s *Server) handleKinds(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("kinds")
	type kindInfo struct {
		Kind   string   `json:"kind"`
		Params []string `json:"params"`
	}
	kinds := systolic.Kinds()
	topos := make([]kindInfo, 0, len(kinds))
	for _, k := range kinds {
		t, ok := systolic.Lookup(k)
		if !ok {
			continue
		}
		topos = append(topos, kindInfo{Kind: k, Params: t.ParamNames()})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"topologies": topos,
		"protocols":  systolic.ProtocolKinds(),
	})
}

// --- single-value operations ---

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("analyze")
	var req AnalyzeRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		s.writeError(w, err)
		return
	}
	n, err := normalizeAnalyze(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if r.URL.Query().Get("async") == "true" {
		// Async jobs share the cache, worker pool, accounting and
		// singleflight with the synchronous path; only the waiting happens
		// through the job store.
		s.submitAsync(w, systolic.OpAnalyze, n.key, func(ctx context.Context, jobID string) (any, error) {
			items, err := s.sharedItems(ctx, n.key, 1, s.valueCompute(n.key, func(ctx context.Context) (any, error) {
				return s.runAnalyzeSession(ctx, n, jobID)
			}))
			if err != nil {
				return nil, err
			}
			return items[0], nil
		})
		return
	}
	s.serveValue(w, r, n.key, func(ctx context.Context) (any, error) {
		return s.runAnalyzeSession(ctx, n, "")
	})
}

// compiledProgram resolves an analyze request to a compiled schedule
// through the program cache: a hit returns the shared immutable
// network+program pair built by an earlier request (compiled programs are
// safe to execute from any number of concurrent sessions); a miss pays
// build+validate+compile once and publishes the result for the next
// request with the same topology, protocol and budget.
func (s *Server) compiledProgram(n normalized) (*systolic.Program, error) {
	if v, ok := s.programs.get(n.progKey); ok {
		s.metrics.programHits.Add(1)
		return v.(*systolic.Program), nil
	}
	s.metrics.programMisses.Add(1)
	net, err := systolic.New(n.kind, n.paramList...)
	if err != nil {
		return nil, err
	}
	p, err := systolic.NewProtocol(n.protocol, net, n.budget)
	if err != nil {
		return nil, err
	}
	pr, err := systolic.CompileProtocol(net, p)
	if err != nil {
		return nil, err
	}
	if pr.GenProgram() != nil {
		s.metrics.implicitPrograms.Add(1)
	}
	s.programs.add(n.progKey, pr)
	return pr, nil
}

// runAnalyzeSession drives one analyze through the resumable engine,
// executing the cached compiled program. For an async job that hits its
// round budget, the session is checkpointed into the spool
// (systolic.Snapshot + WriteCheckpoint) before the error returns, so the
// client can fetch the checkpoint and resume with a higher budget.
func (s *Server) runAnalyzeSession(ctx context.Context, n normalized, jobID string) (any, error) {
	pr, err := s.compiledProgram(n)
	if err != nil {
		return nil, err
	}
	sess, err := systolic.NewEngineFromProgram(pr, systolic.WithRoundBudget(n.budget), s.roundsObserver())
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	var rep any
	if pr.Broadcast() {
		// Generator-backed protocols (implicit instances) run broadcast
		// sessions; their report is the broadcast view of the certificate.
		rep, err = sess.AnalyzeBroadcast(ctx)
	} else {
		rep, err = sess.Analyze(ctx)
	}
	if err != nil {
		if jobID != "" && errors.Is(err, systolic.ErrIncomplete) {
			if path := s.jobs.checkpointFile(jobID); path != "" {
				if werr := writeCheckpointFile(path, sess); werr == nil {
					s.jobs.update(jobID, func(j *Job) {
						j.Checkpoint = path
					})
				}
			}
		}
		return nil, err
	}
	return rep, nil
}

func (s *Server) handleCertify(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("certify")
	var req AnalyzeRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		s.writeError(w, err)
		return
	}
	n, err := normalizeCertify(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	op := systolic.OpCertify
	compute := s.runCertifySession
	if n.scenario != nil {
		op = systolic.OpCertifyScenario
		compute = s.runCertifyScenario
	}
	if r.URL.Query().Get("async") == "true" {
		s.submitAsync(w, op, n.key, func(ctx context.Context, jobID string) (any, error) {
			items, err := s.sharedItems(ctx, n.key, 1, s.valueCompute(n.key, func(ctx context.Context) (any, error) {
				return compute(ctx, n)
			}))
			if err != nil {
				return nil, err
			}
			return items[0], nil
		})
		return
	}
	s.serveValue(w, r, n.key, func(ctx context.Context) (any, error) {
		return compute(ctx, n)
	})
}

// cachedDelayPlan resolves the compiled delay lowering for a request
// through the plan cache, compiling it from the (already cached) program on
// a miss. Plans are keyed like programs — same topology, protocol and
// budget — so the two caches hold matching entries and a warm schedule
// serves certifications with zero rebuild work.
func (s *Server) cachedDelayPlan(n normalized, pr *systolic.Program) (*systolic.DelayPlan, error) {
	if v, ok := s.plans.get(n.progKey); ok {
		s.metrics.planHits.Add(1)
		return v.(*systolic.DelayPlan), nil
	}
	s.metrics.planMisses.Add(1)
	dp, err := pr.DelayPlan()
	if err != nil {
		return nil, err
	}
	s.plans.add(n.progKey, dp)
	return dp, nil
}

// runCertifySession drives one certification: cached compiled program,
// cached delay plan, fresh session. A budget-truncated run is a valid
// certificate (Complete false, verdicts inapplicable), not an error, so it
// caches like any other result.
func (s *Server) runCertifySession(ctx context.Context, n normalized) (any, error) {
	pr, err := s.compiledProgram(n)
	if err != nil {
		return nil, err
	}
	opts := []systolic.Option{systolic.WithRoundBudget(n.budget), s.roundsObserver()}
	if pr.Broadcast() {
		// Broadcast certificates carry no delay-digraph section, so the
		// delay lowering (which needs explicit adjacency) is skipped.
		sess, err := systolic.NewEngineFromProgram(pr, opts...)
		if err != nil {
			return nil, err
		}
		defer sess.Close()
		return sess.Certify(ctx)
	}
	dp, err := s.cachedDelayPlan(n, pr)
	if err != nil {
		return nil, err
	}
	sess, err := systolic.NewEngineFromProgram(pr, append(opts, systolic.WithDelayPlan(dp))...)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return sess.Certify(ctx)
}

// runCertifyScenario drives one Monte-Carlo scenario certification over
// the cached compiled program and delay plan. A budget-truncated trial is
// data, not an error — the StatisticalCertificate carries per-trial
// truncation counts — so async scenario jobs finish JobDone with the
// counts in the job result instead of failing; the only failures are
// invalid inputs and cancellation.
func (s *Server) runCertifyScenario(ctx context.Context, n normalized) (any, error) {
	pr, err := s.compiledProgram(n)
	if err != nil {
		return nil, err
	}
	dp, err := s.cachedDelayPlan(n, pr)
	if err != nil {
		return nil, err
	}
	cert, err := systolic.CertifyScenarioProgram(ctx, pr, n.scenario, n.trials,
		systolic.WithRoundBudget(n.budget), systolic.WithDelayPlan(dp), s.roundsObserver())
	if err != nil {
		return nil, err
	}
	s.metrics.scenarioTrials.Add(int64(cert.Trials.Trials))
	s.metrics.scenarioTruncated.Add(int64(cert.Trials.Truncated))
	return cert, nil
}

func writeCheckpointFile(path string, sess *systolic.Session) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := systolic.WriteCheckpoint(f, sess.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (s *Server) handleBroadcast(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("broadcast")
	var req AnalyzeRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		s.writeError(w, err)
		return
	}
	n, err := normalizeBroadcast(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.serveValue(w, r, n.key, func(ctx context.Context) (any, error) {
		net, err := systolic.New(n.kind, n.paramList...)
		if err != nil {
			return nil, err
		}
		opts := []systolic.Option{systolic.WithRoundBudget(n.budget), s.roundsObserver()}
		if n.allSources || n.sourceList != nil {
			if nv := net.N(); nv > s.cfg.MaxScanNodes {
				return nil, badRequestf("scan on %d vertices exceeds the server's MaxScanNodes limit %d", nv, s.cfg.MaxScanNodes)
			}
			if n.sourceList != nil {
				opts = append(opts, systolic.WithSources(n.sourceList))
			}
			rep, err := systolic.AnalyzeBroadcastAll(ctx, net, opts...)
			if err != nil {
				return nil, err
			}
			s.metrics.broadcastSources.Add(int64(len(rep.Rounds)))
			if net.Implicit() {
				s.metrics.implicitScans.Add(1)
			}
			return rep, nil
		}
		return systolic.AnalyzeBroadcast(ctx, net, n.source, opts...)
	})
}

// valueCompute wraps a single-result computation with the cache double
// check, worker acquisition and accounting — the body every value flight
// runs, whether a synchronous handler or an async job created it.
func (s *Server) valueCompute(key string, compute func(ctx context.Context) (any, error)) func(ctx context.Context, emit func(any)) error {
	return func(ctx context.Context, emit func(any)) error {
		// Double-check: a flight for this key may have completed between
		// the caller's cache miss and its join.
		if v, ok := s.cache.get(key); ok {
			s.metrics.cacheHits.Add(1)
			emit(v)
			return nil
		}
		release, err := s.acquire(ctx)
		if err != nil {
			return err
		}
		defer release()
		s.metrics.simulations.Add(1)
		v, err := compute(ctx)
		if err != nil {
			return err
		}
		s.cache.add(key, v)
		emit(v)
		return nil
	}
}

// sharedItems subscribes to (or starts) the flight for key and returns
// everything it produced, in emission order — the non-streaming way to ride
// the singleflight group (async jobs use it; handlers stream instead).
func (s *Server) sharedItems(ctx context.Context, key string, capHint int, compute func(ctx context.Context, emit func(any)) error) ([]any, error) {
	sub, f, created := s.flights.join(s.base, key, capHint)
	if created {
		s.spawnFlight(key, f, compute)
	} else {
		s.metrics.dedupShared.Add(1)
	}
	defer sub.leave()
	var items []any
	for {
		select {
		case v, ok := <-sub.ch:
			if !ok {
				if err := f.Err(); err != nil {
					return nil, err
				}
				return items, nil
			}
			items = append(items, v)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// serveValue answers a single-result request through the cache, the flight
// group and the worker pool, in that order.
func (s *Server) serveValue(w http.ResponseWriter, r *http.Request, key string, compute func(ctx context.Context) (any, error)) {
	if v, ok := s.cache.get(key); ok {
		s.metrics.cacheHits.Add(1)
		writeJSON(w, http.StatusOK, resultEnvelope{Key: key, Cached: true, Report: v})
		return
	}
	s.metrics.cacheMisses.Add(1)
	if s.isDraining() {
		s.writeError(w, errDraining)
		return
	}
	sub, f, created := s.flights.join(s.base, key, 1)
	if created {
		s.spawnFlight(key, f, s.valueCompute(key, compute))
	} else {
		s.metrics.dedupShared.Add(1)
	}
	defer sub.leave()
	var result any
	got := false
	for {
		select {
		case v, ok := <-sub.ch:
			if !ok {
				if err := f.Err(); err != nil {
					s.writeError(w, err)
					return
				}
				if !got {
					s.writeError(w, errNoResult)
					return
				}
				writeJSON(w, http.StatusOK, resultEnvelope{Key: key, Cached: false, Report: result})
				return
			}
			result, got = v, true
		case <-r.Context().Done():
			// Client gone: detach. If we were the last subscriber the
			// flight's context cancels and the worker is freed.
			return
		}
	}
}

// --- sweeps ---

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("sweep")
	var req SweepRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		s.writeError(w, err)
		return
	}
	jobs, budget, key, err := normalizeSweep(req, s.cfg.MaxSweepJobs)
	if err != nil {
		s.writeError(w, err)
		return
	}
	sweepCompute := func(ctx context.Context, emit func(any)) error {
		_, err := s.runSweep(ctx, key, jobs, budget, emit)
		return err
	}
	if r.URL.Query().Get("async") == "true" {
		s.submitAsync(w, systolic.OpSweep, key, func(ctx context.Context, jobID string) (any, error) {
			items, err := s.sharedItems(ctx, key, len(jobs), sweepCompute)
			if err != nil {
				return nil, err
			}
			// Emission order is completion order; the job stores grid order.
			ordered := make([]sweepLine, len(jobs))
			for _, v := range items {
				line := v.(sweepLine)
				ordered[line.Index] = line
			}
			return ordered, nil
		})
		return
	}

	if v, ok := s.cache.get(key); ok {
		s.metrics.cacheHits.Add(1)
		streamLines(w, v.([]sweepLine), true)
		return
	}
	s.metrics.cacheMisses.Add(1)
	if s.isDraining() {
		s.writeError(w, errDraining)
		return
	}
	sub, f, created := s.flights.join(s.base, key, len(jobs))
	if created {
		s.spawnFlight(key, f, sweepCompute)
	} else {
		s.metrics.dedupShared.Add(1)
	}
	defer sub.leave()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Gossipd-Key", key)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	for {
		select {
		case v, ok := <-sub.ch:
			if !ok {
				if err := f.Err(); err != nil && !wroteAnyLine(f) {
					s.writeError(w, err)
				}
				return
			}
			enc.Encode(v.(sweepLine))
			rc.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// wroteAnyLine reports whether the flight produced at least one line; when
// it did, the NDJSON stream has started and an error status can no longer
// be written.
func wroteAnyLine(f *flight) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.produced) > 0
}

// runSweep executes the grid through the streaming sweep engine, emitting
// each result line as it completes, and caches the full ordered result on
// success. A cancelled sweep is not cached.
func (s *Server) runSweep(ctx context.Context, key string, jobs []systolic.SweepJob, budget int, emit func(any)) ([]sweepLine, error) {
	// Double-check the cache (see valueCompute).
	if v, ok := s.cache.get(key); ok {
		s.metrics.cacheHits.Add(1)
		lines := v.([]sweepLine)
		if emit != nil {
			for _, line := range lines {
				emit(line)
			}
		}
		return lines, nil
	}
	release, err := s.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	s.metrics.simulations.Add(1)
	ordered := make([]sweepLine, len(jobs))
	for res := range systolic.SweepStream(ctx, jobs, systolic.WithRoundBudget(budget), s.roundsObserver()) {
		line := toSweepLine(res)
		ordered[line.Index] = line
		if emit != nil {
			emit(line)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.cache.add(key, ordered)
	return ordered, nil
}

// streamLines replays a cached sweep as JSON lines, in job order.
func streamLines(w http.ResponseWriter, lines []sweepLine, cached bool) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	if cached {
		w.Header().Set("X-Gossipd-Cached", "true")
	}
	enc := json.NewEncoder(w)
	for _, line := range lines {
		enc.Encode(line)
	}
}

// --- async jobs ---

// submitAsync accepts a computation as an async job: the response is 202
// with the job id, and GET /v1/jobs/{id} polls it. Saturation is checked at
// submission (429) and again when the job reaches the worker queue; the run
// callback is expected to ride the singleflight group (sharedItems), so
// concurrent identical jobs and sync requests share one simulation.
func (s *Server) submitAsync(w http.ResponseWriter, op, key string, run func(ctx context.Context, jobID string) (any, error)) {
	if s.metrics.queued.Load() >= int64(s.cfg.QueueDepth) {
		s.metrics.rejected.Add(1)
		s.writeError(w, errSaturated)
		return
	}
	done, err := s.startWork()
	if err != nil {
		s.writeError(w, err)
		return
	}
	job := s.jobs.create(op, key)
	go func() {
		defer done()
		defer s.metrics.jobsDone.Add(1)
		s.jobs.start(job.ID)
		var v any
		err := func() (err error) {
			defer s.recoverPanic(&err)
			v, err = run(s.base, job.ID)
			return err
		}()
		s.jobs.finish(job.ID, func(j *Job) {
			switch {
			case err == nil:
				j.Status = JobDone
				switch res := v.(type) {
				case []sweepLine:
					j.Results = res
				default:
					j.Report = res
				}
			case errors.Is(err, systolic.ErrIncomplete) && j.Checkpoint != "":
				j.Status = JobIncomplete
				j.Error = err.Error()
			default:
				j.Status = JobFailed
				j.Error = err.Error()
			}
		})
	}()
	writeJSON(w, http.StatusAccepted, map[string]string{
		"id":         job.ID,
		"status_url": "/v1/jobs/" + job.ID,
	})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("jobs")
	id := r.PathValue("id")
	job, ok := s.jobs.get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job " + id})
		return
	}
	writeJSON(w, http.StatusOK, job)
}
