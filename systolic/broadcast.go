package systolic

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/par"
)

// BroadcastReport compares a measured broadcast time against the
// bounded-degree lower bound b(G) ≥ c(d)·log₂(n) of Liestman–Peters and
// Bermond et al. [22,2] that the paper's Section 6 ties to the full-duplex
// systolic bounds. It is JSON-serializable.
type BroadcastReport struct {
	Network  string `json:"network"`
	Source   int    `json:"source"`
	Measured int    `json:"measured_rounds"`
	// CBound is the certified information/degree lower bound:
	// max(⌈log₂ n⌉ floor of the c(d)·log₂ n bound, eccentricity of the
	// source).
	CBound int `json:"c_bound"`
	// C is the constant c(d) for the network's degree parameter.
	C DegreeConstant `json:"c"`
}

// DegreeConstant is the broadcasting constant c(d) of a degree parameter d.
// It is +Inf for d = 1, where broadcasting takes linear rather than
// logarithmic time; JSON has no infinity, so +Inf encodes as null.
type DegreeConstant float64

// MarshalJSON implements json.Marshaler.
func (c DegreeConstant) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(c), 1) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(c))
}

// AnalyzeBroadcast builds the BFS-tree broadcast schedule from source,
// simulates it (context-aware, within the WithRoundBudget cap), and
// evaluates the broadcasting lower bound. The measured time always
// dominates the bound (tests rely on this). It is a convenience wrapper
// over NewBroadcastEngine + Session.AnalyzeBroadcast; the session runs the
// packed frontier backend, one bit per vertex.
func AnalyzeBroadcast(ctx context.Context, net *Network, source int, opts ...Option) (*BroadcastReport, error) {
	sess, err := NewBroadcastEngine(net, source, opts...)
	if err != nil {
		return nil, fmt.Errorf("systolic: broadcast on %s: %w", net.Name, err)
	}
	defer sess.Close()
	return sess.AnalyzeBroadcast(ctx)
}

// AnalyzeBroadcast runs the broadcast session to completion (resuming from
// wherever it is) and evaluates the broadcasting lower bound. It errors on
// gossip sessions (use Analyze). Since the certification refactor it is a
// view over Session.Certify: a budget-truncated run, which Certify reports
// as an inapplicable certificate, keeps surfacing here as ErrIncomplete.
func (s *Session) AnalyzeBroadcast(ctx context.Context) (*BroadcastReport, error) {
	if !s.broadcast {
		return nil, fmt.Errorf("%w: broadcast on %s: gossip sessions produce Reports", ErrWrongMode, s.net.Name)
	}
	cert, err := s.certifyBroadcast(ctx, "broadcast on")
	if err != nil {
		return nil, err
	}
	if !cert.Complete {
		return nil, fmt.Errorf("systolic: broadcast on %s: %w (budget %d)", s.net.Name, ErrIncomplete, s.budget)
	}
	return &BroadcastReport{
		Network:  cert.Network,
		Source:   cert.Broadcast.Source,
		Measured: cert.Measured,
		CBound:   cert.Broadcast.CBound,
		C:        cert.Broadcast.C,
	}, nil
}

// String renders the report.
func (r *BroadcastReport) String() string {
	return fmt.Sprintf("%s: broadcast from %d in %d rounds ≥ certified bound %d (c(d)=%.4f asymptotic)",
		r.Network, r.Source, r.Measured, r.CBound, r.C)
}

// RoundsBucket is one bucket of the per-source rounds histogram: Count
// sources complete in exactly Rounds rounds.
type RoundsBucket struct {
	Rounds int `json:"rounds"`
	Count  int `json:"count"`
}

// BroadcastAllReport is the outcome of measuring the flooding broadcast
// time from a set of sources (every vertex unless WithSources restricts
// the scan): the per-source round counts plus the extremes and summary
// statistics. Under flooding — every informed vertex informs all its
// out-neighbors each round, the schedule the packed 64-source kernel steps
// — the time from source v is exactly v's directed eccentricity, so
// max_rounds over all sources is the network's flooding broadcast time
// b(G) (the diameter), and the statistics are the network's eccentricity
// profile. It is JSON-serializable.
type BroadcastAllReport struct {
	Network string `json:"network"`
	// Sources lists the scanned sources when the scan was restricted with
	// WithSources; nil (omitted) means every vertex was scanned and
	// Rounds[v] belongs to source v.
	Sources []int `json:"sources,omitempty"`
	// Rounds[i] is the measured broadcast time from the i-th scanned
	// source (vertex i on a full scan, Sources[i] on a subset scan).
	Rounds []int `json:"rounds_by_source"`
	// Worst and WorstSource locate b(G) = max over the scanned sources;
	// Best and BestSource the cheapest source. The source fields hold
	// vertex ids, also on subset scans.
	Worst       int `json:"worst_rounds"`
	WorstSource int `json:"worst_source"`
	Best        int `json:"best_rounds"`
	BestSource  int `json:"best_source"`
	// MeanRounds and Histogram summarize the per-source eccentricity
	// profile: the mean broadcast time over the scanned sources and the
	// count of sources per distinct round value, ascending.
	MeanRounds float64        `json:"mean_rounds"`
	Histogram  []RoundsBucket `json:"rounds_histogram"`
	// Bound is the per-source certification floor: the c(d)·log₂ n lower
	// bound evaluated against every scanned source's measurement during the
	// scan's summary pass (Source is -1; MinRounds/MaxRounds bracket the
	// measurements; Violations counts sources below the floor). It points
	// into boundStore so summaries stay allocation-free beyond the report.
	Bound      *BroadcastBound `json:"bound,omitempty"`
	boundStore BroadcastBound
}

// AnalyzeBroadcastAll measures the flooding broadcast time from every
// source of the network (or the WithSources subset) in one scan.
//
// Flooding is source-independent — the same "every arc, every round"
// schedule serves all sources — so the scan packs up to 64 sources into
// the 64 bits of each knowledge word and steps them simultaneously
// (gossip.PackedFrontier): ⌈sources/64⌉ passes replace the per-source
// loop, batches run in parallel across WithWorkers workers, and per-bit
// completion tracking recovers every source's exact round count.
//
// Note this deliberately measures a different schedule than the
// single-source AnalyzeBroadcast, which builds a per-source BFS-tree
// whispering schedule (one call per informed vertex per round): the
// whispering time upper-bounds b(G, v), while the flooding time here is
// exactly the eccentricity floor the Section 6 certification compares
// against — and, unlike per-source tree schedules, it is shareable across
// lanes. A source that exceeds the WithRoundBudget cap aborts the scan
// with ErrIncomplete; a source that cannot reach every vertex aborts it
// with ErrUnreachable (raising the budget cannot help).
//
// The one packed kernel walks an arc source: the flooding schedule lowered
// once into a destination-major CSR (graph.LowerFlood), or — on networks
// carrying a generator — arcs computed on the fly, touching only O(n)
// frontier memory. The scan streams the generator automatically for
// implicit networks, for generator-backed networks above
// DefaultImplicitScanNodes, and when the CSR would not fit a WithMaxMemory
// cap; WithImplicitScan forces it. Reports and errors are byte-identical
// across arc sources and worker counts.
func AnalyzeBroadcastAll(ctx context.Context, net *Network, opts ...Option) (*BroadcastAllReport, error) {
	cfg := newConfig(opts)
	sources, explicit, err := scanSources(net, cfg.sources)
	if err != nil {
		return nil, err
	}
	useGen, err := pickScanSource(net, len(sources), cfg)
	if err != nil {
		return nil, err
	}
	rep := &BroadcastAllReport{Network: net.Name, Rounds: make([]int, len(sources))}
	if explicit {
		rep.Sources = sources
	}
	var src graph.FloodSource = net.Gen
	if !useGen {
		src = net.G.LowerFlood()
	}
	if err := packedScan(ctx, net, src, sources, rep.Rounds, cfg); err != nil {
		return nil, err
	}
	rep.summarize(net, sources)
	return rep, nil
}

// pickScanSource decides between the lowered CSR and the streaming
// generator as the scan's arc source. Forcing (WithImplicitScan) wins, then
// necessity (an implicit network has nothing to lower), then the size
// heuristic, then the WithMaxMemory guard rail — which can demote a
// CSR-eligible scan to the generator path, or fail it with ErrMemoryBudget
// when neither source fits the cap.
func pickScanSource(net *Network, nsrc int, cfg config) (useGen bool, err error) {
	hasGen := net.Gen != nil
	switch {
	case cfg.implicitScan:
		if !hasGen {
			return false, fmt.Errorf("systolic: broadcast-all on %s: %w: WithImplicitScan needs a generator-backed network",
				net.Name, ErrBadParam)
		}
		useGen = true
	case net.Implicit():
		// Implicit networks always carry a generator (PlainImplicit and
		// ClassifiedImplicit are the only constructors of G == nil).
		useGen = true
	case hasGen && net.N() > DefaultImplicitScanNodes:
		useGen = true
	}
	if cfg.maxMemory > 0 {
		genBytes, csrBytes := scanFootprint(net, nsrc, cfg)
		need := csrBytes
		if useGen {
			need = genBytes
		} else if csrBytes > cfg.maxMemory && hasGen && genBytes <= cfg.maxMemory {
			// The CSR would blow the cap but streaming the generator
			// fits: fall back instead of failing.
			useGen, need = true, genBytes
		}
		if need > cfg.maxMemory {
			return false, fmt.Errorf("systolic: broadcast-all on %s: %w (estimated working set ~%d bytes, cap %d)",
				net.Name, ErrMemoryBudget, need, cfg.maxMemory)
		}
	}
	return useGen, nil
}

// scanFootprint estimates the working bytes of a generator and a CSR scan:
// per-worker frontier state plus, for the CSR, the shared lowering (4-byte
// indptr per vertex, 4-byte source per arc). The estimates are deliberately
// coarse — they gate WithMaxMemory, they do not meter an allocator.
func scanFootprint(net *Network, nsrc int, cfg config) (genBytes, csrBytes int64) {
	n := int64(net.N())
	frontier := 16 * n // two 8-byte knowledge words per vertex
	workers := int64(min(cfg.workers, (nsrc+gossip.PackedLanes-1)/gossip.PackedLanes))
	genBytes = workers * frontier
	csrBytes = workers*frontier + 4*(n+1)
	if net.G != nil {
		csrBytes += 4 * int64(net.G.M())
	}
	return genBytes, csrBytes
}

// scanSources resolves the scan's source list: every vertex when sources
// is nil, otherwise a validated copy of the subset (in caller order).
func scanSources(net *Network, sources []int) (list []int, explicit bool, err error) {
	n := net.N()
	if sources == nil {
		list = make([]int, n)
		for v := range list {
			list[v] = v
		}
		return list, false, nil
	}
	if len(sources) == 0 {
		return nil, false, fmt.Errorf("systolic: broadcast-all on %s: %w: empty source list (omit WithSources to scan every vertex)",
			net.Name, ErrBadParam)
	}
	// A sorted copy is valid exactly when its extremes are in range and it
	// has no adjacent repeats; only an invalid list pays for the map that
	// finds the first failure in caller order.
	list = slices.Clone(sources)
	slices.Sort(list)
	if list[0] < 0 || list[len(list)-1] >= n || len(slices.Compact(list)) < len(list) {
		seen := make(map[int]bool, len(sources))
		for _, s := range sources {
			if s < 0 || s >= n {
				return nil, false, fmt.Errorf("systolic: broadcast-all on %s: %w: source %d outside [0, %d)",
					net.Name, ErrBadParam, s, n)
			}
			if seen[s] {
				return nil, false, fmt.Errorf("systolic: broadcast-all on %s: %w: duplicate source %d",
					net.Name, ErrBadParam, s)
			}
			seen[s] = true
		}
	}
	return append(list[:0], sources...), true, nil
}

// summarize fills the extremes, the eccentricity statistics and the
// per-source certification floor from the measured rounds — one pass over
// the per-source scan results. Ties keep the earliest scanned source, so
// reports are independent of the arc source and worker count.
func (r *BroadcastAllReport) summarize(net *Network, sources []int) {
	c, lb := broadcastBoundEcc(net, 0)
	bound := &r.boundStore
	*bound = BroadcastBound{Source: -1, C: c, CBound: lb, Applicable: true,
		ScannedSources: len(r.Rounds), MinRounds: r.Rounds[0], MaxRounds: r.Rounds[0]}
	r.Best, r.Worst = r.Rounds[0], r.Rounds[0]
	r.BestSource, r.WorstSource = sources[0], sources[0]
	sum := 0
	for i, rounds := range r.Rounds {
		sum += rounds
		if rounds > r.Worst {
			r.Worst, r.WorstSource = rounds, sources[i]
		}
		if rounds < r.Best {
			r.Best, r.BestSource = rounds, sources[i]
		}
		if rounds < lb {
			if bound.Violations == 0 {
				src := sources[i]
				bound.ViolatingSource = &src
			}
			bound.Violations++
		}
	}
	bound.MinRounds, bound.MaxRounds = r.Best, r.Worst
	bound.Respected = bound.Violations == 0
	r.Bound = bound
	r.MeanRounds = float64(sum) / float64(len(r.Rounds))
	// Count into one bucket per round value, then compact the empty ones
	// out in place.
	hist := make([]RoundsBucket, r.Worst+1)
	for _, rounds := range r.Rounds {
		hist[rounds].Count++
	}
	r.Histogram = hist[:0]
	for rounds, b := range hist {
		if b.Count > 0 {
			r.Histogram = append(r.Histogram, RoundsBucket{Rounds: rounds, Count: b.Count})
		}
	}
}

// The scan error constructors are shared with the scalar reference scan
// the tests keep, so the packed engine is pinned error-equal — not just
// errors.Is-equal — to it.

func errScanCtx(net *Network, err error) error {
	return fmt.Errorf("systolic: broadcast-all on %s: %w", net.Name, err)
}

func errScanIncomplete(net *Network, source, budget int) error {
	return fmt.Errorf("systolic: broadcast-all on %s from %d: %w (budget %d)",
		net.Name, source, ErrIncomplete, budget)
}

func errScanUnreachable(net *Network, source, rounds int) error {
	// Raising the budget cannot help a stalled frontier, so this is
	// deliberately not ErrIncomplete.
	return fmt.Errorf("%w: broadcast-all on %s from source %d (frontier stalled after %d rounds)",
		ErrUnreachable, net.Name, source, rounds)
}

// packedScan is the bit-parallel scan over one arc source — the lowered
// CSR or the network's generator: ⌈sources/64⌉ batches of up to 64
// sources, claimed in scan order across the workers. Batches are
// independent, so reports are byte-identical for every worker count; a
// lone batch leaves all but one worker idle, so it range-shards each step
// across a pool instead (floodStep). Claiming stops at the first failing
// batch and every batch before it runs to completion, so the error that
// surfaces is the scan-order first.
func packedScan(ctx context.Context, net *Network, src graph.FloodSource, sources, rounds []int, cfg config) error {
	n := net.N()
	batches := (len(sources) + gossip.PackedLanes - 1) / gossip.PackedLanes
	type worker struct {
		pf   *gossip.PackedFrontier
		step floodStepper
		b    int // the batch err belongs to
		err  error
	}
	ws := make([]worker, min(cfg.workers, batches))
	defer func() {
		for _, wk := range ws {
			if wk.step != nil {
				wk.step.close()
			}
		}
	}()
	par.Each(len(ws), batches, func(w, b int) bool {
		wk := &ws[w]
		if wk.pf == nil {
			wk.pf, wk.step = gossip.NewPackedFrontier(n), floodStep(src, n, batches, cfg)
		}
		wk.b, wk.err = b, packedBatch(ctx, net, wk.step, wk.pf, sources, rounds, b, cfg)
		return wk.err == nil
	})
	var err error
	first := batches
	for _, wk := range ws {
		if wk.err != nil && wk.b < first {
			first, err = wk.b, wk.err
		}
	}
	return err
}

// floodStepper advances a packed frontier one flooding round over an arc
// source, returning the kernel triple (complete, changed, informed) masked
// to the batch's active lanes. close releases its workers, if any.
type floodStepper interface {
	step(pf *gossip.PackedFrontier) (complete, changed uint64, informed int)
	close()
}

// floodStep builds the stepper over src for one worker of a scan of
// batches batches. It is the range-sharding rule of the packed flood step,
// for any arc source: a single batch on a multi-worker scan splits each
// round into chunk-aligned vertex ranges across cfg.workers once the
// network clears the shard threshold; otherwise the worker steps whole
// rounds over [0, n).
func floodStep(src graph.FloodSource, n, batches int, cfg config) floodStepper {
	shards := 1
	if batches == 1 && n >= cfg.shardThreshold {
		shards = cfg.workers
	}
	chunks := (n + graph.GenChunkVerts - 1) / graph.GenChunkVerts
	shards = min(shards, chunks)
	if shards <= 1 {
		return &serialFlood{fg: graph.NewFloodGen(src), n: n}
	}
	s := &shardedFlood{shards: make([]floodShard, shards), pool: par.New(shards)}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.fg = graph.NewFloodGen(src)
		sh.lo, sh.hi = chunks*i/shards*graph.GenChunkVerts, n
		if i+1 < shards {
			sh.hi = chunks * (i + 1) / shards * graph.GenChunkVerts
		}
	}
	s.run = s.stepShard
	return s
}

// serialFlood steps whole rounds on the calling goroutine.
type serialFlood struct {
	fg graph.FloodGen
	n  int
}

func (s *serialFlood) step(pf *gossip.PackedFrontier) (uint64, uint64, int) {
	and, changed, informed := pf.StepFloodRange(&s.fg, 0, s.n)
	return commitRound(pf, and, changed, informed)
}

func (s *serialFlood) close() {}

// commitRound publishes a stepped round and masks its results to the
// batch's active lanes.
func commitRound(pf *gossip.PackedFrontier, and, changed uint64, informed int) (uint64, uint64, int) {
	pf.CommitStep()
	full := pf.Full()
	return and & full, changed & full, informed
}

// shardedFlood steps one flooding round as concurrent vertex ranges:
// [0, n) splits into chunk-aligned ranges, each with its own FloodGen and
// all disjoint, so the contract of StepFloodRange holds; the shard triples
// fold and the round commits once. Everything, the pool included, is built
// up front and lives as long as the scan, so a round allocates nothing.
type shardedFlood struct {
	shards []floodShard
	pool   *par.Pool              // one worker per shard
	cur    *gossip.PackedFrontier // the frontier of the round in flight
	run    func(w int)            // s.stepShard, bound once
}

// floodShard is one vertex range of a sharded round and its raw result.
type floodShard struct {
	fg           graph.FloodGen
	lo, hi       int
	and, changed uint64
	informed     int
	_            [5]uint64 // keep shard results off each other's cache line
}

func (s *shardedFlood) stepShard(w int) {
	sh := &s.shards[w]
	sh.and, sh.changed, sh.informed = s.cur.StepFloodRange(&sh.fg, sh.lo, sh.hi)
}

func (s *shardedFlood) step(pf *gossip.PackedFrontier) (uint64, uint64, int) {
	s.cur = pf
	s.pool.Run(s.run)
	and, changed, informed := ^uint64(0), uint64(0), 0
	for i := range s.shards {
		sh := &s.shards[i]
		and &= sh.and
		changed |= sh.changed
		informed += sh.informed
	}
	return commitRound(pf, and, changed, informed)
}

func (s *shardedFlood) close() { s.pool.Close() }

// packedBatch steps one batch of up to 64 sources to per-lane completion,
// stall, or the round budget, reproducing the scalar reference's
// per-source outcomes exactly: a lane completing within the budget records its round,
// and the first failing lane (in scan order) aborts with the same error
// the scalar scan would have produced for that source.
func packedBatch(ctx context.Context, net *Network, step floodStepper, pf *gossip.PackedFrontier, sources, rounds []int, b int, cfg config) error {
	n := net.N()
	lo := b * gossip.PackedLanes
	hi := lo + gossip.PackedLanes
	if hi > len(sources) {
		hi = len(sources)
	}
	batch := sources[lo:hi]
	if n == 1 {
		// Already complete at round 0; the step loop only observes
		// completion after a round.
		for i := range batch {
			rounds[lo+i] = 0
		}
		return nil
	}
	pf.Reset(batch)
	so, _ := cfg.observer.(ScanObserver)
	var done, stalled uint64
	var stallRound [gossip.PackedLanes]int
	remaining := pf.Full()
	for r := 1; remaining != 0 && r <= cfg.budget; r++ {
		if err := ctx.Err(); err != nil {
			return errScanCtx(net, err)
		}
		complete, changed, informed := step.step(pf)
		for m := complete &^ done; m != 0; m &= m - 1 {
			rounds[lo+bits.TrailingZeros64(m)] = r
		}
		done |= complete
		newlyStalled := remaining &^ (changed | complete)
		for m := newlyStalled; m != 0; m &= m - 1 {
			// The stalling step gained nothing, so the scalar reference
			// reports one fewer productive round.
			stallRound[bits.TrailingZeros64(m)] = r - 1
		}
		stalled |= newlyStalled
		remaining &^= complete | newlyStalled
		if cfg.observer != nil {
			if so != nil {
				so.ScanRound(b, r, informed, pf.Lanes()*n)
			} else {
				cfg.observer.Round(r, informed, pf.Lanes()*n)
			}
		}
	}
	for i := range batch {
		bit := uint64(1) << i
		switch {
		case done&bit != 0:
		case stalled&bit != 0:
			return errScanUnreachable(net, batch[i], stallRound[i])
		default:
			return errScanIncomplete(net, batch[i], cfg.budget)
		}
	}
	return nil
}

// String renders the report.
func (r *BroadcastAllReport) String() string {
	return fmt.Sprintf("%s: b(G) = %d rounds (worst source %d, best %d from %d, mean %.2f over %d sources)",
		r.Network, r.Worst, r.WorstSource, r.Best, r.BestSource, r.MeanRounds, len(r.Rounds))
}
