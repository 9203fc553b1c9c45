package gossip

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// Program is a Protocol compiled for a fixed state shape (n processors,
// items-wide knowledge sets): the schedule IR every execution layer shares.
// Compilation does the O(period) work once instead of per step, and proves
// per-round structure the interpreter would have to rediscover every step:
//
//   - arcs are CSR-packed into flat arrays of precomputed
//     (srcWordOff, dstWordOff) pairs, so the hot loop neither chases slice
//     headers nor multiplies vertex ids;
//   - full-duplex opposite pairs (u,v),(v,u) whose endpoints touch no other
//     arc of the round are fused into a single exchange op: both blocks
//     become the OR of their beginning-of-round values in one pass, with no
//     shadow-buffer traffic at all;
//   - a remaining arc whose sender is not also a receiver in the round —
//     every arc of a matching round — reads the live state directly,
//     skipping the beginning-of-round snapshot entirely; only the senders
//     that are genuinely overwritten within their round are snapshotted,
//     through word spans merged at compile time into bulk copies;
//   - shard partitions for any worker count are derived once per
//     (program, workers) pair — per-worker execution orders with balanced,
//     conflict-free cuts — replacing the pool's per-step ownership scan of
//     the whole round.
//
// A Program is immutable after Compile (partitions are memoized under a
// mutex), so one compiled program may back any number of concurrent
// sessions. Executing it is byte-identical to interpreting the protocol's
// arc slices with Step: the OR-merge is commutative and the snapshot/fusion
// analysis preserves beginning-of-round semantics exactly.
type Program struct {
	n     int // processors
	items int // item-space width the offsets were lowered for
	words int // uint64 words per vertex

	mode    Mode
	period  int // 0 = finite
	rounds  int // explicit rounds
	fp      string
	numArcs int

	// fused[fusedStart[r]:fusedStart[r+1]] are round r's exchange ops.
	fused      []exchOp
	fusedStart []int32

	// pairs[roundStart[r]:roundStart[r+1]] are round r's unfused arcs in
	// schedule order, regrouped so the snapshot-reading arcs come first:
	// pairs[roundStart[r]:prevSplit[r]] read the shadow buffer (their
	// sender is overwritten within the round), the rest read live state.
	pairs      []graph.PackedArc
	roundStart []int32
	prevSplit  []int32 // len rounds

	// spans[spanStart[r]:spanStart[r+1]] are the word spans snapshotted at
	// the start of round r: the senders of the prev-reading arcs, merged
	// into maximal contiguous runs.
	spans     []copySpan
	spanStart []int32

	dupDst []bool // per round: some destination receives on more than one arc

	mu    sync.Mutex
	parts map[int]*partition
}

// exchOp is a fused full-duplex opposite pair (A,B)+(B,A): both knowledge
// blocks become the OR of their beginning-of-round values. Fusion is valid
// because neither endpoint appears in any other arc of the round, so the
// pre-op block values are the beginning-of-round values.
type exchOp struct {
	AOff, BOff int32
	A, B       int32
}

// copySpan is a contiguous word range of the state array copied into the
// shadow buffer during a compiled round's snapshot phase.
type copySpan struct {
	off, n int32
}

// partition is the compile-time shard plan of one Program for a fixed
// worker count W. For round r and worker w, base = r*(W+1)+w:
//
//   - fusedOrder[fusedSplit[base]:fusedSplit[base+1]] lists the worker's
//     exchange ops (an op owns both of its endpoints — they touch no other
//     arc — so any assignment is conflict-free);
//   - prevOrder/curOrder with prevSplit/curSplit list the worker's
//     snapshot-reading and live-reading arcs. A round whose destinations
//     are all distinct is cut evenly — any cut is conflict-free; a
//     degenerate round with duplicate destinations is bucketed by receiver
//     so every counts entry and state word keeps a single writer;
//   - spans[spanSplit[base]:spanSplit[base+1]] is the worker's share of the
//     round's snapshot spans, balanced by word count (long spans are cut
//     mid-way; any word is still copied exactly once).
type partition struct {
	workers    int
	fusedOrder []int32
	fusedSplit []int32
	prevOrder  []int32
	prevSplit  []int32
	curOrder   []int32
	curSplit   []int32
	spans      []copySpan
	spanSplit  []int32
}

// Compile lowers a protocol into a Program for an n-processor state with
// items-wide knowledge sets (items = n for gossip, 1 for the broadcast
// backends and the completion certificate). The protocol should already be
// validated against its graph; Compile independently rejects arcs outside
// [0, n) and layouts whose word offsets would overflow the packed int32
// representation.
func Compile(p *Protocol, n, items int) (*Program, error) {
	if n < 0 {
		return nil, fmt.Errorf("gossip: compile with negative processor count %d", n)
	}
	if items < 1 {
		return nil, fmt.Errorf("gossip: compile with item-space width %d, want ≥ 1", items)
	}
	words := (items + 63) / 64
	if int64(n)*int64(words) > math.MaxInt32 {
		return nil, fmt.Errorf("gossip: state of %d×%d words overflows the packed offset space", n, words)
	}
	pr := &Program{
		n:          n,
		items:      items,
		words:      words,
		mode:       p.Mode,
		period:     p.Period,
		rounds:     len(p.Rounds),
		fp:         p.Fingerprint(),
		roundStart: make([]int32, 1, len(p.Rounds)+1),
		fusedStart: make([]int32, 1, len(p.Rounds)+1),
		spanStart:  make([]int32, 1, len(p.Rounds)+1),
		prevSplit:  make([]int32, 0, len(p.Rounds)),
		dupDst:     make([]bool, len(p.Rounds)),
	}
	// Per-vertex round-stamped scratch: incidence counts (any endpoint) and
	// destination counts, shared across rounds.
	incStamp := make([]int32, n)
	inc := make([]int32, n)
	dstStamp := make([]int32, n)
	dst := make([]int32, n)
	senders := make([]int32, 0, n)
	var prevArcs, curArcs []graph.Arc
	for r, round := range p.Rounds {
		stamp := int32(r + 1)
		for _, a := range round {
			if a.From < 0 || a.From >= n || a.To < 0 || a.To >= n {
				return nil, fmt.Errorf("gossip: round %d arc (%d,%d) outside [0, %d)", r, a.From, a.To, n)
			}
			for _, v := range [2]int{a.From, a.To} {
				if incStamp[v] != stamp {
					incStamp[v], inc[v] = stamp, 0
				}
				inc[v]++
			}
			if dstStamp[a.To] != stamp {
				dstStamp[a.To], dst[a.To] = stamp, 0
			}
			dst[a.To]++
			if dst[a.To] > 1 {
				pr.dupDst[r] = true
			}
		}
		// A self-loop counts its vertex twice in inc; that is fine — it only
		// makes fusion stricter.

		// Fuse opposite pairs whose endpoints are exclusive to the pair.
		arcSet := make(map[graph.Arc]struct{}, len(round))
		for _, a := range round {
			arcSet[a] = struct{}{}
		}
		fusable := func(u, v int) bool {
			if inc[u] != 2 || inc[v] != 2 || u == v {
				return false
			}
			_, opp := arcSet[graph.Arc{From: v, To: u}]
			return opp
		}
		prevArcs, curArcs = prevArcs[:0], curArcs[:0]
		for _, a := range round {
			if fusable(a.From, a.To) {
				if a.From < a.To { // emit each pair once
					pr.fused = append(pr.fused, exchOp{
						AOff: int32(a.From * words), BOff: int32(a.To * words),
						A: int32(a.From), B: int32(a.To),
					})
				}
				continue
			}
			// The sender's block is overwritten within this round iff the
			// sender is also a destination: only then must the arc read the
			// beginning-of-round snapshot.
			if dstStamp[a.From] == stamp && dst[a.From] > 0 {
				prevArcs = append(prevArcs, a)
			} else {
				curArcs = append(curArcs, a)
			}
		}
		pr.pairs = graph.PackArcs(pr.pairs, prevArcs, words)
		pr.prevSplit = append(pr.prevSplit, int32(len(pr.pairs)))
		pr.pairs = graph.PackArcs(pr.pairs, curArcs, words)
		pr.roundStart = append(pr.roundStart, int32(len(pr.pairs)))
		pr.fusedStart = append(pr.fusedStart, int32(len(pr.fused)))

		senders = senders[:0]
		for _, a := range prevArcs {
			senders = append(senders, int32(a.From*words))
		}
		pr.spans = appendSenderSpans(pr.spans, senders, words)
		pr.spanStart = append(pr.spanStart, int32(len(pr.spans)))
		pr.numArcs += len(round)
	}
	return pr, nil
}

// appendSenderSpans merges one round's snapshot word blocks into maximal
// contiguous spans: duplicate senders collapse and adjacent blocks coalesce
// into bulk copies.
func appendSenderSpans(spans []copySpan, offs []int32, words int) []copySpan {
	slices.Sort(offs)
	w := int32(words)
	for i := 0; i < len(offs); {
		off := offs[i]
		end := off + w
		i++
		for i < len(offs) && offs[i] <= end {
			if offs[i] == end {
				end += w
			}
			i++
		}
		spans = append(spans, copySpan{off: off, n: end - off})
	}
	return spans
}

// N returns the processor count the program was compiled for.
func (pr *Program) N() int { return pr.n }

// Items returns the item-space width the offsets were lowered for.
func (pr *Program) Items() int { return pr.items }

// Mode returns the protocol's communication model.
func (pr *Program) Mode() Mode { return pr.mode }

// Period returns the systolic period (0 for a finite protocol).
func (pr *Program) Period() int { return pr.period }

// Systolic reports whether the program repeats with a finite period.
func (pr *Program) Systolic() bool { return pr.period > 0 }

// Len returns the number of explicit compiled rounds (one period for a
// systolic protocol).
func (pr *Program) Len() int { return pr.rounds }

// NumArcs returns the total number of schedule arcs across the explicit
// rounds (fused exchanges count as their two arcs).
func (pr *Program) NumArcs() int { return pr.numArcs }

// Fingerprint returns the FNV-1a schedule fingerprint of the source
// protocol — the identity checkpoints and caches key compiled artifacts by.
func (pr *Program) Fingerprint() string { return pr.fp }

// roundIndex maps a 0-based execution round onto an explicit compiled
// round, applying the periodic repetition; it returns -1 when the round is
// out of schedule (negative, or past the end of a finite protocol), which
// executes as an empty round.
func (pr *Program) roundIndex(i int) int {
	if i < 0 {
		return -1
	}
	if pr.period > 0 {
		return i % pr.period
	}
	if i >= pr.rounds {
		return -1
	}
	return i
}

// StepProgram applies execution round i of a compiled program: snapshot
// spans are bulk-copied (only when the round genuinely needs them), fused
// exchanges run in one pass, then the remaining arcs merge their sender's
// beginning-of-round words into their receiver. The result is
// byte-identical to Step(p.Round(i)), and the steady state performs zero
// allocations. Out-of-schedule rounds (finite protocol past its end) are
// no-ops, matching Step(nil).
//
//gossip:hotpath
func (s *State) StepProgram(pr *Program, i int) {
	s.checkProgram(pr)
	r := pr.roundIndex(i)
	if r < 0 {
		return
	}
	if s.shard != nil {
		s.shard.step(pr, r)
		return
	}
	for _, sp := range pr.spans[pr.spanStart[r]:pr.spanStart[r+1]] {
		copy(s.prev[sp.off:sp.off+sp.n], s.cur[sp.off:sp.off+sp.n])
	}
	for _, e := range pr.fused[pr.fusedStart[r]:pr.fusedStart[r+1]] {
		gained, newlyFull := s.exchange(e)
		s.know += int64(gained)
		s.full += int64(newlyFull)
	}
	for _, pa := range pr.pairs[pr.roundStart[r]:pr.prevSplit[r]] {
		gained, becameFull := s.recvFrom(s.prev, pa)
		s.know += int64(gained)
		if becameFull {
			s.full++
		}
	}
	for _, pa := range pr.pairs[pr.prevSplit[r]:pr.roundStart[r+1]] {
		gained, becameFull := s.recvFrom(s.cur, pa)
		s.know += int64(gained)
		if becameFull {
			s.full++
		}
	}
}

//gossip:allowpanic pairing guard: the session layer establishes program/state compatibility
func (s *State) checkProgram(pr *Program) {
	if pr.n != s.n || pr.items != s.items {
		panic(fmt.Sprintf("gossip: program compiled for n=%d items=%d executed on state n=%d items=%d",
			pr.n, pr.items, s.n, s.items))
	}
}

// exchange applies a fused opposite pair: both blocks become the OR of
// their pre-op values in a single pass, no shadow buffer involved. It
// returns the total items gained across both endpoints and how many
// endpoints just reached full knowledge.
func (s *State) exchange(e exchOp) (gained, newlyFull int) {
	w := s.words
	ao, bo := int(e.AOff), int(e.BOff)
	sa := s.cur[ao : ao+w : ao+w]
	sb := s.cur[bo : bo+w : bo+w]
	var ga, gb int
	for i, x := range sa {
		y := sb[i]
		if x == y {
			continue
		}
		m := x | y
		if m != x {
			sa[i] = m
			ga += bits.OnesCount64(m &^ x)
		}
		if m != y {
			sb[i] = m
			gb += bits.OnesCount64(m &^ y)
		}
	}
	if ga > 0 {
		s.counts[e.A] += int32(ga)
		if int(s.counts[e.A]) == s.items {
			newlyFull++
		}
	}
	if gb > 0 {
		s.counts[e.B] += int32(gb)
		if int(s.counts[e.B]) == s.items {
			newlyFull++
		}
	}
	return ga + gb, newlyFull
}

// recvFrom merges the sender's block read from src (the shadow buffer for
// snapshot-reading arcs, the live state for the rest) into the receiver.
// The word offsets come straight from the program, so the hot loop performs
// no vertex-id arithmetic.
func (s *State) recvFrom(srcArr []uint64, pa graph.PackedArc) (gained int, becameFull bool) {
	w := s.words
	so, do := int(pa.SrcOff), int(pa.DstOff)
	src := srcArr[so : so+w]
	dst := s.cur[do : do+w : do+w]
	for i, sw := range src {
		old := dst[i]
		if nw := old | sw; nw != old {
			dst[i] = nw
			gained += bits.OnesCount64(nw &^ old)
		}
	}
	if gained > 0 {
		s.counts[pa.To] += int32(gained)
		becameFull = int(s.counts[pa.To]) == s.items
	}
	return gained, becameFull
}

// partition returns the shard plan for a pool's worker count (at least 1),
// computing it on first use and memoizing it; concurrent sessions sharing
// one compiled program therefore pay the partitioning cost once per
// (program, workers).
//
//gossip:allowalloc amortized: the shard plan is memoized per (program, workers) and built off the steady-state step loop
func (pr *Program) partition(workers int) *partition {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if part, ok := pr.parts[workers]; ok {
		return part
	}
	part := pr.buildPartition(workers)
	if pr.parts == nil {
		pr.parts = make(map[int]*partition)
	}
	pr.parts[workers] = part
	return part
}

func (pr *Program) buildPartition(workers int) *partition {
	part := &partition{workers: workers}
	var buckets [][]int32 // scratch for the rare duplicate-destination rounds
	// cutList appends one round's share of an op list [lo, hi) to order,
	// emitting workers+1 boundaries into split. Duplicate-destination
	// rounds bucket by owner(j) so every receiver keeps a single writer;
	// otherwise the list is cut evenly in schedule order.
	cutList := func(order []int32, split []int32, lo, hi int, dup bool, owner func(j int) int) ([]int32, []int32) {
		m := hi - lo
		base := len(order)
		if !dup {
			for j := lo; j < hi; j++ {
				order = append(order, int32(j))
			}
			for w := 0; w < workers; w++ {
				split = append(split, int32(base+m*w/workers))
			}
		} else {
			if buckets == nil {
				buckets = make([][]int32, workers)
			}
			for w := range buckets {
				buckets[w] = buckets[w][:0]
			}
			for j := lo; j < hi; j++ {
				w := owner(j) % workers
				buckets[w] = append(buckets[w], int32(j))
			}
			for w := 0; w < workers; w++ {
				split = append(split, int32(len(order)))
				order = append(order, buckets[w]...)
			}
		}
		return order, append(split, int32(len(order)))
	}
	for r := 0; r < pr.rounds; r++ {
		dup := pr.dupDst[r]
		part.fusedOrder, part.fusedSplit = cutList(part.fusedOrder, part.fusedSplit,
			int(pr.fusedStart[r]), int(pr.fusedStart[r+1]), dup,
			func(j int) int { return int(pr.fused[j].A) })
		part.prevOrder, part.prevSplit = cutList(part.prevOrder, part.prevSplit,
			int(pr.roundStart[r]), int(pr.prevSplit[r]), dup,
			func(j int) int { return int(pr.pairs[j].To) })
		part.curOrder, part.curSplit = cutList(part.curOrder, part.curSplit,
			int(pr.prevSplit[r]), int(pr.roundStart[r+1]), dup,
			func(j int) int { return int(pr.pairs[j].To) })

		spans := pr.spans[pr.spanStart[r]:pr.spanStart[r+1]]
		total := 0
		for _, sp := range spans {
			total += int(sp.n)
		}
		per := (total + workers - 1) / workers
		if per < 1 {
			per = 1
		}
		part.spanSplit = append(part.spanSplit, int32(len(part.spans)))
		emitted := 1
		left := per
		for _, sp := range spans {
			off, n := sp.off, sp.n
			for n > 0 {
				take := n
				if int(take) > left {
					take = int32(left)
				}
				part.spans = append(part.spans, copySpan{off: off, n: take})
				off += take
				n -= take
				left -= int(take)
				if left == 0 && emitted < workers {
					part.spanSplit = append(part.spanSplit, int32(len(part.spans)))
					emitted++
					left = per
				}
			}
		}
		for ; emitted <= workers; emitted++ {
			part.spanSplit = append(part.spanSplit, int32(len(part.spans)))
		}
	}
	return part
}

// sharding steps a State's compiled rounds through a par.Pool. Every word
// of the state has one writer per phase, so the result is byte-identical to
// a serial step for any arc set, not just matchings.
type sharding struct {
	st    *State
	pool  *par.Pool
	run   func(w int) // runShard, bound once so a round allocates nothing
	prog  *Program    // the program in flight; a session steps one at a time
	part  *partition  // prog's memoized shard plan
	r     int
	phase uint8 // 0: snapshot senders, 1: merge receivers
}

// step runs one compiled round as a snapshot Run and a merge Run: the
// barrier between them orders every merge after every snapshot, keeping
// beginning-of-round semantics. Rounds the compiler proved need no shadow
// copies (every matching and fully fused round) skip the snapshot.
func (sh *sharding) step(pr *Program, r int) {
	if sh.prog != pr {
		sh.prog, sh.part = pr, pr.partition(sh.pool.Workers())
	}
	sh.r, sh.phase = r, 0
	if pr.spanStart[r] == pr.spanStart[r+1] {
		sh.phase = 1
	}
	for ; sh.phase < 2; sh.phase++ {
		sh.pool.Run(sh.run)
	}
}

func (sh *sharding) runShard(w int) { sh.st.shardCompiled(sh.prog, sh.part, sh.r, sh.phase, w) }

// shardCompiled executes one worker's slice of a compiled round phase. The
// partition was cut at compile time, so the worker touches only its own
// spans and ops — no scan over the round, no ownership arithmetic.
func (s *State) shardCompiled(pr *Program, part *partition, r int, phase uint8, w int) {
	base := r*(part.workers+1) + w
	if phase == 0 {
		for _, sp := range part.spans[part.spanSplit[base]:part.spanSplit[base+1]] {
			copy(s.prev[sp.off:sp.off+sp.n], s.cur[sp.off:sp.off+sp.n])
		}
		return
	}
	var gained, newlyFull int64
	for _, j := range part.fusedOrder[part.fusedSplit[base]:part.fusedSplit[base+1]] {
		g, nf := s.exchange(pr.fused[j])
		gained += int64(g)
		newlyFull += int64(nf)
	}
	for _, j := range part.prevOrder[part.prevSplit[base]:part.prevSplit[base+1]] {
		g, becameFull := s.recvFrom(s.prev, pr.pairs[j])
		gained += int64(g)
		if becameFull {
			newlyFull++
		}
	}
	for _, j := range part.curOrder[part.curSplit[base]:part.curSplit[base+1]] {
		g, becameFull := s.recvFrom(s.cur, pr.pairs[j])
		gained += int64(g)
		if becameFull {
			newlyFull++
		}
	}
	if gained != 0 {
		atomic.AddInt64(&s.know, gained)
		atomic.AddInt64(&s.full, newlyFull)
	}
}

// StepProgram applies execution round i of a compiled program to the packed
// broadcast frontier and returns the number of newly informed vertices. It
// is byte-identical to Step(p.Round(i)).
//
//gossip:allowpanic pairing guard: the session layer establishes program/state compatibility
//gossip:hotpath
func (f *FrontierState) StepProgram(pr *Program, i int) int {
	if pr.n != f.n {
		panic(fmt.Sprintf("gossip: program compiled for n=%d executed on frontier n=%d", pr.n, f.n))
	}
	copy(f.prev, f.informed)
	r := pr.roundIndex(i)
	if r < 0 {
		return 0
	}
	gained := 0
	for _, e := range pr.fused[pr.fusedStart[r]:pr.fusedStart[r+1]] {
		if f.prev.has(int(e.A)) && !f.informed.has(int(e.B)) {
			f.informed.set(int(e.B))
			gained++
		}
		if f.prev.has(int(e.B)) && !f.informed.has(int(e.A)) {
			f.informed.set(int(e.A))
			gained++
		}
	}
	for _, pa := range pr.pairs[pr.roundStart[r]:pr.roundStart[r+1]] {
		if f.prev.has(int(pa.From)) && !f.informed.has(int(pa.To)) {
			f.informed.set(int(pa.To))
			gained++
		}
	}
	f.know += gained
	return gained
}

// CompletionCertificate verifies Definition 3.1 condition 2 on the compiled
// schedule: for every ordered pair (x, y) a time-respecting dipath from x
// to y exists within the first t execution rounds. See the package-level
// CompletionCertificate for the semantics; this is the same forward
// propagation driven by the packed schedule.
func (pr *Program) CompletionCertificate(t int) bool {
	n := pr.n
	reached := make([]int, n)
	gained := make([]int32, 0, n)
	for x := 0; x < n; x++ {
		stamp := x + 1
		reached[x] = stamp
		cnt := 1
		for r := 0; r < t && cnt < n; r++ {
			idx := pr.roundIndex(r)
			if idx < 0 {
				continue
			}
			gained = gained[:0]
			stage := func(from, to int32) {
				if reached[from] == stamp && reached[to] != stamp {
					gained = append(gained, to)
				}
			}
			for _, e := range pr.fused[pr.fusedStart[idx]:pr.fusedStart[idx+1]] {
				stage(e.A, e.B)
				stage(e.B, e.A)
			}
			for _, pa := range pr.pairs[pr.roundStart[idx]:pr.roundStart[idx+1]] {
				stage(pa.From, pa.To)
			}
			for _, v := range gained {
				reached[v] = stamp
			}
			cnt += len(gained)
		}
		if cnt < n {
			return false
		}
	}
	return true
}
