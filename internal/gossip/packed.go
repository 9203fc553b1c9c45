package gossip

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// PackedLanes is the number of broadcast sources one packed pass steps
// simultaneously: the 64 bits of a knowledge word.
const PackedLanes = 64

// PackedFrontier is the bit-parallel multi-source broadcast state: word v
// of the knowledge array holds, in bit s, whether vertex v has been
// informed by lane s's source. One flooding step ORs in-neighbor words
// into every vertex word, advancing up to 64 independent broadcasts at
// once — the exchange op is the same OR whether a word carries one
// source's frontier or sixty-four. The two buffers double-buffer the
// round, so a step reads only beginning-of-round state; StepFloodRange
// performs zero allocations.
type PackedFrontier struct {
	n     int
	lanes int
	full  uint64   // mask of the active lanes
	cur   []uint64 // bit s of word v: vertex v informed in lane s
	next  []uint64 // write buffer for the upcoming step
}

// NewPackedFrontier returns a packed frontier for an n-vertex network with
// no loaded batch; Reset loads one.
func NewPackedFrontier(n int) *PackedFrontier {
	words := make([]uint64, 2*n) // both buffers in one allocation
	return &PackedFrontier{n: n, cur: words[:n:n], next: words[n:]}
}

// Reset loads a batch without reallocating: lane i broadcasts from
// sources[i], so after the call exactly the source bits are set. Scans
// reuse one PackedFrontier across all ⌈sources/64⌉ batches.
//
//gossip:allowpanic range guard: batches come from the scan driver, which validates sources
func (f *PackedFrontier) Reset(sources []int) {
	if len(sources) == 0 || len(sources) > PackedLanes {
		panic(fmt.Sprintf("gossip: packed batch of %d sources (want 1..%d)", len(sources), PackedLanes))
	}
	clear(f.cur)
	for i, s := range sources {
		if s < 0 || s >= f.n {
			panic(fmt.Sprintf("gossip: packed source %d out of range n=%d", s, f.n))
		}
		f.cur[s] |= 1 << i
	}
	f.lanes = len(sources)
	if f.lanes == PackedLanes {
		f.full = ^uint64(0)
	} else {
		f.full = 1<<f.lanes - 1
	}
}

// Lanes returns the number of active lanes of the loaded batch.
func (f *PackedFrontier) Lanes() int { return f.lanes }

// Full returns the mask with one bit per active lane.
func (f *PackedFrontier) Full() uint64 { return f.full }

// Informed reports whether vertex v is informed in lane s.
func (f *PackedFrontier) Informed(v, lane int) bool { return f.cur[v]&(1<<lane) != 0 }

// StepFloodRange computes the next-round words for destinations [lo, hi)
// of one flooding round over fg's source — the CSR lowering or a
// generator: each vertex word ORs in the beginning-of-round words of its
// in-neighbors. A serial step is the range [0, n); shards of one round
// partition [0, n) across workers (disjoint writes to the next buffer,
// read-only current buffer), each with its own FloodGen. When every range
// has returned, exactly one caller must CommitStep.
//
// It returns the AND of the range's words, the lanes that informed at
// least one new vertex in the range (changed) and the range's informed
// (vertex, lane) pairs. The round's results are the AND / OR / sum over
// its ranges; masked by Full, the AND is the lanes whose source now
// reaches every vertex (complete), a lane absent from both complete and
// changed has hit its reachable fixpoint and can never complete, and the
// informed sum is the popcount column total scan progress traces report.
//
// The walk is destination-major in GenChunkVerts chunks. On the
// OrGatherer fast path the source folds the current words over each
// chunk's in-neighborhoods straight into the next buffer — one interface
// call per chunk, no neighbor ids in memory; otherwise each destination
// gathers through the FloodGen's arc buffer.
//
//gossip:hotpath
func (f *PackedFrontier) StepFloodRange(fg *graph.FloodGen, lo, hi int) (and, changed uint64, informed int) {
	cur, nxt := f.cur, f.next
	and = ^uint64(0)
	if og := fg.Gatherer(); og != nil {
		for clo := lo; clo < hi; clo += graph.GenChunkVerts {
			chi := min(clo+graph.GenChunkVerts, hi)
			out := nxt[clo:chi]
			og.OrInChunk(clo, chi, cur, out)
			for j, in := range out {
				pv := cur[clo+j]
				w := pv | in
				out[j] = w
				changed |= w ^ pv
				and &= w
				informed += bits.OnesCount64(w)
			}
		}
		return and, changed, informed
	}
	src := fg.Src()
	buf := fg.ArcBuf()
	for v := lo; v < hi; v++ {
		pv := cur[v]
		w := pv
		k := src.InArcs(v, buf)
		for i := 0; i < k; i++ {
			w |= cur[buf[i]]
		}
		nxt[v] = w
		changed |= w ^ pv
		and &= w
		informed += bits.OnesCount64(w)
	}
	return and, changed, informed
}

// CommitStep publishes a round stepped through StepFloodRange by swapping
// the buffers. Every vertex must have been covered by exactly one range
// since the last commit.
func (f *PackedFrontier) CommitStep() {
	f.cur, f.next = f.next, f.cur
}

// InformedCount returns the current informed (vertex, lane) column count.
func (f *PackedFrontier) InformedCount() int {
	count := 0
	for _, w := range f.cur {
		count += bits.OnesCount64(w)
	}
	return count
}

// CompleteMask returns the lanes whose source currently reaches every
// vertex — the AND-fold over all vertex words, restricted to active lanes.
func (f *PackedFrontier) CompleteMask() uint64 {
	all := ^uint64(0)
	for _, w := range f.cur {
		all &= w
	}
	return all & f.full
}
