package graph

// ArcSource is a generator-backed arc supplier: the implicit counterpart of
// a materialized Digraph. Implementations compute a vertex's neighbor lists
// arithmetically from its id, so a scan over an ArcSource never holds more
// than one vertex's arcs in memory — the seam that lets broadcast kernels
// stream networks whose explicit arc slices would not fit in RAM (a d=27
// hypercube has ~3.6 GiB of arc ids; its generator is three machine words).
//
// Contract: OutArcs(v, buf) writes the out-neighbors of v into buf and
// returns how many it wrote; InArcs is the same for in-neighbors. Lists are
// duplicate-free, never contain v itself, and are deterministic for a given
// implementation, but — unlike Digraph adjacency — not necessarily sorted
// (the flooding kernels OR-fold them, so order is immaterial; differential
// tests sort both sides). buf must have at least DegBound() capacity.
// Implementations must be safe for concurrent use (one ArcSource is shared
// by every worker of a scan) and must not allocate (the generator steps are
// //gossip:hotpath; per-vertex scratch lives in fixed-size local arrays or
// in the caller's buffers).
type ArcSource interface {
	FloodSource
	// OutArcs writes the out-neighbors of v into buf and returns the count.
	OutArcs(v int, buf []int32) int
}

// FloodSource is what the packed flooding kernel reads from an arc source:
// the vertex count, the in-neighbor lists and their degree bound, plus the
// OrGatherer fast path when the source implements it. Every ArcSource is a
// FloodSource, and so is the lowered FloodCSR — the kernel walks computed
// and materialized arcs through the one seam.
type FloodSource interface {
	// N returns the number of vertices.
	N() int
	// DegBound returns an upper bound on any vertex's in-degree (an
	// ArcSource bounds its out-degrees too) — the capacity scans size
	// their per-vertex arc buffers with.
	DegBound() int
	// InArcs writes the in-neighbors of v into buf and returns the count.
	InArcs(v int, buf []int32) int
}

// OrGatherer is the optional fast path of the packed flood kernel: a
// source that implements it OR-folds a word table over in-neighborhoods
// itself, one chunk of destinations per call, replacing the per-vertex
// InArcs round trip with a specialized inner loop (a hypercube chunk is D
// xors and D loads per vertex — no neighbor ids ever touch memory, which
// is how a generator reaches parity with the lowered CSR, itself an
// OrGatherer).
type OrGatherer interface {
	// OrInChunk writes, for each destination v in [lo, hi), the OR of
	// table[u] over v's in-neighbors u into out[v-lo]. It must not read or
	// write table[v] into the fold unless v is its own in-neighbor (it
	// never is: ArcSource lists exclude self-loops), must not allocate,
	// and must be safe for concurrent use on disjoint chunks. out never
	// aliases table: the packed kernel passes the chunk of its next-round
	// buffer.
	OrInChunk(lo, hi int, table, out []uint64)
}

// GenChunkVerts is the number of destination vertices a flooding step
// processes per OrInChunk call on the OrGatherer fast path: large enough to
// amortize the interface dispatch to nothing, small enough that the
// chunk's out words stay L1-resident.
const GenChunkVerts = 4096

// FloodGen is the flooding schedule over a FloodSource — an arithmetic
// generator, the lowered FloodCSR, or any ArcSource — as the packed
// kernel walks it. It owns the per-worker scratch of the InArcs fallback
// (sources without an OrGatherer fast path): one FloodGen per worker; the
// underlying source is shared. It is a small value, so a worker keeps its
// own on the stack or inside its shard state and hands the kernel its
// address.
type FloodGen struct {
	src FloodSource
	og  OrGatherer // non-nil when src implements the fast path
	buf []int32    // per-vertex neighbor scratch, DegBound capacity; nil on the fast path
}

// NewFloodGen returns a worker-private walk over src, allocating the
// fallback scratch once (the subsequent stepping performs zero
// allocations).
func NewFloodGen(src FloodSource) FloodGen {
	og, _ := src.(OrGatherer)
	fg := FloodGen{src: src, og: og}
	if og == nil {
		fg.buf = make([]int32, src.DegBound())
	}
	return fg
}

// Src returns the underlying source.
func (fg *FloodGen) Src() FloodSource { return fg.src }

// N returns the vertex count of the underlying source.
func (fg *FloodGen) N() int { return fg.src.N() }

// Gatherer returns the source's OrGatherer fast path, or nil.
func (fg *FloodGen) Gatherer() OrGatherer { return fg.og }

// ArcBuf returns the per-vertex neighbor scratch (DegBound capacity); nil
// when the source has the OrGatherer fast path.
func (fg *FloodGen) ArcBuf() []int32 { return fg.buf }

// DigraphSource adapts a materialized Digraph to the ArcSource interface —
// the reference generator differential tests pin arithmetic generators
// against, and the bridge that lets generator kernels run on ad-hoc graphs.
// The adjacency is sorted once at construction so neighbor order is
// deterministic and shared use is race-free.
type DigraphSource struct {
	g   *Digraph
	deg int
}

// NewDigraphSource wraps g as an ArcSource.
func NewDigraphSource(g *Digraph) *DigraphSource {
	g.sortAdj()
	deg := 0
	for v := 0; v < g.n; v++ {
		if d := len(g.out[v]); d > deg {
			deg = d
		}
		if d := len(g.in[v]); d > deg {
			deg = d
		}
	}
	return &DigraphSource{g: g, deg: deg}
}

// N returns the vertex count.
func (s *DigraphSource) N() int { return s.g.n }

// DegBound returns the maximum in- or out-degree.
func (s *DigraphSource) DegBound() int { return s.deg }

// OutArcs writes the out-neighbors of v into buf.
//
//gossip:hotpath
func (s *DigraphSource) OutArcs(v int, buf []int32) int {
	adj := s.g.out[v]
	for i, u := range adj {
		buf[i] = int32(u)
	}
	return len(adj)
}

// InArcs writes the in-neighbors of v into buf.
//
//gossip:hotpath
func (s *DigraphSource) InArcs(v int, buf []int32) int {
	adj := s.g.in[v]
	for i, u := range adj {
		buf[i] = int32(u)
	}
	return len(adj)
}

// MaterializeSource expands an ArcSource into an explicit Digraph — the
// small-n bridge differential tests use to pin a generator against the
// materialized builder it mirrors. It must only be called on instances
// whose arc slices fit comfortably in memory.
func MaterializeSource(src ArcSource) *Digraph {
	n := src.N()
	g := New(n)
	buf := make([]int32, src.DegBound())
	for v := 0; v < n; v++ {
		k := src.OutArcs(v, buf)
		for _, u := range buf[:k] {
			g.AddArc(v, int(u))
		}
	}
	return g
}
