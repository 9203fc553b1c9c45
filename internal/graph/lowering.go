package graph

// PackedArc is an arc lowered onto the flat word-array state layout the
// gossip engine executes: SrcOff and DstOff are the first word offsets of
// From's and To's knowledge blocks (vertex × words-per-vertex), precomputed
// so the hot loop never multiplies. From and To are retained for backends
// that address vertices directly (the packed broadcast frontier, the
// completion certificate).
type PackedArc struct {
	SrcOff, DstOff int32
	From, To       int32
}

// PackArcs lowers round onto a words-per-vertex state layout, appending one
// PackedArc per arc to dst and returning the extended slice. Callers
// validate arc ranges; PackArcs itself is a pure layout computation.
func PackArcs(dst []PackedArc, round []Arc, words int) []PackedArc {
	for _, a := range round {
		dst = append(dst, PackedArc{
			SrcOff: int32(a.From * words),
			DstOff: int32(a.To * words),
			From:   int32(a.From),
			To:     int32(a.To),
		})
	}
	return dst
}

// FloodCSR is the flooding level schedule lowered once onto the packed
// one-word-per-vertex state layout: the round is the same every level
// (every arc is active), so the whole schedule compiles to a single
// destination-major CSR. Src[Indptr[v]:Indptr[v+1]] are the precomputed
// word offsets of v's in-neighbors — with one knowledge word per vertex
// the offset of vertex u is u itself, stored as int32 so the hot gather
// loop never widens or multiplies. Destination-major order makes the
// per-round walk cache-blocked by construction: the destination words are
// written strictly sequentially, and because neighbors of consecutive
// destinations cluster in the same regions for the structured topologies
// (hypercube, de Bruijn, tori), the scattered source reads keep re-hitting
// resident lines instead of striding.
//
// A FloodCSR is a FloodSource with the OrGatherer fast path, so the packed
// flooding kernel walks it exactly like an arithmetic generator.
type FloodCSR struct {
	n      int
	deg    int // maximum in-degree
	Indptr []int32
	Src    []int32
}

// LowerFlood lowers the source-independent flooding schedule of g. The
// in-neighbor lists are emitted in sorted order, so the lowering — like
// every compiled artifact — is deterministic for a given arc set.
func (g *Digraph) LowerFlood() *FloodCSR {
	g.sortAdj()
	m := 0
	for v := 0; v < g.n; v++ {
		m += len(g.in[v])
	}
	arena := make([]int32, g.n+1+m) // Indptr then Src, one allocation
	cs := &FloodCSR{
		n:      g.n,
		Indptr: arena[: g.n+1 : g.n+1],
		Src:    arena[g.n+1 : g.n+1],
	}
	for v := 0; v < g.n; v++ {
		for _, u := range g.in[v] {
			cs.Src = append(cs.Src, int32(u))
		}
		cs.Indptr[v+1] = int32(len(cs.Src))
		cs.deg = max(cs.deg, len(g.in[v]))
	}
	return cs
}

// N returns the vertex count.
func (cs *FloodCSR) N() int { return cs.n }

// DegBound returns the maximum in-degree.
func (cs *FloodCSR) DegBound() int { return cs.deg }

// InArcs writes the in-neighbors of v into buf.
//
//gossip:hotpath
func (cs *FloodCSR) InArcs(v int, buf []int32) int {
	return copy(buf, cs.Src[cs.Indptr[v]:cs.Indptr[v+1]])
}

// OrInChunk writes, for each destination v in [lo, hi), the OR of table
// over v's in-neighbors into out[v-lo]. The gather is unrolled to 64 bytes
// (8 words) per iteration so the OR-tree keeps all 8 loads in flight and
// auto-vectorizes.
//
//gossip:hotpath
func (cs *FloodCSR) OrInChunk(lo, hi int, table, out []uint64) {
	indptr, src := cs.Indptr, cs.Src
	for v := lo; v < hi; v++ {
		var w uint64
		s, e := int(indptr[v]), int(indptr[v+1])
		for ; e-s >= 8; s += 8 {
			w |= table[src[s]] | table[src[s+1]] | table[src[s+2]] | table[src[s+3]] |
				table[src[s+4]] | table[src[s+5]] | table[src[s+6]] | table[src[s+7]]
		}
		for ; s < e; s++ {
			w |= table[src[s]]
		}
		out[v-lo] = w
	}
}

// Arcs re-expands the lowered schedule into an explicit arc slice in the
// CSR's destination-major order — the round a scalar reference scan feeds
// to a one-bit frontier, byte-equal in effect to the packed walk.
func (cs *FloodCSR) Arcs() []Arc {
	arcs := make([]Arc, 0, len(cs.Src))
	for v := 0; v < cs.n; v++ {
		for _, u := range cs.Src[cs.Indptr[v]:cs.Indptr[v+1]] {
			arcs = append(arcs, Arc{From: int(u), To: v})
		}
	}
	return arcs
}
