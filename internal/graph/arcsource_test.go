package graph

import (
	"sort"
	"testing"
)

// sampleDigraph builds a small asymmetric digraph exercising fan-in,
// fan-out, and an isolated vertex.
func sampleDigraph() *Digraph {
	g := New(6)
	g.AddArc(0, 1)
	g.AddArc(0, 2)
	g.AddArc(0, 3)
	g.AddArc(1, 2)
	g.AddArc(2, 0)
	g.AddArc(3, 4)
	g.AddArc(4, 0)
	// vertex 5 is isolated
	return g
}

func TestDigraphSourceMirrorsAdjacency(t *testing.T) {
	g := sampleDigraph()
	src := NewDigraphSource(g)
	if src.N() != g.N() {
		t.Fatalf("N: got %d want %d", src.N(), g.N())
	}
	if src.DegBound() != 3 {
		t.Fatalf("DegBound: got %d want 3", src.DegBound())
	}
	buf := make([]int32, src.DegBound())
	for v := 0; v < g.N(); v++ {
		k := src.OutArcs(v, buf)
		got := make([]int, k)
		for i := 0; i < k; i++ {
			got[i] = int(buf[i])
		}
		sort.Ints(got)
		want := append([]int(nil), g.Out(v)...)
		sort.Ints(want)
		if !equalInts(got, want) {
			t.Errorf("OutArcs(%d): got %v want %v", v, got, want)
		}
		k = src.InArcs(v, buf)
		got = got[:0]
		for i := 0; i < k; i++ {
			got = append(got, int(buf[i]))
		}
		sort.Ints(got)
		want = append(want[:0], g.In(v)...)
		sort.Ints(want)
		if !equalInts(got, want) {
			t.Errorf("InArcs(%d): got %v want %v", v, got, want)
		}
	}
}

func TestMaterializeSourceRoundTrip(t *testing.T) {
	g := sampleDigraph()
	back := MaterializeSource(NewDigraphSource(g))
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip size: got n=%d m=%d want n=%d m=%d",
			back.N(), back.M(), g.N(), g.M())
	}
	for _, a := range g.Arcs() {
		if !back.HasArc(a.From, a.To) {
			t.Errorf("round trip lost arc %v", a)
		}
	}
}

func TestNewFloodGenScratch(t *testing.T) {
	g := sampleDigraph()
	src := NewDigraphSource(g)
	fg := NewFloodGen(src)
	if fg.Src() != FloodSource(src) {
		t.Fatal("Src: wrong generator")
	}
	if fg.N() != g.N() {
		t.Fatalf("N: got %d want %d", fg.N(), g.N())
	}
	if len(fg.ArcBuf()) != src.DegBound() {
		t.Fatalf("ArcBuf: len %d want %d", len(fg.ArcBuf()), src.DegBound())
	}
	// DigraphSource has no OrGatherer fast path.
	if fg.Gatherer() != nil {
		t.Fatal("DigraphSource must not advertise an OrGatherer fast path")
	}
}

// orSource wraps a DigraphSource with a reference OrGatherer so the
// FloodGen fast-path wiring is testable without an arithmetic generator.
type orSource struct{ *DigraphSource }

func (s orSource) OrInChunk(lo, hi int, table, out []uint64) {
	var buf [8]int32
	for v := lo; v < hi; v++ {
		var acc uint64
		k := s.InArcs(v, buf[:])
		for _, u := range buf[:k] {
			acc |= table[u]
		}
		out[v-lo] = acc
	}
}

func TestNewFloodGenGathererPath(t *testing.T) {
	src := orSource{NewDigraphSource(sampleDigraph())}
	fg := NewFloodGen(src)
	if fg.Gatherer() == nil {
		t.Fatal("OrGatherer implementation not detected")
	}
	if fg.ArcBuf() != nil {
		t.Fatalf("ArcBuf: len %d on the fast path, want no fallback scratch", len(fg.ArcBuf()))
	}
	table := []uint64{1, 2, 4, 8, 16, 32}
	out := make([]uint64, 6)
	fg.Gatherer().OrInChunk(0, 6, table, out)
	// in(0)={2,4}, in(1)={0}, in(2)={0,1}, in(3)={0}, in(4)={3}, in(5)={}
	want := []uint64{4 | 16, 1, 1 | 2, 1, 8, 0}
	for v, w := range want {
		if out[v] != w {
			t.Errorf("OrInChunk vertex %d: got %d want %d", v, out[v], w)
		}
	}
}

// TestFloodCSRSource: the lowered flooding CSR is a FloodSource with the
// OrGatherer fast path, and both of its walks agree with the adjacency it
// was lowered from — a wide vertex exercises the 8-word unrolled gather.
func TestFloodCSRSource(t *testing.T) {
	g := New(12)
	for u := 1; u < 12; u++ {
		g.AddArc(u, 0) // in-degree 11: one unrolled block plus a tail
		g.AddArc(0, u)
	}
	g.AddArc(3, 7)
	cs := g.LowerFlood()
	fg := NewFloodGen(cs)
	if fg.Gatherer() == nil || fg.ArcBuf() != nil {
		t.Fatal("FloodCSR must take the OrGatherer fast path without fallback scratch")
	}
	if cs.N() != 12 || cs.DegBound() != 11 {
		t.Fatalf("N %d DegBound %d, want 12 and 11", cs.N(), cs.DegBound())
	}
	table := make([]uint64, 12)
	for v := range table {
		table[v] = 1 << v
	}
	out := make([]uint64, 12)
	cs.OrInChunk(0, 12, table, out)
	buf := make([]int32, cs.DegBound())
	for v := 0; v < 12; v++ {
		var want uint64
		for _, u := range g.In(v) {
			want |= table[u]
		}
		if out[v] != want {
			t.Errorf("OrInChunk vertex %d: got %b want %b", v, out[v], want)
		}
		k := cs.InArcs(v, buf)
		if k != len(g.In(v)) {
			t.Fatalf("InArcs(%d): %d arcs, want %d", v, k, len(g.In(v)))
		}
		for i, u := range buf[:k] {
			if int(u) != g.In(v)[i] {
				t.Errorf("InArcs(%d)[%d] = %d, want %d", v, i, u, g.In(v)[i])
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
