package gossip_test

import (
	"testing"

	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/topology"
)

// The packed flood kernel over its three kinds of arc source on hypercube
// d=12: the lowered CSR, the arithmetic generator (both on the OrGatherer
// fast path) and the per-vertex InArcs fallback. Same schedule, same
// packed 64-lane state, one StepFloodRange over [0, n) plus CommitStep per
// op. The first two report their resident footprint as bytes/node — the
// number the scale tier is about: the CSR carries 4(indptr) + 4·deg arc
// bytes per vertex on top of the 16 frontier bytes, while the generator
// adds nothing.

func packedBenchSetup(b *testing.B, n int) *gossip.PackedFrontier {
	b.Helper()
	sources := make([]int, gossip.PackedLanes)
	for i := range sources {
		sources[i] = i % n
	}
	pf := gossip.NewPackedFrontier(n)
	pf.Reset(sources)
	return pf
}

// benchFloodStep times whole-range packed flood steps over src; a positive
// bytesPerNode is reported once the timer is done (ResetTimer deletes user
// metrics).
func benchFloodStep(b *testing.B, src graph.FloodSource, bytesPerNode float64) {
	b.Helper()
	n := src.N()
	fg := graph.NewFloodGen(src)
	pf := packedBenchSetup(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf.StepFloodRange(&fg, 0, n)
		pf.CommitStep()
	}
	if bytesPerNode > 0 {
		b.ReportMetric(bytesPerNode, "bytes/node")
	}
}

// BenchmarkPackedStepFloodCSR is the materialized reference: one packed
// flooding step over the lowered CSR of hypercube d=12.
func BenchmarkPackedStepFloodCSR(b *testing.B) {
	cs := topology.Hypercube(12).LowerFlood()
	n := cs.N()
	benchFloodStep(b, cs, float64(16*n+4*(n+1)+4*len(cs.Src))/float64(n))
}

// BenchmarkPackedStepFloodGen is the streaming counterpart: the same step
// with arcs computed from the hypercube generator (OrGatherer fast path).
func BenchmarkPackedStepFloodGen(b *testing.B) {
	benchFloodStep(b, topology.NewHypercubeGen(12), 16)
}

// BenchmarkPackedStepFloodGenInArcs pins the slow path — per-vertex InArcs
// through the arc buffer, no OrGatherer — via the digraph adapter.
func BenchmarkPackedStepFloodGenInArcs(b *testing.B) {
	benchFloodStep(b, graph.NewDigraphSource(topology.Hypercube(12)), 0)
}
