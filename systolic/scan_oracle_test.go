package systolic

import (
	"context"

	"repro/internal/gossip"
	"repro/internal/graph"
)

// scalarBroadcastAll is the differential oracle of AnalyzeBroadcastAll: the
// same option handling, arc-source choice and summary, with every source
// flooded on its own 1-bit frontier (gossip.FrontierState). A scan over the
// lowered CSR steps LowerFlood().Arcs(); a generator scan pulls each
// round's arcs from the generator (pullFlood), so implicit networks need
// no materialized Digraph.
func scalarBroadcastAll(ctx context.Context, net *Network, opts ...Option) (*BroadcastAllReport, error) {
	cfg := newConfig(opts)
	sources, explicit, err := scanSources(net, cfg.sources)
	if err != nil {
		return nil, err
	}
	useGen, err := pickScanSource(net, len(sources), cfg)
	if err != nil {
		return nil, err
	}
	var step func(*gossip.FrontierState) int
	if useGen {
		step = pullFlood(net.Gen)
	} else {
		round := net.G.LowerFlood().Arcs()
		step = func(fr *gossip.FrontierState) int { return fr.Step(round) }
	}
	rep := &BroadcastAllReport{Network: net.Name, Rounds: make([]int, len(sources))}
	if explicit {
		rep.Sources = sources
	}
	if err := scalarScan(ctx, net, step, sources, rep.Rounds, cfg); err != nil {
		return nil, err
	}
	rep.summarize(net, sources)
	return rep, nil
}

// pullFlood is the scalar flooding step over a generator's in-arcs: each
// uninformed vertex takes the first beginning-of-round informed
// in-neighbor it finds, and Step applies the round of those arcs — the
// same vertices a full flooding round informs, found without walking every
// arc.
func pullFlood(src graph.FloodSource) func(*gossip.FrontierState) int {
	n := src.N()
	buf := make([]int32, src.DegBound())
	arcs := make([]graph.Arc, 0, n) // at most one arc per vertex: never regrows
	return func(fr *gossip.FrontierState) int {
		round := arcs[:0]
		for v := 0; v < n; v++ {
			if fr.Informed(v) {
				continue
			}
			k := src.InArcs(v, buf)
			for _, u := range buf[:k] {
				if fr.Informed(int(u)) {
					round = append(round, graph.Arc{From: int(u), To: v})
					break
				}
			}
		}
		return fr.Step(round)
	}
}

// scalarScan is the per-source reference kernel: one 1-bit frontier,
// reset in place per source, stepped over the flooding round. It defines
// the scan's semantics; the packed kernel must match it byte for byte.
// The step closure hides the arc representation — walking the lowered
// round or streaming a generator — so both produce identical reports.
func scalarScan(ctx context.Context, net *Network, step func(*gossip.FrontierState) int, sources, rounds []int, cfg config) error {
	n := net.N()
	fr := gossip.NewFrontierState(n, 0)
	so, _ := cfg.observer.(ScanObserver)
	batchCols := 0 // informed columns of the current batch's finished lanes
	for i, src := range sources {
		if err := ctx.Err(); err != nil {
			return errScanCtx(net, err)
		}
		batch, lane := i/gossip.PackedLanes, i%gossip.PackedLanes
		if lane == 0 {
			batchCols = 0
		}
		lanes := len(sources) - batch*gossip.PackedLanes
		if lanes > gossip.PackedLanes {
			lanes = gossip.PackedLanes
		}
		fr.Reset(src)
		r := 0
		for !fr.Complete() {
			if r >= cfg.budget {
				return errScanIncomplete(net, src, cfg.budget)
			}
			if step(fr) == 0 {
				return errScanUnreachable(net, src, r)
			}
			r++
			if cfg.observer != nil {
				// Untouched lanes contribute their informed source; the
				// column total matches the packed kernel's when the batch
				// finishes.
				cols := batchCols + fr.InformedCount() + (lanes - lane - 1)
				if so != nil {
					so.ScanRound(batch, r, cols, lanes*n)
				} else {
					cfg.observer.Round(r, cols, lanes*n)
				}
			}
		}
		rounds[i] = r
		batchCols += fr.InformedCount()
	}
	return nil
}
