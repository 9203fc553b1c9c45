package systolic

import (
	"fmt"
	"testing"

	"repro/internal/search"
)

// smallNetwork is one registered kind built at one parameter set.
type smallNetwork struct {
	name string // kind and parameter values
	net  *Network
}

// smallNetworks builds every registered kind at every parameter set (values
// up to 4) giving 2 ≤ n ≤ maxN vertices.
func smallNetworks(t *testing.T, maxN int) []smallNetwork {
	t.Helper()
	setters := map[string]func(int) Param{
		ParamNodes: Nodes, ParamDegree: Degree, ParamDiameter: Diameter,
		ParamDimension: Dimension, ParamRows: Rows, ParamCols: Cols, ParamDepth: Depth,
	}
	var nets []smallNetwork
	for _, kind := range Kinds() {
		topo, _ := Lookup(kind)
		names := topo.ParamNames()
		vals := make([]int, len(names))
		var walk func(i int)
		walk = func(i int) {
			if i < len(names) {
				for v := 0; v <= 4; v++ {
					vals[i] = v
					walk(i + 1)
				}
				return
			}
			ps := make([]Param, len(names))
			for j, name := range names {
				ps[j] = setters[name](vals[j])
			}
			if net, err := New(kind, ps...); err == nil && net.N() >= 2 && net.N() <= maxN {
				nets = append(nets, smallNetwork{fmt.Sprintf("%s%v", kind, vals), net})
			}
		}
		walk(0)
	}
	return nets
}

// mustEvaluate is Evaluate for requests a test knows to be valid.
func mustEvaluate(t *testing.T, net *Network, req Request) Bound {
	t.Helper()
	b, err := Evaluate(net, req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCertifiedRoundsNeverExceedOptimum is the paper's soundness claim on
// every small instance: the certified round bound Evaluate returns is never
// above the exact optimum (over s-systolic protocols for finite s, over all
// protocols for s → ∞), found by exhaustive search.
func TestCertifiedRoundsNeverExceedOptimum(t *testing.T) {
	checked := 0
	for _, sn := range smallNetworks(t, 4) {
		net := sn.net
		for _, mode := range []Mode{Directed, HalfDuplex, FullDuplex} {
			if mode != Directed && !net.G.IsSymmetric() {
				continue // the duplex models need a symmetric digraph
			}
			for _, s := range []int{3, 4, NonSystolic} {
				name := fmt.Sprintf("%s/%v/s=%d", sn.name, mode, s)
				if s == NonSystolic {
					name = fmt.Sprintf("%s/%v/s=∞", sn.name, mode)
				}
				var opt int
				var err error
				if s == NonSystolic {
					opt, err = search.OptimalGossipTime(net.G, mode, 3*net.N())
				} else {
					opt, err = search.OptimalSystolicGossipTime(net.G, mode, s, 3*net.N())
				}
				if err != nil {
					continue // no protocol of this kind gossips here
				}
				if b := mustEvaluate(t, net, Request{Mode: mode, Period: s}); b.Rounds > opt {
					t.Errorf("%s: certified %d rounds (%s), exact optimum %d", name, b.Rounds, b.Source, opt)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no instance checked")
	}
	t.Logf("%d (instance, mode, period) triples checked", checked)
}
