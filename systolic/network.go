package systolic

import (
	"math"

	"repro/internal/bounds"
	"repro/internal/graph"
	"repro/internal/topology"
)

// Digraph is the network substrate: a digraph with adjacency lists, BFS and
// degree/diameter queries (see repro/internal/graph).
type Digraph = graph.Digraph

// ArcSource is a generator-backed arc supplier: neighbors computed from the
// vertex id, the seam that lets broadcast scans stream networks too large
// to materialize (see repro/internal/graph).
type ArcSource = graph.ArcSource

// Family classifies a network into one of the paper's Lemma 3.1 families.
type Family = bounds.Family

// Network is a concrete network instance: the digraph plus the metadata the
// bound machinery needs (family classification and degree parameter).
//
// A network carries one or both representations of its arc set: G, the
// materialized digraph every schedule compiler and bound evaluator walks,
// and Gen, an arithmetic generator broadcast scans compute arcs from on the
// fly. Registry builders attach Gen alongside G for the
// generator-eligible kinds, and build Gen-only ("implicit") instances past
// the materialization threshold — those support AnalyzeBroadcastAll and
// CertifyBroadcast (flooding is generator-computable) while everything
// needing explicit adjacency returns ErrImplicit.
type Network struct {
	Name string
	G    *Digraph
	// Gen streams the same arc set as G arithmetically; non-nil for
	// generator-eligible instances. When G is nil the network is implicit:
	// Gen is its only representation.
	Gen ArcSource
	// Sched is the exchange-class schedule generator of the topology:
	// a proper edge coloring computed from the vertex id, from which the
	// periodic protocol catalog derives generator-compiled programs (rounds
	// computed, not stored). Registry builders attach it for the
	// schedule-eligible kinds (cycle, hypercube, torus, ccc, butterfly);
	// nil means only explicit protocols apply.
	Sched *topology.Schedule
	// Family is the paper family when the topology is one of Lemma 3.1's
	// (BF, WBF→, WBF, DB, K); FamilyKnown is false otherwise.
	Family      Family
	FamilyKnown bool
	// DegreeParam is the broadcast parameter d: maximum degree minus one
	// for symmetric networks, maximum out-degree for directed ones.
	DegreeParam int
}

// Plain wraps a digraph as a Network with no paper-family classification;
// it is the building block for topologies registered from outside this
// package.
func Plain(name string, g *Digraph) *Network {
	return &Network{Name: name, G: g, DegreeParam: degreeParam(g)}
}

// Classified wraps a digraph as a Network belonging to one of the paper's
// families, enabling the separator and diameter bound refinements.
func Classified(name string, g *Digraph, f Family, d int) *Network {
	return &Network{Name: name, G: g, Family: f, FamilyKnown: true, DegreeParam: d}
}

// PlainImplicit wraps a generator as an implicit Network with no
// paper-family classification. The degree parameter cannot be derived from
// a generator (that would require a full sweep), so the caller supplies it.
func PlainImplicit(name string, gen ArcSource, degreeParam int) *Network {
	return &Network{Name: name, Gen: gen, DegreeParam: degreeParam}
}

// ClassifiedImplicit wraps a generator as an implicit Network belonging to
// one of the paper's families.
func ClassifiedImplicit(name string, gen ArcSource, f Family, d int) *Network {
	return &Network{Name: name, Gen: gen, Family: f, FamilyKnown: true, DegreeParam: d}
}

func degreeParam(g *Digraph) int {
	if g.IsSymmetric() {
		d := g.MaxOutDeg() - 1
		if d < 1 {
			d = 1
		}
		return d
	}
	return g.MaxOutDeg()
}

// N returns the vertex count, from whichever representation the network
// carries.
func (net *Network) N() int {
	if net.G != nil {
		return net.G.N()
	}
	return net.Gen.N()
}

// Implicit reports whether the network carries only a generator: no
// materialized digraph exists, so operations needing explicit adjacency
// (protocol compilation, BFS schedules, delay digraphs) return ErrImplicit
// while the streaming broadcast scans work at any size.
func (net *Network) Implicit() bool { return net.G == nil }

// needG returns ErrImplicit (wrapped with the operation and network name)
// when the network has no materialized digraph — the guard every
// adjacency-walking entry point calls first.
func (net *Network) needG(op string) error {
	if net.G != nil {
		return nil
	}
	return errImplicitOp(op, net.Name)
}

// LogN returns log₂(n) for the network, the unit in which the paper's
// bounds are expressed.
func (net *Network) LogN() float64 { return math.Log2(float64(net.N())) }
