package systolic

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/topology"
)

// Protocol is a sequence of communication rounds (Definition 3.1), possibly
// systolic (Definition 3.2). See repro/internal/gossip.
type Protocol = gossip.Protocol

// Mode selects the communication model of Section 3.
type Mode = gossip.Mode

// The three communication models of the paper.
const (
	Directed   = gossip.Directed
	HalfDuplex = gossip.HalfDuplex
	FullDuplex = gossip.FullDuplex
)

// ProtocolBuilder constructs the protocol to run on an instantiated
// network; it is the unit of work a SweepJob carries.
type ProtocolBuilder func(net *Network) (*Protocol, error)

// protocolCatalog names the protocol constructions the reproduction ships.
// Each entry receives the network and the round budget (only the greedy
// heuristics consume the budget, as their construction simulates).
var protocolCatalog = map[string]func(net *Network, budget int) (*Protocol, error){
	"periodic-half": func(net *Network, _ int) (*Protocol, error) {
		return protocols.PeriodicHalfDuplex(net.G), nil
	},
	"periodic-full": func(net *Network, _ int) (*Protocol, error) {
		return protocols.PeriodicFullDuplex(net.G), nil
	},
	"periodic-interleaved": func(net *Network, _ int) (*Protocol, error) {
		return protocols.PeriodicInterleavedHalfDuplex(net.G), nil
	},
	"round-robin": func(net *Network, _ int) (*Protocol, error) {
		return protocols.RoundRobinDirected(net.G), nil
	},
	"greedy-half": func(net *Network, budget int) (*Protocol, error) {
		return protocols.GreedyGossip(net.G, gossip.HalfDuplex, budget)
	},
	"greedy-directed": func(net *Network, budget int) (*Protocol, error) {
		return protocols.GreedyGossip(net.G, gossip.Directed, budget)
	},
	"greedy-full": func(net *Network, budget int) (*Protocol, error) {
		return protocols.GreedyGossipFullDuplex(net.G, budget)
	},
	"hypercube": func(net *Network, _ int) (*Protocol, error) {
		D := 0
		for n := net.G.N(); n > 1; n >>= 1 {
			D++
		}
		return protocols.HypercubeExchange(D), nil
	},
	"doubling": func(net *Network, _ int) (*Protocol, error) {
		n := net.G.N()
		if n < 2 || n&(n-1) != 0 {
			return nil, fmt.Errorf("%w: protocol doubling on %s needs a power-of-two vertex count ≥ 2, got %d",
				ErrBadParam, net.Name, n)
		}
		return protocols.CompleteDoubling(n), nil
	},
	"zigzag": func(net *Network, _ int) (*Protocol, error) {
		return protocols.PathZigZag(net.G.N()), nil
	},
	"cycle2": func(net *Network, _ int) (*Protocol, error) {
		if n := net.G.N(); n < 4 || n%2 != 0 {
			return nil, fmt.Errorf("%w: protocol cycle2 on %s needs an even vertex count ≥ 4, got %d",
				ErrBadParam, net.Name, n)
		}
		return protocols.CycleTwoPhase(net.G.N()), nil
	},
}

// duplexProtocols are the catalog constructions whose edge colorings and
// exchanges need every arc's reverse: they reject one-way digraphs.
var duplexProtocols = map[string]bool{"periodic-half": true, "periodic-full": true,
	"periodic-interleaved": true, "greedy-half": true, "greedy-full": true}

// ProtocolKinds lists the named protocol constructions in sorted order.
func ProtocolKinds() []string {
	ks := make([]string, 0, len(protocolCatalog))
	for k := range protocolCatalog {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// GenProtocolKinds lists the protocol names that compile to generator
// programs on schedule-carrying networks — the catalog subset that works on
// implicit instances.
func GenProtocolKinds() []string {
	return []string{"cycle2", "hypercube", "periodic-full", "periodic-half", "periodic-interleaved"}
}

// genSchedule maps a catalog protocol name onto the network's exchange-class
// schedule, when the pair is generator-eligible: the periodic colorings work
// on any schedule-carrying kind, while the structured constructions
// ("hypercube", "cycle2") additionally require the matching class shape. The
// greedy heuristics and round-robin are data-dependent on explicit adjacency
// and are never eligible.
func genSchedule(name string, net *Network) (graph.RoundSource, Mode, bool) {
	sched := net.Sched
	if sched == nil {
		return nil, 0, false
	}
	switch name {
	case "periodic-full":
		return sched.FullDuplex(), FullDuplex, true
	case "periodic-half":
		return sched.HalfDuplex(), HalfDuplex, true
	case "periodic-interleaved":
		return sched.Interleaved(), HalfDuplex, true
	case "hypercube":
		// The dimension-order exchange is exactly the full-duplex walk of
		// the hypercube's coordinate classes.
		if _, ok := sched.ExchangeClasses().(*topology.HypercubeClasses); ok {
			return sched.FullDuplex(), FullDuplex, true
		}
	case "cycle2":
		if _, ok := sched.ExchangeClasses().(*topology.CycleClasses); ok {
			if n := net.N(); n >= 4 && n%2 == 0 {
				return topology.NewCycleTwoPhase(n), Directed, true
			}
		}
	}
	return nil, 0, false
}

// NewProtocol builds a named protocol for the network. The budget caps the
// construction cost of the greedy heuristics; the periodic constructions
// ignore it.
//
// On a schedule-carrying network the generator-eligible names (see
// GenProtocolKinds) compile from the exchange-class schedule instead of
// walking adjacency: an implicit network gets a generator-backed protocol
// (rounds computed at execution time — the only protocol form an implicit
// instance can run), a materialized one gets the identical schedule in
// explicit form (same fingerprint, byte-identical rounds). Ineligible names
// on an implicit network return ErrImplicit naming the eligible set.
func NewProtocol(name string, net *Network, budget int) (*Protocol, error) {
	kind := strings.ToLower(name)
	build, ok := protocolCatalog[kind]
	if !ok {
		return nil, fmt.Errorf("%w %q (accepted: %s)", ErrUnknownProtocol, name, strings.Join(ProtocolKinds(), ", "))
	}
	if rs, mode, ok := genSchedule(kind, net); ok {
		gen := gossip.CompileGen(rs, mode)
		if net.Implicit() {
			return &Protocol{Gen: gen, Period: gen.Period(), Mode: mode}, nil
		}
		return gen.Materialize(), nil
	}
	// Every remaining catalog construction reads explicit adjacency (or at
	// least the materialized vertex count the schedule is validated against).
	if err := net.needG("protocol " + kind + " on"); err != nil {
		return nil, err
	}
	if duplexProtocols[kind] && !net.G.IsSymmetric() {
		return nil, fmt.Errorf("%w: protocol %s on %s needs a symmetric network", ErrBadParam, kind, net.Name)
	}
	return build(net, budget)
}

// UseProtocol adapts a named protocol from the catalog into a
// ProtocolBuilder for Sweep jobs.
func UseProtocol(name string, budget int) ProtocolBuilder {
	return func(net *Network) (*Protocol, error) {
		return NewProtocol(name, net, budget)
	}
}

// LoadProtocol reads a protocol from its schedule encoding (see
// SaveProtocol).
func LoadProtocol(r io.Reader) (*Protocol, error) { return gossip.Decode(r) }

// SaveProtocol writes the protocol's schedule encoding.
func SaveProtocol(w io.Writer, p *Protocol) error { return p.Encode(w) }
