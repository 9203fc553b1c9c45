package gossip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/par"
)

// ErrIncomplete is returned when a simulation hits its round budget before
// the dissemination completes.
var ErrIncomplete = errors.New("gossip: protocol did not complete within the round budget")

// State tracks, for every processor, the set of items it currently knows.
// Item i originates at processor i.
//
// The knowledge sets live in one flat word array (words consecutive uint64
// per vertex) with a same-sized shadow buffer for beginning-of-round
// snapshots, so Step performs zero allocations in steady state. Per-vertex
// item counts, the total knowledge and the number of saturated vertices are
// maintained incrementally, making TotalKnowledge, Count, GossipComplete
// and BroadcastComplete O(1).
type State struct {
	n     int // processors
	items int // item-space size: n for gossip, 1 for broadcast
	words int // uint64 words per vertex

	cur  []uint64 // n*words flattened knowledge sets
	prev []uint64 // beginning-of-round shadow of the senders

	counts []int32 // items known per vertex
	know   int64   // sum of counts
	full   int64   // vertices with counts == items

	shard *sharding // optional sharded StepProgram; nil means serial
}

func newState(n, items int) *State {
	words := (items + 63) / 64
	s := &State{
		n:      n,
		items:  items,
		words:  words,
		cur:    make([]uint64, n*words),
		prev:   make([]uint64, n*words),
		counts: make([]int32, n),
	}
	return s
}

// NewState returns the initial gossip state in which every processor knows
// exactly its own item.
func NewState(n int) *State {
	s := newState(n, n)
	for v := 0; v < n; v++ {
		s.cur[v*s.words+v/64] |= 1 << (v % 64)
		s.counts[v] = 1
		s.know++
		if int(s.counts[v]) == s.items {
			s.full++
		}
	}
	return s
}

// NewBroadcastState returns a state in which only the source knows one item;
// it is used to measure broadcasting time b(G). FrontierState is the
// packed alternative (one bit per vertex instead of one word).
func NewBroadcastState(n, source int) *State {
	s := newState(n, 1)
	s.cur[source*s.words] = 1
	s.counts[source] = 1
	s.know = 1
	s.full = 1 // the source is saturated (items == 1)
	return s
}

// UsePool shards subsequent StepProgram calls across the pool's workers
// along the program's compile-time partition; passing nil reverts to serial
// stepping. Results are identical either way. Step on raw arcs, the serial
// reference interpreter, ignores it.
func (s *State) UsePool(p *par.Pool) {
	s.shard = nil
	if p != nil {
		s.shard = &sharding{st: s, pool: p}
		s.shard.run = s.shard.runShard
	}
}

// Reset returns a gossip state (one built by NewState) to its initial
// "every processor knows exactly its own item" configuration without
// reallocating — the shadow buffer need not be cleared because Step and
// StepProgram always write a sender's snapshot before reading it. Loops
// that run many simulations of one shape (the Monte-Carlo scenario trials)
// reuse one State through Reset instead of paying two n×words allocations
// per run. It panics on broadcast-shaped states (items != n), whose initial
// configuration depends on a source.
//
//gossip:allowpanic pairing guard: the session layer establishes program/state compatibility
func (s *State) Reset() {
	if s.items != s.n {
		panic("gossip: Reset on a broadcast-shaped state")
	}
	clear(s.cur)
	s.know, s.full = 0, 0
	for v := 0; v < s.n; v++ {
		s.cur[v*s.words+v/64] |= 1 << (v % 64)
		s.counts[v] = 1
		s.know++
		if s.items == 1 {
			s.full++
		}
	}
}

// Knows reports whether processor v currently knows item i.
func (s *State) Knows(v, i int) bool {
	return s.cur[v*s.words+i/64]&(1<<(i%64)) != 0
}

// Count returns how many items processor v knows.
func (s *State) Count(v int) int { return int(s.counts[v]) }

// TotalKnowledge returns the sum over processors of known items; it is
// strictly monotone under Step until completion.
func (s *State) TotalKnowledge() int { return int(s.know) }

// Step applies one communication round: for each active arc (x, y), y learns
// everything x knew at the beginning of the round. All transfers in a round
// are simultaneous; because rounds are matchings a vertex receives on at
// most one arc, but the implementation is still correct for arbitrary arc
// sets (e.g. full-duplex opposite pairs): every sender's words are copied
// into the shadow buffer before any merge, so opposite arcs exchange the
// beginning-of-round sets as the model requires.
func (s *State) Step(round []graph.Arc) {
	w := s.words
	for _, a := range round {
		o := a.From * w
		copy(s.prev[o:o+w], s.cur[o:o+w])
	}
	for _, a := range round {
		gained, becameFull := s.recv(a)
		s.know += int64(gained)
		if becameFull {
			s.full++
		}
	}
}

// recv merges the beginning-of-round set of a.From into a.To and updates
// the per-vertex count. It returns the number of newly learned items and
// whether a.To just reached full knowledge. Callers own the aggregation of
// the returns into know/full.
func (s *State) recv(a graph.Arc) (gained int, becameFull bool) {
	w := s.words
	src := s.prev[a.From*w : a.From*w+w]
	dst := s.cur[a.To*w : a.To*w+w : a.To*w+w]
	for i, sw := range src {
		old := dst[i]
		if nw := old | sw; nw != old {
			dst[i] = nw
			gained += bits.OnesCount64(nw &^ old)
		}
	}
	if gained > 0 {
		s.counts[a.To] += int32(gained)
		becameFull = int(s.counts[a.To]) == s.items
	}
	return gained, becameFull
}

// GossipComplete reports whether every processor knows every item.
func (s *State) GossipComplete() bool { return s.full == int64(s.n) }

// BroadcastComplete reports whether every processor knows item 0.
func (s *State) BroadcastComplete() bool {
	if s.items == 1 {
		return s.know == int64(s.n)
	}
	for v := 0; v < s.n; v++ {
		if s.cur[v*s.words]&1 == 0 {
			return false
		}
	}
	return true
}

// Export serializes the knowledge sets as little-endian words, the payload
// of a session checkpoint. The layout is n blocks of words uint64 each.
func (s *State) Export() []byte {
	out := make([]byte, len(s.cur)*8)
	for i, w := range s.cur {
		binary.LittleEndian.PutUint64(out[i*8:], w)
	}
	return out
}

// Import restores knowledge sets serialized by Export and recomputes the
// incremental counters from scratch. It rejects payloads of the wrong size
// and payloads with bits outside the item space (a corrupt or mismatched
// checkpoint).
func (s *State) Import(data []byte) error {
	if len(data) != len(s.cur)*8 {
		return fmt.Errorf("gossip: state payload is %d bytes, want %d", len(data), len(s.cur)*8)
	}
	for i := range s.cur {
		s.cur[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	s.know, s.full = 0, 0
	tail := s.items % 64
	for v := 0; v < s.n; v++ {
		if tail != 0 {
			if s.cur[v*s.words+s.words-1]&^(1<<tail-1) != 0 {
				return fmt.Errorf("gossip: state payload has bits beyond item %d at vertex %d", s.items-1, v)
			}
		}
		c := 0
		for _, w := range s.cur[v*s.words : (v+1)*s.words] {
			c += bits.OnesCount64(w)
		}
		s.counts[v] = int32(c)
		s.know += int64(c)
		if c == s.items {
			s.full++
		}
	}
	return nil
}

// Result reports the outcome of a simulation.
type Result struct {
	Rounds int // rounds executed until completion
	N      int // number of processors
}

// Simulate runs p on g until gossip completes, up to maxRounds. The protocol
// is validated first, then compiled once — the simulation executes the
// schedule IR, not the arc slices (byte-identical results either way). For a
// systolic protocol the period is repeated as needed; for a finite protocol
// the explicit rounds are the budget (capped by maxRounds).
func Simulate(g *graph.Digraph, p *Protocol, maxRounds int) (Result, error) {
	if err := p.Validate(g); err != nil {
		return Result{}, err
	}
	pr, err := Compile(p, g.N(), g.N())
	if err != nil {
		return Result{}, err
	}
	budget := maxRounds
	if !p.Systolic() && p.Len() < budget {
		budget = p.Len()
	}
	st := NewState(g.N())
	if st.GossipComplete() { // n ≤ 1
		return Result{Rounds: 0, N: g.N()}, nil
	}
	for r := 0; r < budget; r++ {
		st.StepProgram(pr, r)
		if st.GossipComplete() {
			return Result{Rounds: r + 1, N: g.N()}, nil
		}
	}
	return Result{Rounds: budget, N: g.N()}, fmt.Errorf("%w (budget %d)", ErrIncomplete, budget)
}

// SimulateBroadcast runs p on g until the item of source reaches every
// processor, up to maxRounds. It uses the packed frontier backend (one bit
// per vertex) executing the compiled schedule.
func SimulateBroadcast(g *graph.Digraph, p *Protocol, source, maxRounds int) (Result, error) {
	if err := p.Validate(g); err != nil {
		return Result{}, err
	}
	pr, err := Compile(p, g.N(), 1)
	if err != nil {
		return Result{}, err
	}
	budget := maxRounds
	if !p.Systolic() && p.Len() < budget {
		budget = p.Len()
	}
	st := NewFrontierState(g.N(), source)
	if st.Complete() {
		return Result{Rounds: 0, N: g.N()}, nil
	}
	for r := 0; r < budget; r++ {
		st.StepProgram(pr, r)
		if st.Complete() {
			return Result{Rounds: r + 1, N: g.N()}, nil
		}
	}
	return Result{Rounds: budget, N: g.N()}, fmt.Errorf("%w (budget %d)", ErrIncomplete, budget)
}

// CompletionCertificate verifies Definition 3.1 condition 2 directly for a
// finite protocol: for every ordered pair (x, y) there is a time-respecting
// dipath from x to y within the executed rounds. It is equivalent to
// GossipComplete after running all rounds but is computed independently
// (by forward propagation of reachability sets per source), so tests can
// cross-check the simulator.
//
// The protocol is compiled once on entry and the propagation runs on the
// packed schedule (Program.CompletionCertificate): the reachability and
// frontier buffers are allocated once and shared across sources (a
// per-source stamp replaces clearing), each source's round scan bails as
// soon as its item has certified every vertex, and a failed source aborts
// the whole check immediately.
//
//gossip:allowpanic the schedule was validated when the program was compiled; an invalid one here is a bug
func CompletionCertificate(g *graph.Digraph, p *Protocol, t int) bool {
	pr, err := Compile(p, g.N(), 1)
	if err != nil {
		panic(fmt.Sprintf("gossip: certificate on invalid schedule: %v", err))
	}
	return pr.CompletionCertificate(t)
}
