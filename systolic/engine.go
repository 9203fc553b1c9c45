package systolic

import (
	"context"
	"fmt"

	"repro/internal/gossip"
	"repro/internal/par"
	"repro/internal/protocols"
)

// DefaultShardThreshold is the vertex count at which a session with more
// than one worker shards Step across its pool (override with
// WithShardThreshold). Below it the per-round work is too small to pay for
// the barrier.
const DefaultShardThreshold = 2048

// Session is a resumable simulation of one protocol on one network. Unlike
// the one-shot Simulate/Analyze entry points (which are wrappers over it),
// a session can be stepped in arbitrary chunks, observed mid-flight,
// checkpointed to JSON, restored, and resumed — the engine the evaluation
// drives at production scale.
//
// A session is not safe for concurrent use; run one goroutine per session.
// Close releases the session's worker pool (if sharding is active); a
// closed session keeps working serially.
type Session struct {
	net   *Network
	proto *Protocol
	cfg   config

	broadcast bool
	source    int
	prog      *gossip.Program       // compiled schedule IR, shared by every backend
	grun      *gossip.GenRun        // generator-program scratch; non-nil streams rounds
	st        *gossip.State         // gossip backend
	fr        *gossip.FrontierState // broadcast backend (packed frontier)
	pool      *par.Pool

	budget   int
	target   int
	round    int
	done     bool
	frontier []int
}

// NewEngine validates p on the network, compiles it once into the shared
// schedule IR (see Program), and returns a session positioned at round
// zero, ready to Step or Run. The round budget, trace observer, worker
// count and shard threshold come from the options; with more than one
// worker and at least WithShardThreshold vertices the session shards every
// Step across a persistent pool (results are byte-identical to serial).
// Callers that already hold a compiled Program use NewEngineFromProgram
// and skip the validate+compile work entirely.
func NewEngine(net *Network, p *Protocol, opts ...Option) (*Session, error) {
	pr, err := CompileProtocol(net, p)
	if err != nil {
		return nil, err
	}
	return NewEngineFromProgram(pr, opts...)
}

// NewBroadcastEngine builds the BFS-tree broadcast schedule from source and
// returns a session that measures its dissemination on the packed frontier
// backend (one bit per vertex — broadcasts never pay the gossip state's
// n-words-per-vertex cost).
func NewBroadcastEngine(net *Network, source int, opts ...Option) (*Session, error) {
	if err := net.needG("broadcast engine on"); err != nil {
		return nil, err
	}
	cfg := newConfig(opts)
	n := net.G.N()
	if source < 0 || source >= n {
		return nil, fmt.Errorf("%w: broadcast source %d outside [0, %d)", ErrBadParam, source, n)
	}
	p := protocols.BroadcastSchedule(net.G, source)
	if err := p.Validate(net.G); err != nil {
		return nil, err
	}
	// Broadcasts compile against the 1-item frontier shape: the packed
	// backend addresses vertices directly, one bit each.
	prog, err := gossip.Compile(p, n, 1)
	if err != nil {
		return nil, fmt.Errorf("systolic: compile broadcast on %s: %w", net.Name, err)
	}
	s := &Session{net: net, proto: p, prog: prog, cfg: cfg, broadcast: true, source: source}
	s.initBudget()
	s.fr = gossip.NewFrontierState(n, source)
	s.target = n
	s.done = s.complete()
	return s, nil
}

func (s *Session) initBudget() {
	s.budget = s.cfg.budget
	if !s.proto.Systolic() && s.proto.Len() < s.budget {
		s.budget = s.proto.Len()
	}
}

func (s *Session) complete() bool {
	if s.broadcast {
		return s.fr.Complete()
	}
	return s.st.GossipComplete()
}

// Network returns the network the session simulates on.
func (s *Session) Network() *Network { return s.net }

// Protocol returns the protocol the session executes.
func (s *Session) Protocol() *Protocol { return s.proto }

// Done reports whether dissemination has completed.
func (s *Session) Done() bool { return s.done }

// Rounds returns the number of rounds executed so far (including restored
// rounds after a checkpoint Restore).
func (s *Session) Rounds() int { return s.round }

// Budget returns the effective round budget (WithRoundBudget capped by the
// length of a finite protocol).
func (s *Session) Budget() int { return s.budget }

// Knowledge returns the current total knowledge: the sum over processors of
// known items for gossip, the informed vertex count for broadcast. It is
// O(1) — the engine maintains it incrementally.
func (s *Session) Knowledge() int {
	if s.broadcast {
		return s.fr.InformedCount()
	}
	return s.st.TotalKnowledge()
}

// Target returns the knowledge count at which dissemination is complete
// (n² for gossip, n for broadcast).
func (s *Session) Target() int { return s.target }

// Frontier returns the per-round newly-informed counts — how many new
// (processor, item) pairs each executed round created (newly informed
// vertices for broadcast). The slice is a copy; its sum plus the initial
// knowledge equals Knowledge().
func (s *Session) Frontier() []int {
	return append([]int(nil), s.frontier...)
}

// Step executes at most k further rounds, stopping early when dissemination
// completes. It returns the number of rounds actually executed. Hitting the
// round budget before completion returns ErrIncomplete; cancelling the
// context stops between rounds with the context error. k ≤ 0 is a no-op.
// Step(k) in any chunking is equivalent to one Run.
func (s *Session) Step(ctx context.Context, k int) (int, error) {
	executed := 0
	for executed < k && !s.done {
		if err := ctx.Err(); err != nil {
			return executed, fmt.Errorf("systolic: session %s: %w", s.net.Name, err)
		}
		if s.round >= s.budget {
			return executed, fmt.Errorf("%w (budget %d)", ErrIncomplete, s.budget)
		}
		var gained int
		if s.broadcast {
			if s.grun != nil {
				gained = s.fr.StepGenProgram(s.grun, s.round)
			} else {
				gained = s.fr.StepProgram(s.prog, s.round)
			}
		} else {
			before := s.st.TotalKnowledge()
			s.st.StepProgram(s.prog, s.round)
			gained = s.st.TotalKnowledge() - before
		}
		s.round++
		executed++
		s.frontier = append(s.frontier, gained)
		if s.cfg.observer != nil {
			s.cfg.observer.Round(s.round, s.Knowledge(), s.target)
		}
		s.done = s.complete()
	}
	return executed, nil
}

// Run steps the session to completion (or the budget, yielding
// ErrIncomplete) and returns the cumulative result. Resuming a restored
// session counts its restored rounds in Result.Rounds.
func (s *Session) Run(ctx context.Context) (Result, error) {
	n := s.net.N()
	for !s.done {
		k := s.budget - s.round
		if k <= 0 {
			return Result{Rounds: s.round, N: n}, fmt.Errorf("%w (budget %d)", ErrIncomplete, s.budget)
		}
		if _, err := s.Step(ctx, k); err != nil {
			return Result{Rounds: s.round, N: n}, err
		}
	}
	return Result{Rounds: s.round, N: n}, nil
}

// Close releases the session's sharding pool, if any. The session remains
// usable afterwards, stepping serially. Close is idempotent.
func (s *Session) Close() {
	if s.pool != nil {
		s.st.UsePool(nil)
		s.pool.Close()
		s.pool = nil
	}
}
