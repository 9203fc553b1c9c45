package systolic

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/scenario"
)

// ArcLoss overrides the scenario's global loss probability on one directed
// arc (wire form; see Scenario).
type ArcLoss struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Loss float64 `json:"loss"`
}

// CrashWindow crashes one node for the half-open round interval
// [From, To): a down node neither sends nor receives, and rejoins warm
// (keeping its pre-crash knowledge).
type CrashWindow struct {
	Node int `json:"node"`
	From int `json:"from"`
	To   int `json:"to"`
}

// Scenario is the wire-level fault model of a Monte-Carlo certification:
// random per-arc message loss, scheduled node churn, and adversarial arc
// deletion, rooted in a deterministic seed. An all-zero Scenario is
// inactive and executes byte-identically to the deterministic path.
//
// The seed is part of the scenario's cache identity (Canonical), so a
// scenario request is exactly as reproducible — and as cacheable — as a
// deterministic one: trial i draws its PRNG stream from (Seed, i) alone.
type Scenario struct {
	// Loss is the per-arc per-round delivery failure probability in [0, 1].
	Loss float64 `json:"loss,omitempty"`
	// ArcLoss overrides Loss on specific directed arcs.
	ArcLoss []ArcLoss `json:"arc_loss,omitempty"`
	// Crashes lists node down-windows (round-indexed, half-open).
	Crashes []CrashWindow `json:"crashes,omitempty"`
	// DeleteArcs lists [from, to] directed arcs the adversary removes for
	// the whole execution.
	DeleteArcs [][2]int `json:"delete_arcs,omitempty"`
	// Seed roots every trial's PRNG stream.
	Seed uint64 `json:"seed,omitempty"`
}

// Active reports whether the scenario injects any fault.
func (sc *Scenario) Active() bool {
	if sc == nil {
		return false
	}
	return sc.Loss > 0 || len(sc.ArcLoss) > 0 || len(sc.Crashes) > 0 || len(sc.DeleteArcs) > 0
}

// Canonical renders the scenario as a deterministic cache-key fragment.
// Every field that can change a trial's execution appears; float
// probabilities use the shortest round-trip representation, and list
// order is part of the identity (it is part of the spec's semantics for
// duplicate arc overrides).
//
//gossip:keywriter Scenario
//gossip:keywriter ArcLoss
//gossip:keywriter CrashWindow
func (sc *Scenario) Canonical() string {
	var sb strings.Builder
	sb.WriteString("loss=")
	sb.WriteString(strconv.FormatFloat(sc.Loss, 'g', -1, 64))
	if len(sc.ArcLoss) > 0 {
		sb.WriteString(";arcloss=")
		for i, al := range sc.ArcLoss {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d>%d:%s", al.From, al.To, strconv.FormatFloat(al.Loss, 'g', -1, 64))
		}
	}
	if len(sc.Crashes) > 0 {
		sb.WriteString(";crash=")
		for i, w := range sc.Crashes {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d@%d-%d", w.Node, w.From, w.To)
		}
	}
	if len(sc.DeleteArcs) > 0 {
		sb.WriteString(";del=")
		for i, a := range sc.DeleteArcs {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d>%d", a[0], a[1])
		}
	}
	sb.WriteString(";seed=")
	sb.WriteString(strconv.FormatUint(sc.Seed, 10))
	return sb.String()
}

// spec lowers the wire scenario to the execution-layer fault model.
func (sc *Scenario) spec() *scenario.Spec {
	if sc == nil {
		return nil
	}
	sp := &scenario.Spec{Loss: sc.Loss, Seed: sc.Seed}
	for _, al := range sc.ArcLoss {
		sp.ArcLoss = append(sp.ArcLoss, scenario.ArcLoss{From: al.From, To: al.To, Loss: al.Loss})
	}
	for _, w := range sc.Crashes {
		sp.Crashes = append(sp.Crashes, scenario.Window{Node: w.Node, From: w.From, To: w.To})
	}
	for _, a := range sc.DeleteArcs {
		sp.Deleted = append(sp.Deleted, graph.Arc{From: a[0], To: a[1]})
	}
	return sp
}

// TrialStats summarizes the completion-round distribution of a
// Monte-Carlo scenario run. Budget-truncated trials are censored at the
// budget: they enter the mean and the quantiles at that value (a lower
// bound on their true completion time) and are counted in Truncated —
// truncation is data, not an error.
type TrialStats struct {
	Trials    int `json:"trials"`
	Completed int `json:"completed"`
	Truncated int `json:"truncated"`
	// CompletionRate is Completed / Trials.
	CompletionRate float64 `json:"completion_rate"`
	// MeanRounds averages the (censored) round counts over all trials.
	MeanRounds float64 `json:"mean_rounds"`
	MinRounds  int     `json:"min_rounds"`
	MaxRounds  int     `json:"max_rounds"`
	// P50/P90/P99 are nearest-rank quantiles of the censored distribution.
	P50 int `json:"p50"`
	P90 int `json:"p90"`
	P99 int `json:"p99"`
	// DistributionFP is an FNV-1a fingerprint of the per-trial outcomes in
	// trial order — two runs with equal fingerprints produced identical
	// distributions (the reproducibility tests pin equal seeds to equal
	// fingerprints).
	DistributionFP string `json:"distribution_fp"`
}

// StatisticalCertificate is the outcome of a Monte-Carlo scenario
// certification: the measured completion-round distribution of a protocol
// under faults, compared against the paper's deterministic lower bound.
// The bounds are proved for fault-free executions, so faults can only slow
// dissemination down — a median below the lower bound would witness a
// broken simulator, which is exactly what BoundRespected checks.
type StatisticalCertificate struct {
	Network  string   `json:"network"`
	Mode     string   `json:"mode"`
	Period   int      `json:"period"`
	Scenario Scenario `json:"scenario"`
	// Budget is the per-trial round budget.
	Budget int        `json:"budget"`
	Trials TrialStats `json:"trials"`
	// LowerBound is the deterministic lower bound for this network/mode/
	// period (scenario-independent).
	LowerBound Bound `json:"lower_bound"`
	// Deterministic is the fault-free certificate of the same schedule —
	// the baseline the drift is measured from.
	Deterministic *Certificate `json:"deterministic,omitempty"`
	// BoundRespected reports P50 ≥ LowerBound.Rounds.
	BoundRespected bool `json:"bound_respected"`
	// MeanDriftRounds is Trials.MeanRounds − Deterministic.Measured: how
	// many extra rounds the faults cost on average.
	MeanDriftRounds float64 `json:"mean_drift_rounds"`
}

// String renders the statistical certificate.
func (c *StatisticalCertificate) String() string {
	return fmt.Sprintf("%s [%s]: %d trials (%.0f%% complete, %d truncated at budget %d); rounds p50/p90/p99 = %d/%d/%d, mean %.2f; lower bound %d respected: %v; drift +%.2f rounds over deterministic",
		c.Network, c.Mode, c.Trials.Trials, 100*c.Trials.CompletionRate, c.Trials.Truncated, c.Budget,
		c.Trials.P50, c.Trials.P90, c.Trials.P99, c.Trials.MeanRounds,
		c.LowerBound.Rounds, c.BoundRespected, c.MeanDriftRounds)
}

// MaxScenarioTrials caps one certification's trial count — a guard
// against requests that would monopolize the service, not a statistical
// limit.
const MaxScenarioTrials = 65536

// CertifyScenario validates and compiles p on the network, then runs a
// Monte-Carlo scenario certification: trials independent faulty
// executions of the compiled schedule, fanned across the worker pool,
// aggregated into a StatisticalCertificate against the deterministic
// lower bound. Callers that already hold a compiled Program use
// CertifyScenarioProgram.
func CertifyScenario(ctx context.Context, net *Network, p *Protocol, sc *Scenario, trials int, opts ...Option) (*StatisticalCertificate, error) {
	pr, err := CompileProtocol(net, p)
	if err != nil {
		return nil, fmt.Errorf("systolic: certify scenario on %s: %w", net.Name, err)
	}
	return CertifyScenarioProgram(ctx, pr, sc, trials, opts...)
}

// CertifyScenarioProgram is CertifyScenario over an already compiled
// Program. Each worker owns one reusable state and one reusable trial
// (reset between trials, so steady-state trials allocate nothing); trial
// i's PRNG stream depends only on (scenario seed, i), making the reported
// distribution independent of the worker count. Budget-truncated trials
// are reported in the statistics, never as an error; the only failures
// are invalid inputs and context cancellation.
func CertifyScenarioProgram(ctx context.Context, pr *Program, sc *Scenario, trials int, opts ...Option) (*StatisticalCertificate, error) {
	net, p := pr.net, pr.proto
	if trials < 1 {
		return nil, fmt.Errorf("%w: scenario trials %d < 1", ErrBadParam, trials)
	}
	if trials > MaxScenarioTrials {
		return nil, fmt.Errorf("%w: scenario trials %d > %d", ErrBadParam, trials, MaxScenarioTrials)
	}
	n := net.G.N()
	comp, err := scenario.Compile(sc.spec(), n)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadParam, err)
	}
	cfg := newConfig(opts)
	budget := cfg.budget
	if !p.Systolic() && p.Len() < budget {
		budget = p.Len()
	}

	// Deterministic baseline: the fault-free certificate of the same
	// schedule under the same budget, sharing any cached delay plan.
	det, err := func() (*Certificate, error) {
		sess, err := NewEngineFromProgram(pr, opts...)
		if err != nil {
			return nil, err
		}
		defer sess.Close()
		return sess.Certify(ctx)
	}()
	if err != nil {
		return nil, fmt.Errorf("systolic: certify scenario on %s: %w", net.Name, err)
	}

	type outcome struct {
		rounds    int
		truncated bool
	}
	outcomes := make([]outcome, trials)
	type worker struct {
		st *gossip.State
		tr *scenario.Trial
	}
	ws := make([]worker, min(cfg.workers, trials))
	par.Each(len(ws), trials, func(w, i int) bool {
		if ctx.Err() != nil {
			return false
		}
		wk := &ws[w]
		if wk.st == nil {
			wk.st, wk.tr = gossip.NewState(n), comp.Trial(i)
		} else {
			wk.st.Reset()
			wk.tr.Reset(i)
		}
		done := wk.st.GossipComplete() // n ≤ 1 completes in 0 rounds
		r := 0
		for ; r < budget && !done; r++ {
			wk.tr.Step(wk.st, pr.prog, r)
			done = wk.st.GossipComplete()
		}
		outcomes[i] = outcome{rounds: r, truncated: !done}
		return true
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("systolic: certify scenario on %s: %w", net.Name, err)
	}

	stats := TrialStats{Trials: trials, MinRounds: outcomes[0].rounds, MaxRounds: outcomes[0].rounds}
	fp := fnv.New64a()
	var buf [5]byte
	sum := 0.0
	sorted := make([]int, trials)
	for i, o := range outcomes {
		if o.truncated {
			stats.Truncated++
			buf[4] = 1
		} else {
			stats.Completed++
			buf[4] = 0
		}
		binary.LittleEndian.PutUint32(buf[:4], uint32(o.rounds))
		fp.Write(buf[:])
		sum += float64(o.rounds)
		sorted[i] = o.rounds
		if o.rounds < stats.MinRounds {
			stats.MinRounds = o.rounds
		}
		if o.rounds > stats.MaxRounds {
			stats.MaxRounds = o.rounds
		}
	}
	sort.Ints(sorted)
	stats.CompletionRate = float64(stats.Completed) / float64(trials)
	stats.MeanRounds = sum / float64(trials)
	stats.P50 = nearestRank(sorted, 0.50)
	stats.P90 = nearestRank(sorted, 0.90)
	stats.P99 = nearestRank(sorted, 0.99)
	stats.DistributionFP = fmt.Sprintf("%016x", fp.Sum64())

	out := &StatisticalCertificate{
		Network:         net.Name,
		Mode:            p.Mode.String(),
		Period:          p.Period,
		Budget:          budget,
		Trials:          stats,
		LowerBound:      det.LowerBound,
		Deterministic:   det,
		BoundRespected:  stats.P50 >= det.LowerBound.Rounds,
		MeanDriftRounds: stats.MeanRounds - float64(det.Measured),
	}
	if sc != nil {
		out.Scenario = *sc
	}
	return out, nil
}

// nearestRank returns the nearest-rank q-quantile of a sorted sample.
func nearestRank(sorted []int, q float64) int {
	rank := int(q*float64(len(sorted)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
