package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/gfcsim/gfc/internal/cbd"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/runner"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
	"github.com/gfcsim/gfc/internal/workload"
)

// SweepConfig parameterises the §6.2.3 large-scale simulations (Table 1 and
// Figures 16–18): random link failures on fat-trees, empirical enterprise
// traffic, deadlock detection.
type SweepConfig struct {
	K           int     // fat-tree arity (paper: 4, 8, 16)
	Networks    int     // random failure scenarios to generate (paper: 10000)
	Repeats     int     // workload repetitions per scenario (paper: 100)
	FailureProb float64 // per-link failure probability (paper: 0.05)
	Duration    units.Time
	Seed        int64
	Scheduling  netsim.Scheduling
	// FlowsPerHost scales workload intensity (default 1, the paper's).
	// Budget-limited sweeps use 2–4 to compensate for running far fewer
	// repeats than the paper's 100 per topology.
	FlowsPerHost int
	// Workers is the number of scenarios simulated concurrently.
	// 0 means runtime.GOMAXPROCS(0). Every scenario is share-nothing and
	// seeded from its index, so the aggregate result is bit-identical
	// for every worker count.
	Workers int
	// Budget bounds every repeat's simulation via the netsim run governor
	// (event budget, wall clock, stall watchdog). The zero value imposes
	// no bounds; a budget-blown repeat quarantines its scenario cell
	// instead of wedging the sweep.
	Budget netsim.Budget
	// JobTimeout is a per-scenario wall-clock deadline; 0 means none. A
	// deadline-blown cell is quarantined and the sweep continues.
	JobTimeout time.Duration
	// Checkpoint, when non-empty, is the path of a JSONL checkpoint file:
	// cells are recorded as they complete and a resumed sweep (same
	// SweepKey) replays them instead of recomputing.
	Checkpoint string
	// Analytic enforces the network-wide analytic checker on every repeat
	// (internal/analytic): each run is verified against its topology's
	// occupancy envelope, throughput band and losslessness/progress
	// verdict, the verdict is recorded in the cell's ScenarioResults, and
	// a violated repeat quarantines its cell. Part of the SweepKey: runs
	// with and without the checker do not share checkpoints.
	Analytic bool
	// Backend selects the simulation engine per repeat: "" or "packet"
	// runs everything on netsim; "fluid" integrates every repeat on the
	// network-of-queues solver (the scheme must be fluid-representable);
	// "auto" triages each repeat with the fluid model and re-runs it at
	// packet level when the cell sits near an analytic boundary —
	// occupancy within the differential tolerance band of its envelope, a
	// deadlock/loss verdict the analytic model contradicts, or a scheme
	// whose cyclic-CBD behaviour fluid cannot represent. Part of the
	// SweepKey for the non-packet engines: fluid and packet cells never
	// share a checkpoint.
	Backend string
	// Retry is the transient-failure retry policy: cells that trip a
	// host-condition guard (wall budget, heap guard, per-job deadline) are
	// re-run up to Retry.Max times with seed-derived backoff before
	// quarantining or degrading. Deterministic failures (panics, invariant
	// violations, event-budget trips) never retry. A runtime knob: not
	// part of the SweepKey, since retrying cannot change what a cell
	// computes — only whether it completes.
	Retry runner.Retry
	// Degrade enables the degraded-fidelity fallback: a packet-backend
	// cell that exhausts its retry budget on a transient failure is
	// recomputed on the fluid solver where the analytic model vouches for
	// it (see runDegradedRepeat), with the cause recorded in the cell's
	// provenance. Part of the SweepKey: degraded cells hold fluid-computed
	// values, so degrading and non-degrading sweeps never share a
	// checkpoint.
	Degrade bool
	// failInject, when non-nil, is consulted before generating job's
	// scenario on each primary-path attempt (1-based) and its non-nil
	// return fails the attempt — the deterministic stand-in for
	// host-condition trouble in retry tests. Never applied to degraded
	// fallback runs.
	failInject func(job, attempt int) error
}

// supported fat-tree census: the arities the topology builder and its pinned
// validation tests cover. The paper sweeps 4, 8 and 16; anything even up to
// 32 (32768 hosts) stays within the validated construction.
const (
	minSweepK = 4
	maxSweepK = 32
)

// Validate rejects a sweep configuration that would otherwise fail deep
// inside the run (or silently compute nothing).
func (cfg SweepConfig) Validate() error {
	if cfg.K < minSweepK || cfg.K > maxSweepK || cfg.K%2 != 0 {
		return fmt.Errorf("table1: K = %d outside the supported fat-tree census (even, %d ≤ K ≤ %d)",
			cfg.K, minSweepK, maxSweepK)
	}
	if cfg.Networks <= 0 {
		return fmt.Errorf("table1: Networks = %d; need at least one failure scenario", cfg.Networks)
	}
	if cfg.Repeats <= 0 {
		return fmt.Errorf("table1: Repeats = %d; need at least one workload repetition per scenario", cfg.Repeats)
	}
	if cfg.FailureProb < 0 || cfg.FailureProb > 1 {
		return fmt.Errorf("table1: FailureProb = %g outside [0, 1]", cfg.FailureProb)
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("table1: Duration = %d; need a positive run horizon", cfg.Duration)
	}
	switch cfg.Backend {
	case "", "packet", "fluid", "auto":
	default:
		return fmt.Errorf("table1: unknown backend %q (want packet, fluid or auto)", cfg.Backend)
	}
	return nil
}

// DefaultSweep returns a CI-sized sweep for arity k: the paper's failure
// probability with reduced scenario/repeat counts, compensated by a 4×
// workload intensity so deadlock occurrence stays observable (documented in
// EXPERIMENTS.md; the paper runs 10000 scenarios × 100 repeats at 1 flow
// per host).
func DefaultSweep(k int) SweepConfig {
	return SweepConfig{
		K:            k,
		Networks:     200,
		Repeats:      2,
		FailureProb:  0.05,
		Duration:     25 * units.Millisecond,
		Seed:         1,
		FlowsPerHost: 4,
	}
}

// ScenarioResult is the outcome of one (topology, scheme, repeat) run.
type ScenarioResult struct {
	Deadlocked bool
	DeadlockAt units.Time
	// HostBandwidth is the mean per-host goodput (Figure 16).
	HostBandwidth units.Rate
	// Slowdowns collects per-completed-flow slowdown samples (Fig 17).
	Slowdowns []float64
	// FeedbackFraction is total feedback bytes over total link capacity
	// × time (one input to Figure 19).
	FeedbackFraction float64
	Drops            int64
	// Analytic is the network-wide analytic verdict of the repeat, present
	// when the sweep ran with SweepConfig.Analytic. It round-trips through
	// the checkpoint store like every other field, so resumed and replayed
	// cells carry the identical verdict.
	Analytic *AnalyticVerdict `json:"analytic,omitempty"`
	// HighWater is the repeat's maximum switch-channel occupancy — the
	// signal auto-mode triage compares against the analytic envelope.
	HighWater units.Size `json:"high_water,omitempty"`
	// Backend records which engine produced the repeat: "" (historic
	// checkpoints) and "packet" mean netsim, "fluid" the network-of-queues
	// solver. Riding the checkpoint entry is what keeps an auto-mode
	// resume bit-identical: a replayed cell keeps the provenance of the
	// run that computed it rather than re-triaging.
	Backend string `json:"backend,omitempty"`
	// Escalation, set only on auto-mode packet re-runs, names the analytic
	// boundary that forced the escalation.
	Escalation string `json:"escalation,omitempty"`
}

// AnalyticVerdict records what the analytic model predicted for one repeat
// and the aggregates it was checked against (the check itself passed — a
// violated repeat quarantines its cell instead of producing a result).
type AnalyticVerdict struct {
	DeadlockFree bool `json:"deadlock_free"`
	Lossless     bool `json:"lossless"`
	// MaxOccupancy is the predicted per-channel envelope; HighWater the
	// observed switch-channel maximum (HighWater ≤ MaxOccupancy held).
	MaxOccupancy units.Size `json:"max_occupancy"`
	HighWater    units.Size `json:"high_water"`
	// MaxDelivered is the aggregate throughput bound; Delivered the
	// observed total (Delivered ≤ MaxDelivered held).
	MaxDelivered units.Size `json:"max_delivered"`
	Delivered    units.Size `json:"delivered"`
}

// SweepResult aggregates one scheme over one scale.
type SweepResult struct {
	FC FC
	K  int
	// CBDProne is how many generated scenarios could form a CBD (the
	// pre-filter of §6.2.3); only these are simulated.
	CBDProne int
	// DeadlockCases counts CBD-prone scenarios where any repeat
	// deadlocked — a Table 1 cell.
	DeadlockCases int
	// Bandwidth and Slowdown aggregate over deadlock-free runs
	// (Figures 16a/17a) and over all runs (16b/17b handled by caller).
	Bandwidth stats.CDF
	Slowdown  stats.CDF
	Drops     int64
	// AnalyticChecked counts repeats that carried (and passed) the
	// network-wide analytic check — Networks × Repeats of the CBD-prone
	// cells when SweepConfig.Analytic is on and nothing was quarantined.
	AnalyticChecked int
	// Failures lists the quarantined cells (budget-blown, deadline-blown
	// or panicked scenarios), in job order. The sweep's aggregates cover
	// the surviving cells; a non-empty list means the sweep is incomplete
	// and callers should exit non-zero after reporting it.
	Failures []CellFailure
	// Retried lists the cells whose transient failures were absorbed by
	// the retry policy, in job order; Degraded the cells whose values came
	// from the degraded-fidelity fallback. Both fold the runner's
	// provenance, so resumes report the same history as the original run.
	Retried  []CellRetries
	Degraded []DegradedCell
	// Salvage, when non-nil, reports checkpoint lines the resume had to
	// discard (corrupt or torn); the dropped cells were recomputed.
	Salvage *runner.Salvage
}

// CellFailure is one quarantined sweep cell: the scenario job index, the
// rendered error, and — when the failure carried a flight-recorder
// snapshot — its report.
type CellFailure struct {
	Job    int    `json:"job"`
	Err    string `json:"err"`
	Report string `json:"report,omitempty"`
}

// FailureSummary renders the quarantined cells of a sweep as a
// deterministic, job-ordered report.
func (s *SweepResult) FailureSummary() string {
	if len(s.Failures) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d sweep cells quarantined (fc=%v k=%d):\n",
		len(s.Failures), s.FC, s.K)
	for _, f := range s.Failures {
		fmt.Fprintf(&b, "  cell %d: %s\n", f.Job, f.Err)
		if f.Report != "" {
			for _, line := range strings.Split(strings.TrimRight(f.Report, "\n"), "\n") {
				fmt.Fprintf(&b, "    %s\n", line)
			}
		}
	}
	return b.String()
}

// GenerateScenario builds the i-th random failure scenario of a sweep:
// a k-ary fat-tree with each fabric link failed with probability p. Returns
// the topology, its routing table and whether all-pairs inter-rack routing
// can form a CBD.
func GenerateScenario(k int, p float64, seed int64) (*topology.Topology, *routing.Table, bool) {
	topo := topology.FatTree(k, topology.DefaultLinkParams())
	rng := rand.New(rand.NewSource(seed))
	topo.FailRandomLinks(rng, p)
	tab := routing.NewSPF(topo)
	g := cbd.FromAllPairs(topo, tab, workload.EdgeRacks(topo))
	return topo, tab, g.HasCycle()
}

// sweepSpec is the per-repeat Spec both backends compile: the enterprise
// generator workload at the sweep's intensity, seeded by the repeat.
func sweepSpec(fc FC, cfg SweepConfig, repeatSeed int64) scenario.Spec {
	return scenario.Spec{
		Name:     "table1-repeat",
		Topology: scenario.TopologySpec{Builder: "fat-tree", K: cfg.K},
		Routing:  scenario.RoutingSpec{Policy: "spf"},
		Workload: scenario.WorkloadSpec{Generator: &scenario.GeneratorSpec{
			Dist: "enterprise", FlowsPerHost: cfg.FlowsPerHost, Seed: repeatSeed,
		}},
		Scheme: scenario.SchemeSpec{FC: fc, Preset: "sim"},
		Sim:    scenario.SimSpec{Scheduling: cfg.Scheduling.String()},
		Run: scenario.RunSpec{
			DurationNs: cfg.Duration, DetectDeadlock: true,
			Analytic: cfg.Analytic,
		},
	}
}

// RunScenario executes one workload repetition on a prepared scenario. The
// topology and routing table are supplied prebuilt (sweeps reuse them across
// repeats), so the Spec's topology section is documentation only. The run is
// governed: ctx cancellation and cfg.Budget are enforced via
// scenario.Sim.RunBounded, and a tripped governor surfaces as a
// *netsim.RunError.
func RunScenario(ctx context.Context, topo *topology.Topology, tab *routing.Table, fc FC, cfg SweepConfig, repeatSeed int64) (*ScenarioResult, error) {
	spec := sweepSpec(fc, cfg, repeatSeed)
	// The metrics registry supplies the feedback-byte accounting the
	// bespoke Trace closure used to keep.
	reg := metrics.New(metrics.Options{})
	// Every simulated cell passed the CBD pre-filter, so the dependency
	// verdict is cyclic by construction — hand it to the analytic
	// predictor instead of recomputing the all-pairs graph per repeat.
	cyclic := true
	sim, err := scenario.Build(spec, &scenario.Overrides{
		Topo: topo, Table: tab, Metrics: reg, CBDCyclic: &cyclic,
	})
	if err != nil {
		return nil, err
	}
	run, err := sim.RunBounded(ctx, cfg.Budget)
	if err != nil {
		return nil, err
	}

	res := &ScenarioResult{
		Drops: run.Drops, Deadlocked: run.Deadlocked, DeadlockAt: run.DeadlockAt,
	}
	hosts := len(topo.Hosts())
	res.HostBandwidth = units.RateOf(run.Delivered, cfg.Duration) / units.Rate(hosts)
	for _, f := range sim.Gen.Completed {
		ideal := routing.PathLatency(f.Path, 1500*units.Byte) +
			units.TransmissionTime(f.Size, 10*units.Gbps)
		res.Slowdowns = append(res.Slowdowns, stats.Slowdown(f.FCT(), ideal))
	}
	// Feedback fraction of total fabric capacity over the run.
	var capBits float64
	for i := 0; i < topo.NumLinks(); i++ {
		l := topo.Link(topology.LinkID(i))
		if !l.Failed {
			capBits += 2 * float64(l.Capacity) * cfg.Duration.Seconds()
		}
	}
	if capBits > 0 {
		res.FeedbackFraction = float64(reg.Summary().FeedbackWire.Bits()) / capBits
	}
	res.HighWater = run.HighWater
	if a := run.Analytic; a != nil {
		if a.Err != nil {
			return nil, fmt.Errorf("analytic check: %w", a.Err)
		}
		pred := a.Prediction
		res.Analytic = &AnalyticVerdict{
			DeadlockFree: pred.DeadlockFree,
			Lossless:     pred.Lossless,
			MaxOccupancy: pred.MaxOccupancy,
			HighWater:    run.HighWater,
			MaxDelivered: pred.MaxDelivered,
			Delivered:    run.Delivered,
		}
	}
	return res, nil
}

// scenarioOutcome is one scenario's worth of sweep data: the per-repeat
// results in repeat order, so the aggregation fold reproduces the serial
// loop exactly. A nil outcome marks a scenario that was not CBD-prone. The
// fields are exported (and JSON-tagged) because outcomes round-trip through
// the checkpoint store; the JSON float encoding is exact, so a replayed
// outcome aggregates bit-identically to a computed one.
type scenarioOutcome struct {
	Repeats []*ScenarioResult `json:"repeats"`
}

// SweepKey identifies the result-determining configuration of a sweep — the
// spec hash written into every checkpoint entry. Two sweeps share a key iff
// their job lists compute the same results, which is what makes a recorded
// cell safe to replay. Runtime knobs (workers, budgets, checkpoint path)
// deliberately stay out: they change how cells run, not what they compute.
func SweepKey(fc FC, cfg SweepConfig) string {
	key := fmt.Sprintf("table1/fc=%v/k=%d/n=%d/r=%d/p=%g/d=%d/seed=%d/sched=%s/fph=%d",
		fc, cfg.K, cfg.Networks, cfg.Repeats, cfg.FailureProb,
		int64(cfg.Duration), cfg.Seed, cfg.Scheduling.String(), cfg.FlowsPerHost)
	if cfg.Analytic {
		// Appended only when on, so checkpoints recorded before the
		// checker existed keep their identity for plain sweeps.
		key += "/analytic=1"
	}
	if cfg.Backend != "" && cfg.Backend != "packet" {
		// Same append-only convention: packet sweeps keep their historic
		// identity, fluid/auto sweeps get their own.
		key += "/backend=" + cfg.Backend
	}
	if cfg.Degrade {
		// Degraded cells carry fluid-computed values, so a degrading sweep
		// must not replay (or be replayed by) a strict one.
		key += "/degrade=1"
	}
	return key
}

// seedOf is the base RNG seed of scenario i, recorded in checkpoint entries.
func (cfg SweepConfig) seedOf(i int) int64 { return cfg.Seed + int64(i) }

// RunSweep executes the Table 1 experiment for one scheme at one scale.
// Scenario generation is shared across schemes via the seed, so — like the
// paper observed — the same topologies deadlock under PFC and CBFC.
//
// Scenarios run concurrently on cfg.Workers goroutines; each one is an
// independent Network seeded purely from the scenario index, and outcomes
// are folded in scenario order, so the result is bit-identical for every
// worker count (including the serial Workers == 1 case).
//
// Resilience semantics: a failed cell (budget-blown, deadline-blown,
// panicked) is quarantined into SweepResult.Failures and the sweep
// continues; with cfg.Checkpoint set, completed cells are recorded as they
// finish and a resumed sweep replays them. Cancelling ctx stops the sweep
// early and returns the partial aggregate alongside the context error —
// cancelled cells are neither aggregated, quarantined nor checkpointed, so
// a resume re-runs exactly those.
func RunSweep(ctx context.Context, fc FC, cfg SweepConfig) (*SweepResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Backend == "fluid" {
		// Fail fast rather than quarantining every cell: a pure-fluid
		// sweep of a scheme the solver cannot represent computes nothing.
		probe := sweepSpec(fc, cfg, 0)
		if err := fluidSweepBackend.Supports(&probe); err != nil {
			return nil, err
		}
	}
	runRepeat := func(ctx context.Context, topo *topology.Topology, tab *routing.Table, seed int64) (*ScenarioResult, error) {
		switch cfg.Backend {
		case "fluid":
			return RunScenarioFluid(ctx, topo, tab, fc, cfg, seed)
		case "auto":
			return runAutoRepeat(ctx, topo, tab, fc, cfg, seed)
		default:
			return RunScenario(ctx, topo, tab, fc, cfg, seed)
		}
	}
	jobs := make([]runner.Job[*scenarioOutcome], cfg.Networks)
	for i := 0; i < cfg.Networks; i++ {
		i := i
		attempt := 0 // owned by one worker at a time; retries re-enter serially
		jobs[i] = func(ctx context.Context) (*scenarioOutcome, error) {
			attempt++
			if inj := cfg.failInject; inj != nil {
				if err := inj(i, attempt); err != nil {
					return nil, err
				}
			}
			topo, tab, prone := GenerateScenario(cfg.K, cfg.FailureProb, cfg.seedOf(i))
			if !prone {
				return nil, nil
			}
			sc := &scenarioOutcome{Repeats: make([]*ScenarioResult, cfg.Repeats)}
			for r := 0; r < cfg.Repeats; r++ {
				res, err := runRepeat(ctx, topo, tab, cfg.Seed*1000+int64(i*cfg.Repeats+r))
				if err != nil {
					return nil, fmt.Errorf("repeat %d: %w", r, err)
				}
				sc.Repeats[r] = res
			}
			return sc, nil
		}
	}
	opts := runner.Options[*scenarioOutcome]{
		Workers:    cfg.Workers,
		JobTimeout: cfg.JobTimeout,
		Seed:       cfg.seedOf,
		Retry:      cfg.Retry,
		Classify:   ClassifyCellFailure,
	}
	if cfg.Degrade && cfg.Backend != "fluid" {
		// A pure-fluid sweep has nothing lower-fidelity to fall back to.
		opts.Degrade = func(ctx context.Context, job int, _ error) (*scenarioOutcome, error) {
			return runDegradedCell(ctx, fc, cfg, job)
		}
	}
	out := &SweepResult{FC: fc, K: cfg.K}
	if cfg.Checkpoint != "" {
		st, err := runner.OpenStore(cfg.Checkpoint, SweepKey(fc, cfg))
		if err != nil {
			return nil, fmt.Errorf("opening checkpoint: %w", err)
		}
		defer st.Close()
		opts.Checkpoint = st
		if sv := st.Salvage(); sv.Dropped > 0 {
			out.Salvage = &sv
		}
	}
	results := runner.RunWith(ctx, jobs, opts)

	for job, jr := range results {
		if prov := jr.Prov; prov != nil {
			if len(prov.Retries) > 0 {
				out.Retried = append(out.Retried, CellRetries{
					Job: job, Attempts: prov.Attempts, Retries: prov.Retries,
				})
			}
			if prov.Degraded != "" {
				out.Degraded = append(out.Degraded, DegradedCell{Job: job, Cause: prov.Degraded})
			}
		}
		if err := jr.Err; err != nil {
			if errors.Is(err, context.Canceled) {
				continue // cut short, not a verdict: a resume re-runs it
			}
			f := CellFailure{Job: job, Err: err.Error()}
			var re *netsim.RunError
			if errors.As(err, &re) && re.Snapshot != nil {
				f.Report = re.Snapshot.String()
			}
			out.Failures = append(out.Failures, f)
			continue
		}
		sc := jr.Value
		if sc == nil {
			continue // not CBD-prone: never simulated
		}
		out.CBDProne++
		dead := false
		for _, res := range sc.Repeats {
			out.Drops += res.Drops
			if res.Analytic != nil {
				out.AnalyticChecked++
			}
			if res.Deadlocked {
				dead = true
			} else {
				out.Bandwidth.Add(float64(res.HostBandwidth))
				for _, s := range res.Slowdowns {
					out.Slowdown.Add(s)
				}
			}
		}
		if dead {
			out.DeadlockCases++
		}
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}
