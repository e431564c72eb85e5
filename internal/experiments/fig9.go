package experiments

import (
	"context"
	"fmt"

	"github.com/gfcsim/gfc/internal/deadlock"
	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// RingResult holds one Figures 9/10 run: the queue and input-rate traces of
// the switch port connecting H1, plus the deadlock verdict.
type RingResult struct {
	FC         FC
	Deadlocked bool
	DeadlockAt units.Time
	// DeadlockKind distinguishes a circular wait from a fault-wedged
	// channel (meaningful only when Deadlocked).
	DeadlockKind deadlock.Kind
	// DCFITDeadlocked / DCFITAt report the in-data-plane detector's
	// verdict when RingConfig.Detector installed it ("dcfit" or "both").
	DCFITDeadlocked bool
	DCFITAt         units.Time
	Queue           *stats.Series // ingress S1←H1 occupancy
	Rate            *stats.Series // H1's achieved input rate, 100 µs bins
	// SteadyQueue / SteadyRate average the final quarter of the run
	// (≈840 KB / 5 Gb/s for buffer-based GFC in the paper's testbed,
	// ≈745 KB / 5 Gb/s for time-based).
	SteadyQueue units.Size
	SteadyRate  units.Rate
	Drops       int64
	// Delivered totals the bytes every flow got to its destination;
	// MinFlow is the worst-served flow's share (zero means a flow was
	// starved outright — the per-port progress criterion of the fault
	// matrix).
	Delivered units.Size
	MinFlow   units.Size
	// FaultStats reports what the run's injector actually did (zero when
	// the run was clean).
	FaultStats faults.Stats
}

// RingConfig parameterises the Figures 9/10 testbed reproduction.
type RingConfig struct {
	FC       FC
	Duration units.Time // default 60 ms
	// HostsPerSwitch: 1 gives the paper's critically loaded testbed
	// topology, where GFC settles at its steady state; 2 adds the
	// sibling hosts whose extra injectors squeeze transit traffic and
	// make the cyclic buffers fill — the deadlock-formation regime for
	// PFC/CBFC. Default 1.
	HostsPerSwitch int
	Scheduling     netsim.Scheduling
	// Tau overrides the testbed's 90 µs worst-case feedback latency
	// used for parameter derivation (ablations).
	Tau units.Time
	// Metrics, when non-nil, is attached to the simulation (fresh,
	// unbound) and collects per-channel counters, occupancy series and
	// invariant verdicts alongside the figure's own traces.
	Metrics *metrics.Registry
	// Faults, when non-nil, injects the compiled fault plan: its timeline
	// is scheduled on the run's engine and feedback emissions consult a
	// fresh injector seeded with FaultSeed. The plan must be compiled on
	// the same ring topology RunRing builds (RingTopology).
	Faults    *faults.Plan
	FaultSeed int64
	// Refresh sets buffer-based GFC's periodic stage re-advertisement for
	// this run (loss repair under faulted feedback); zero keeps the
	// edge-triggered default and the clean-run traces.
	Refresh units.Time
	// Detector selects the deadlock detector(s), as in
	// scenario.RunSpec.Detector: "" or "global", "dcfit", or "both".
	Detector string
	// Ctx and Budget govern the run (scenario.Sim.RunBounded): the
	// context is polled and the budget enforced, and a tripped governor
	// surfaces as a *netsim.RunError. A nil Ctx means
	// context.Background(); a zero Budget imposes no bounds.
	Ctx    context.Context
	Budget netsim.Budget
}

// RingTopology builds the topology RunRing simulates, so fault plans can be
// compiled against the exact link set.
func RingTopology(hostsPerSwitch int) *topology.Topology {
	if hostsPerSwitch == 0 {
		hostsPerSwitch = 1
	}
	return topology.RingHosts(3, hostsPerSwitch, topology.DefaultLinkParams())
}

// RunRing executes the §6.1 ring experiment under one scheme with the
// testbed parameters (1 MB buffers, τ = 90 µs). It is a thin Spec literal
// over scenario.Build; only the figure's own trace collection stays here.
func RunRing(cfg RingConfig) (*RingResult, error) {
	if cfg.Duration == 0 {
		cfg.Duration = 60 * units.Millisecond
	}
	if cfg.HostsPerSwitch == 0 {
		cfg.HostsPerSwitch = 1
	}
	spec := scenario.Spec{
		Name:     "fig9-ring",
		Topology: scenario.TopologySpec{Builder: "ring", N: 3, HostsPerSwitch: cfg.HostsPerSwitch},
		Workload: scenario.WorkloadSpec{Pattern: "ring-clockwise"},
		Scheme: scenario.SchemeSpec{
			FC: cfg.FC, Preset: "testbed",
			Params: scenario.FCParams{Refresh: cfg.Refresh},
		},
		Sim: scenario.SimSpec{Scheduling: cfg.Scheduling.String()},
		Run: scenario.RunSpec{
			DurationNs: cfg.Duration, DetectDeadlock: true,
			Detector: cfg.Detector, Analytic: true,
		},
	}
	if cfg.Tau > 0 {
		// Tau ablation: re-derive the GFC thresholds for the new τ so
		// the safety bounds hold (B1 ≤ Bm − 2Cτ with Bm defaulted by
		// the factory). The preset's B1/B0 are pinned for τ = 90 µs,
		// so spell the params out instead of overlaying.
		simCfg, fp := TestbedParams()
		fp.B1 = 0
		fp.B0 = 0
		fp.Refresh = cfg.Refresh
		spec.Scheme = scenario.SchemeSpec{FC: cfg.FC, Params: fp}
		spec.Sim.BufferBytes = simCfg.BufferSize
		spec.Sim.TauNs = cfg.Tau
	}

	res := &RingResult{FC: cfg.FC, Queue: &stats.Series{}, Rate: &stats.Series{}}
	arrivals := stats.NewBinCounter(100 * units.Microsecond)
	sim, err := scenario.Build(spec, &scenario.Overrides{
		Metrics:   cfg.Metrics,
		FaultPlan: cfg.Faults,
		FaultSeed: cfg.FaultSeed,
	})
	if err != nil {
		return nil, err
	}
	observeH1Ingress(sim, res.Queue, arrivals)
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	run, err := sim.RunBounded(ctx, cfg.Budget)
	if err != nil {
		return nil, err
	}

	for i, r := range arrivals.Rates() {
		res.Rate.Append(units.Time(i)*arrivals.Width, float64(r))
	}
	res.SteadyQueue = units.Size(res.Queue.MeanAfter(cfg.Duration * 3 / 4))
	res.SteadyRate = units.Rate(res.Rate.MeanAfter(cfg.Duration * 3 / 4))
	res.Drops = run.Drops
	res.Delivered = run.Delivered
	for i, f := range sim.Flows {
		if i == 0 || f.Delivered < res.MinFlow {
			res.MinFlow = f.Delivered
		}
	}
	res.FaultStats = run.FaultStats
	// With Detector "dcfit" alone, DCFIT's verdict is the run's verdict.
	res.Deadlocked, res.DeadlockAt, res.DeadlockKind = run.Deadlocked, run.DeadlockAt, run.DeadlockKind
	res.DCFITDeadlocked, res.DCFITAt = run.DCFITDeadlocked, run.DCFITAt
	if err := run.Analytic.Err; err != nil {
		return res, fmt.Errorf("fig9 %v: %w", cfg.FC, err)
	}
	return res, nil
}
