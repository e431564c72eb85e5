package experiments

import (
	"context"
	"fmt"

	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/units"
)

// CaseStudyResult is the outcome of one Figure 12/13 run: per-flow
// throughput series and the deadlock verdict.
type CaseStudyResult struct {
	FC         FC
	Deadlocked bool
	DeadlockAt units.Time
	// FlowRates[i] is flow i+1's average goodput over the final
	// measurement window.
	FlowRates []units.Rate
	// Throughput is the aggregate goodput, binned at 100 µs (§6.2.3).
	Throughput *stats.BinCounter
	Drops      int64

	// Victim statistics (WithVictim only). VictimRate is the final
	// window's goodput; VictimTotal the cumulative delivery;
	// VictimProgressed whether any victim byte arrived during the final
	// window — the deadlock-starvation discriminator (under a squeezed
	// but alive GFC fabric the rate can quantise to zero packets per
	// window while progress continues over longer spans).
	VictimRate       units.Rate
	VictimTotal      units.Size
	VictimProgressed bool
}

// CaseStudyConfig parameterises the Figures 12–14 runs.
type CaseStudyConfig struct {
	FC         FC
	Scheduling netsim.Scheduling
	Duration   units.Time // default 100 ms
	WithVictim bool       // add the Figure 14 victim flow
	// Oversubscribed adds the sibling flows, doubling CBD load.
	Oversubscribed bool
	// WithCross adds the CrossFlow squeeze trigger; with it, the CBD
	// fills and PFC/CBFC deadlock even under fair input-queued
	// switching.
	WithCross bool
	// Metrics, when non-nil, is attached to the simulation (fresh,
	// unbound) and collects per-channel counters and invariant verdicts
	// alongside the case study's own traces.
	Metrics *metrics.Registry
}

// caseStudySpec assembles the Figure 12–14 flow set (see
// FatTreeDeadlockScenario for the path derivations) as a Spec literal.
func caseStudySpec(cfg CaseStudyConfig) scenario.Spec {
	flows := []scenario.FlowSpec{
		{ID: 1, Path: []string{"H0", "E1", "A1", "C1", "A3", "C2", "A5", "E5", "H8"}},
		{ID: 2, Path: []string{"H4", "E3", "A3", "C2", "A7", "E7", "H12"}},
		{ID: 3, Path: []string{"H9", "E5", "A5", "C2", "A7", "C1", "A1", "E1", "H1"}},
		{ID: 4, Path: []string{"H13", "E7", "A7", "C1", "A3", "E3", "H5"}},
	}
	if cfg.Oversubscribed {
		flows = append(flows,
			scenario.FlowSpec{ID: 5, Path: []string{"H1", "E1", "A1", "C1", "A3", "C2", "A5", "E5", "H9"}},
			scenario.FlowSpec{ID: 6, Path: []string{"H5", "E3", "A3", "C2", "A7", "E7", "H13"}},
			scenario.FlowSpec{ID: 7, Path: []string{"H8", "E5", "A5", "C2", "A7", "C1", "A1", "E1", "H0"}},
			scenario.FlowSpec{ID: 8, Path: []string{"H12", "E7", "A7", "C1", "A3", "E3", "H4"}},
		)
	}
	if cfg.WithCross {
		flows = append(flows,
			scenario.FlowSpec{ID: 50, Path: []string{"H6", "E4", "A3", "C2", "A7", "E8", "H14"}})
	}
	if cfg.WithVictim {
		flows = append(flows,
			scenario.FlowSpec{ID: 99, Path: []string{"H12", "E7", "A7", "C2", "A3", "E3", "H4"}})
	}
	return scenario.Spec{
		Name: "fig12-casestudy",
		Topology: scenario.TopologySpec{
			Builder:   "fat-tree",
			K:         4,
			FailLinks: []string{"C1-A5", "A1-C2", "E1-A2", "E5-A6"},
		},
		Workload: scenario.WorkloadSpec{Flows: flows},
		Scheme:   scenario.SchemeSpec{FC: cfg.FC, Preset: "sim"},
		Sim:      scenario.SimSpec{Scheduling: cfg.Scheduling.String()},
		Run: scenario.RunSpec{
			DurationNs: cfg.Duration, DetectDeadlock: true, Analytic: true,
		},
	}
}

// RunCaseStudy executes the fat-tree deadlock case study (Figures 12, 13
// and, with WithVictim, 14) under one flow-control scheme.
func RunCaseStudy(cfg CaseStudyConfig) (*CaseStudyResult, units.Rate, error) {
	if cfg.Duration == 0 {
		cfg.Duration = 100 * units.Millisecond
	}
	tp := stats.NewBinCounter(100 * units.Microsecond)
	// The measurement window is the final quarter: windowed counts each
	// flow's deliveries after windowStart as they land (the hook runs in
	// the same call that bumps Flow.Delivered).
	windowStart := cfg.Duration * 3 / 4
	windowed := make(map[*netsim.Flow]units.Size)
	sim, err := scenario.Build(caseStudySpec(cfg), &scenario.Overrides{Metrics: cfg.Metrics})
	if err != nil {
		return nil, 0, err
	}
	sim.Net.Observe(&netsim.Trace{
		OnDeliver: func(t units.Time, f *netsim.Flow, pkt *netsim.Packet) {
			tp.Add(t, pkt.Size)
			if t > windowStart {
				windowed[f] += pkt.Size
			}
		},
	})
	flows := sim.Flows
	var victim *netsim.Flow
	if cfg.WithVictim {
		victim = flows[len(flows)-1]
		flows = flows[:len(flows)-1]
	}
	run, err := sim.RunBounded(context.Background(), netsim.Budget{})
	if err != nil {
		return nil, 0, err
	}
	window := cfg.Duration - windowStart

	res := &CaseStudyResult{
		FC:         cfg.FC,
		Throughput: tp,
		Drops:      run.Drops,
		Deadlocked: run.Deadlocked,
		DeadlockAt: run.DeadlockAt,
	}
	for _, f := range flows {
		res.FlowRates = append(res.FlowRates, units.RateOf(windowed[f], window))
	}
	var victimRate units.Rate
	if victim != nil {
		victimRate = units.RateOf(windowed[victim], window)
		res.VictimRate = victimRate
		res.VictimTotal = victim.Delivered
		res.VictimProgressed = windowed[victim] > 0
	}
	if err := run.Analytic.Err; err != nil {
		return res, victimRate, fmt.Errorf("fig12 %v: %w", cfg.FC, err)
	}
	return res, victimRate, nil
}
