package experiments

import (
	"context"
	"fmt"

	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/units"
)

// EvolutionResult is one Figure 18 run: the network-wide average throughput
// evolution on a deadlock-prone random scenario. Under PFC the curve
// collapses to zero shortly after the fatal flow combination appears; under
// GFC it stays up.
type EvolutionResult struct {
	FC         FC
	Deadlocked bool
	DeadlockAt units.Time
	// Throughput is aggregate delivered bytes in 100 µs bins.
	Throughput *stats.BinCounter
	// FinalRate is the aggregate goodput over the last quarter.
	FinalRate units.Rate
	Drops     int64
}

// EvolutionConfig parameterises RunEvolution. Scale and seed select the
// random scenario; the defaults pick a k=4 scenario known to deadlock under
// PFC with the default workload seed.
type EvolutionConfig struct {
	FC       FC
	K        int
	Seed     int64 // topology seed
	Workload int64 // workload seed
	Duration units.Time
}

// DefaultEvolution returns the configuration used for the Figure 18
// reproduction: a CBD-prone k=4 scenario and workload seed under which PFC
// deadlocks mid-run.
func DefaultEvolution(fc FC) EvolutionConfig {
	return EvolutionConfig{
		FC:       fc,
		K:        4,
		Seed:     106,
		Workload: 8061, // PFC deadlocks at ≈27 ms under this combination
		Duration: 40 * units.Millisecond,
	}
}

// RunEvolution executes one Figure 18 trace.
func RunEvolution(cfg EvolutionConfig) (*EvolutionResult, error) {
	spec := scenario.Spec{
		Name: "fig18-evolution",
		Topology: scenario.TopologySpec{
			Builder: "fat-tree", K: cfg.K,
			FailRandom: &scenario.FailRandomSpec{Prob: 0.05, Seed: cfg.Seed},
		},
		Routing:  scenario.RoutingSpec{Policy: "spf"},
		Workload: scenario.WorkloadSpec{Generator: &scenario.GeneratorSpec{Dist: "enterprise", Seed: cfg.Workload}},
		Scheme:   scenario.SchemeSpec{FC: cfg.FC, Preset: "sim"},
		Run: scenario.RunSpec{
			DurationNs: cfg.Duration, DetectDeadlock: true, Analytic: true,
		},
	}
	tp := stats.NewBinCounter(100 * units.Microsecond)
	sim, err := scenario.Build(spec, nil)
	if err != nil {
		return nil, err
	}
	sim.Net.Observe(&netsim.Trace{
		OnDeliver: func(t units.Time, _ *netsim.Flow, pkt *netsim.Packet) {
			tp.Add(t, pkt.Size)
		},
	})
	run, err := sim.RunBounded(context.Background(), netsim.Budget{})
	if err != nil {
		return nil, err
	}

	res := &EvolutionResult{
		FC: cfg.FC, Throughput: tp, Drops: run.Drops,
		Deadlocked: run.Deadlocked, DeadlockAt: run.DeadlockAt,
	}
	// Final-quarter aggregate rate.
	bins := tp.Bins()
	start := len(bins) * 3 / 4
	var bytes units.Size
	for _, b := range bins[start:] {
		bytes += b
	}
	res.FinalRate = units.RateOf(bytes, units.Time(len(bins)-start)*tp.Width)
	if err := run.Analytic.Err; err != nil {
		return res, fmt.Errorf("fig18 %v: %w", cfg.FC, err)
	}
	return res, nil
}
