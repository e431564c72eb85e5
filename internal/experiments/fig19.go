package experiments

import (
	"context"
	"fmt"

	"github.com/gfcsim/gfc/internal/eventsim"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/units"
)

// OverheadResult is the Figure 19 measurement: the distribution of per-port
// feedback-message bandwidth under buffer-based GFC, counted in 500 µs bins
// as a fraction of link capacity. The paper reports mean 0.21%, p99 < 0.4%,
// max 0.49%.
type OverheadResult struct {
	// CDF holds one sample per (port, bin): feedback bandwidth fraction.
	CDF *stats.CDF
	// Mean, P99 and Max are fractions of link capacity.
	Mean, P99, Max float64
	Drops          int64
}

// OverheadConfig parameterises RunOverhead.
type OverheadConfig struct {
	K        int // fat-tree arity (paper: 16; default 8 for CI budgets)
	Seed     int64
	Duration units.Time
	FC       FC // default GFCBuf (the paper's subject); CBFC for contrast
}

// RunOverhead measures feedback bandwidth on a healthy fat-tree under the
// random enterprise workload.
func RunOverhead(cfg OverheadConfig) (*OverheadResult, error) {
	if cfg.K == 0 {
		cfg.K = 8
	}
	if cfg.Duration == 0 {
		cfg.Duration = 10 * units.Millisecond
	}
	if cfg.FC == "" {
		cfg.FC = GFCBuf
	}
	spec := scenario.Spec{
		Name:     "fig19-overhead",
		Topology: scenario.TopologySpec{Builder: "fat-tree", K: cfg.K},
		Routing:  scenario.RoutingSpec{Policy: "spf"},
		Workload: scenario.WorkloadSpec{Generator: &scenario.GeneratorSpec{Dist: "enterprise", Seed: cfg.Seed}},
		Scheme:   scenario.SchemeSpec{FC: cfg.FC, Preset: "sim"},
		Run:      scenario.RunSpec{DurationNs: cfg.Duration, Analytic: true},
	}
	// Per-channel feedback wire bytes come straight off the metrics
	// registry: each bin closes in an engine event at its boundary that
	// differences every channel's cumulative FeedbackWire counter.
	const bin = 500 * units.Microsecond
	reg := metrics.New(metrics.Options{})
	sim, err := scenario.Build(spec, &scenario.Overrides{Metrics: reg})
	if err != nil {
		return nil, err
	}
	nBins := int(cfg.Duration / bin)
	nc := reg.NumChannels()
	prev := make([]units.Size, nc)
	binWire := make([][]units.Size, nc)
	for c := range binWire {
		binWire[c] = make([]units.Size, nBins)
	}
	for b := 0; b < nBins; b++ {
		lastAt(sim.Net.Engine(), bin*units.Time(b+1), func() {
			for c := 0; c < nc; c++ {
				w := reg.Counter(c).FeedbackWire
				binWire[c][b] = w - prev[c]
				prev[c] = w
			}
		})
	}
	run, err := sim.RunBounded(context.Background(), netsim.Budget{})
	if err != nil {
		return nil, err
	}

	res := &OverheadResult{CDF: &stats.CDF{}, Drops: run.Drops}
	cap10G := float64(10 * units.Gbps)
	for c := 0; c < nc; c++ {
		// As in the paper's measurement, only channels that carried any
		// feedback contribute samples (idle ports would swamp the CDF
		// with zeros).
		if prev[c] == 0 {
			continue
		}
		for _, w := range binWire[c] {
			rate := units.RateOf(w, bin)
			res.CDF.Add(float64(rate) / cap10G)
		}
	}
	res.Mean = res.CDF.Mean()
	res.P99 = res.CDF.Quantile(0.99)
	res.Max = res.CDF.Max()
	if err := run.Analytic.Err; err != nil {
		return res, fmt.Errorf("fig19 %v: %w", cfg.FC, err)
	}
	return res, nil
}

// lastAt schedules fn to run at time t after every other event at t,
// including events that t-events schedule at t while it waits: while the
// queue still shows an event at t, the event re-arms itself behind it. fn
// therefore sees the state a run with horizon t ends in. Two lastAt events
// at the same instant would re-arm behind each other forever.
func lastAt(eng *eventsim.Engine, t units.Time, fn func()) {
	var rearm func()
	rearm = func() {
		if next, ok := eng.Peek(); ok && next.At() == t {
			eng.Schedule(t, rearm)
			return
		}
		fn()
	}
	eng.Schedule(t, rearm)
}
