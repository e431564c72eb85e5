package experiments

import (
	"context"
	"fmt"

	"github.com/gfcsim/gfc/internal/dcqcn"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// Fig20Result holds the §7 interaction study traces: the switch ingress
// queue, H1's DCQCN rate and H1's GFC port rate over time. The paper's
// narrative: GFC caps the port at 1.25 Gb/s within one hop-RTT of the incast
// onset; DCQCN then converges below that, at which point GFC is inactive.
type Fig20Result struct {
	Queue     *stats.Series // ingress queue at S1 from H1
	DCQCNRate *stats.Series // H1 flow rate under DCQCN
	GFCRate   *stats.Series // H1 port rate under GFC
	// MaxQueue is the worst ingress occupancy across S1's ports.
	MaxQueue units.Size
	// FinalDCQCN is DCQCN's rate at the end (≈ fair share 1.25 Gb/s).
	FinalDCQCN units.Rate
	Drops      int64
}

// RunFig20 executes the dumbbell incast (8 senders → 1 receiver, ECN
// threshold 40 KB) with buffer-based GFC and DCQCN together.
func RunFig20(duration units.Time) (*Fig20Result, error) {
	if duration == 0 {
		duration = 20 * units.Millisecond
	}
	// "All settings of buffer-based GFC are consistent with
	// aforementioned simulations" (§7): 300 KB buffers, so the incast
	// onset crosses B1 before DCQCN's end-to-end loop reacts. Only the
	// buffer size and GFC params come from the sim preset — the rest of
	// the config keeps the netsim defaults, so the spec spells the two
	// fields out rather than naming the preset.
	simCfg, fp := SimParams()
	spec := scenario.Spec{
		Name:     "fig20-incast",
		Topology: scenario.TopologySpec{Builder: "dumbbell", N: 8},
		Routing:  scenario.RoutingSpec{Policy: "spf"},
		Workload: scenario.WorkloadSpec{Flows: []scenario.FlowSpec{
			{ID: 1, Src: "H1", Dst: "H9"}, {ID: 2, Src: "H2", Dst: "H9"},
			{ID: 3, Src: "H3", Dst: "H9"}, {ID: 4, Src: "H4", Dst: "H9"},
			{ID: 5, Src: "H5", Dst: "H9"}, {ID: 6, Src: "H6", Dst: "H9"},
			{ID: 7, Src: "H7", Dst: "H9"}, {ID: 8, Src: "H8", Dst: "H9"},
		}},
		Scheme: scenario.SchemeSpec{FC: GFCBuf, Params: fp},
		Sim: scenario.SimSpec{
			BufferBytes: simCfg.BufferSize,
			ECNBytes:    40 * units.KB,
		},
		Run: scenario.RunSpec{DurationNs: duration, Analytic: true},
	}
	res := &Fig20Result{
		Queue:     &stats.Series{},
		DCQCNRate: &stats.Series{},
		GFCRate:   &stats.Series{},
	}
	sim, err := scenario.Build(spec, &scenario.Overrides{
		OnFlow: func(f *netsim.Flow, net *netsim.Network) error {
			rp := dcqcn.Attach(net, f, dcqcn.DefaultConfig(10*units.Gbps))
			if f.ID == 1 {
				rp.RateLog = func(t units.Time, r units.Rate) {
					res.DCQCNRate.Append(t, float64(r))
				}
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	net := sim.Net
	s1 := sim.Topo.MustLookup("S1")
	net.Observe(&netsim.Trace{
		OnQueue: func(t units.Time, node topology.NodeID, port, _ int, q units.Size) {
			if node == s1 && port == 0 {
				res.Queue.Append(t, float64(q))
			}
			if node == s1 && q > res.MaxQueue {
				res.MaxQueue = q
			}
		},
	})
	// Sample H1's GFC port rate periodically.
	h1 := sim.Topo.MustLookup("H1")
	var sample func()
	sample = func() {
		res.GFCRate.Append(net.Now(), float64(net.SenderRate(h1, 0, 0)))
		if net.Now() < duration {
			net.Engine().After(50*units.Microsecond, sample)
		}
	}
	net.Engine().After(50*units.Microsecond, sample)
	run, err := sim.RunBounded(context.Background(), netsim.Budget{})
	if err != nil {
		return nil, err
	}
	res.FinalDCQCN = units.Rate(res.DCQCNRate.MeanAfter(duration * 3 / 4))
	res.Drops = run.Drops
	if err := run.Analytic.Err; err != nil {
		return res, fmt.Errorf("fig20: %w", err)
	}
	return res, nil
}
