package experiments

import (
	"context"
	"fmt"

	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// Fig5Result holds the rate and queue evolutions of the §4.1 illustration.
type Fig5Result struct {
	FC FC
	// Queue is the congested ingress queue length over time (bytes).
	Queue *stats.Series
	// Rate is H1's input rate over time (bits/s), measured as arrival
	// bytes at the switch in 25 µs bins.
	Rate *stats.Series
	// SteadyQueue is the mean queue over the final quarter of the run.
	SteadyQueue units.Size
	Drops       int64
}

// RunFig5 reproduces Figure 5: a 2-to-1 congestion scenario (two hosts into
// one) with C = 10 Gb/s, τ = 25 µs, Bm = 100 KB, B0 = 50 KB; PFC runs with
// XOFF = 80 KB, XON = 77 KB. Under PFC the queue saws between XON and XOFF
// and the input rate alternates 0 ↔ line rate; under conceptual GFC the
// queue converges to B_s = 75 KB and the rate to the 5 Gb/s draining rate.
// fc must be PFC or GFCConceptual (pass GFCBuf for the practical variant's
// behaviour under the same scenario).
func RunFig5(fc FC, duration units.Time) (*Fig5Result, error) {
	if duration == 0 {
		duration = 20 * units.Millisecond
	}
	scheme := scenario.SchemeSpec{FC: fc}
	switch fc {
	case PFC:
		scheme.Params = scenario.FCParams{XOFF: 80 * units.KB, XON: 77 * units.KB}
	case GFCBuf:
		scheme.Params = scenario.FCParams{B1: 60 * units.KB, Bm: 110 * units.KB}
	default:
		// The figure's idealised design: continuous feedback with
		// B0 = 50 KB, Bm = 100 KB regardless of the label asked for.
		scheme.FC = GFCConceptual
		scheme.Params = scenario.FCParams{B0: 50 * units.KB, Bm: 100 * units.KB}
	}
	spec := scenario.Spec{
		Name:     "fig5-two-to-one",
		Topology: scenario.TopologySpec{Builder: "two-to-one"},
		Routing:  scenario.RoutingSpec{Policy: "spf"},
		Workload: scenario.WorkloadSpec{Flows: []scenario.FlowSpec{
			{ID: 1, Src: "H1", Dst: "H3"},
			{ID: 2, Src: "H2", Dst: "H3"},
		}},
		Scheme: scheme,
		Sim: scenario.SimSpec{
			BufferBytes: 120 * units.KB, // B ≥ Bm, a little slack above the mapping
			TauNs:       25 * units.Microsecond,
			// Make the actual feedback latency match the illustration's
			// τ = 25 µs (message wire time + 1 µs propagation +
			// ProcDelay).
			ProcDelayNs: 23950 * units.Nanosecond,
		},
		Run: scenario.RunSpec{DurationNs: duration, Analytic: true},
	}

	res := &Fig5Result{FC: fc, Queue: &stats.Series{}, Rate: &stats.Series{}}
	arrivals := stats.NewBinCounter(25 * units.Microsecond)
	sim, err := scenario.Build(spec, nil)
	if err != nil {
		return nil, err
	}
	observeH1Ingress(sim, res.Queue, arrivals)
	run, err := sim.RunBounded(context.Background(), netsim.Budget{})
	if err != nil {
		return nil, err
	}
	for i, r := range arrivals.Rates() {
		res.Rate.Append(units.Time(i)*arrivals.Width, float64(r))
	}
	res.SteadyQueue = units.Size(res.Queue.MeanAfter(duration * 3 / 4))
	res.Drops = run.Drops
	if err := run.Analytic.Err; err != nil {
		return res, fmt.Errorf("fig5 %v: %w", fc, err)
	}
	return res, nil
}

// observeH1Ingress subscribes the collectors Figures 5 and 9 plot: S1's
// ingress queue from H1 (local port 0) into queue, and the bytes of H1's
// traffic arriving at S1 into arrivals.
func observeH1Ingress(sim *scenario.Sim, queue *stats.Series, arrivals *stats.BinCounter) {
	s1 := sim.Topo.MustLookup("S1")
	h1 := sim.Topo.MustLookup("H1")
	sim.Net.Observe(&netsim.Trace{
		OnQueue: func(t units.Time, node topology.NodeID, port, _ int, q units.Size) {
			if node == s1 && port == 0 {
				queue.Append(t, float64(q))
			}
		},
		OnArrival: func(t units.Time, node topology.NodeID, pkt *netsim.Packet) {
			if node == s1 && pkt.Flow.Src == h1 {
				arrivals.Add(t, pkt.Size)
			}
		},
	})
}
