package analytic_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/units"
)

// FuzzAnalyticBounds drives randomly parameterised small scenarios end to
// end and asserts the analytic prediction's bounds hold on the finished run:
// no switch channel exceeds the occupancy envelope, delivered bytes stay
// inside the conservation bound, a lossless claim sees zero drops and a
// deadlock-free claim survives the detector. Any violation is a soundness
// bug in internal/analytic (or the simulator), never acceptable noise.
func FuzzAnalyticBounds(f *testing.F) {
	schemes := []scenario.FC{
		scenario.PFC, scenario.CBFC, scenario.GFCBuf,
		scenario.GFCTime, scenario.GFCConceptual, scenario.BFC,
	}
	for i := range schemes {
		f.Add(uint8(i), uint8(0), uint16(300), uint8(1), uint8(0))
		f.Add(uint8(i), uint8(2), uint16(120), uint8(2), uint8(10))
	}
	f.Add(uint8(1), uint8(3), uint16(64), uint8(1), uint8(0)) // two-to-one CBFC
	f.Fuzz(func(t *testing.T, schemeSel, topoSel uint8, bufKB uint16, stride, jitterUs uint8) {
		fc := schemes[int(schemeSel)%len(schemes)]
		// Buffers below ~48 KB cannot fit the derived GFC stage ladders on
		// 10 Gb/s links; clamp into the analysable regime, cap for speed.
		buf := units.Size(bufKB) * units.KB
		if buf < 48*units.KB {
			buf = 48 * units.KB
		}
		if buf > 600*units.KB {
			buf = 600 * units.KB
		}
		// CBFC's factory has no period derivation of its own; give it the
		// sim preset's 50 µs so the scheme is actually exercised.
		var params scenario.FCParams
		if fc == scenario.CBFC {
			params.Period = 50 * units.Microsecond
		}
		spec := scenario.Spec{
			Name:    "fuzz-analytic",
			Routing: scenario.RoutingSpec{Policy: "spf"},
			Scheme:  scenario.SchemeSpec{FC: fc, Params: params},
			Sim: scenario.SimSpec{
				BufferBytes:      buf,
				FeedbackJitterNs: units.Time(jitterUs%50) * units.Microsecond,
				JitterSeed:       int64(stride) + 1,
			},
			Run: scenario.RunSpec{
				DurationNs:     2 * units.Millisecond,
				DetectDeadlock: true,
				Analytic:       true,
			},
		}
		// Small topologies keep each case a few milliseconds of wall clock.
		switch topoSel % 4 {
		case 0, 1:
			n := 3 + int(topoSel%4) // ring-3 or ring-4
			spec.Topology = scenario.TopologySpec{Builder: "ring", N: n}
			st := 1 + int(stride)%(n-1)
			for i := 0; i < n; i++ {
				spec.Workload.Flows = append(spec.Workload.Flows, scenario.FlowSpec{
					Src: fmt.Sprintf("H%d", i+1),
					Dst: fmt.Sprintf("H%d", (i+st)%n+1),
				})
			}
		case 2:
			spec.Topology = scenario.TopologySpec{Builder: "ring", N: 3, HostsPerSwitch: 2}
			for i := 0; i < 3; i++ {
				spec.Workload.Flows = append(spec.Workload.Flows,
					scenario.FlowSpec{Src: fmt.Sprintf("H%d", i+1), Dst: fmt.Sprintf("H%d", (i+1)%3+1)},
					scenario.FlowSpec{Src: fmt.Sprintf("H%db", i+1), Dst: fmt.Sprintf("H%d", (i+1)%3+1)},
				)
			}
		case 3:
			spec.Topology = scenario.TopologySpec{Builder: "two-to-one"}
			spec.Workload.Flows = []scenario.FlowSpec{
				{Src: "H1", Dst: "H3"}, {Src: "H2", Dst: "H3"},
			}
		}
		sim, err := scenario.Build(spec, nil)
		if err != nil {
			// Some corners are legitimately unbuildable (e.g. a threshold
			// derivation rejects the buffer); that is not a bounds bug.
			t.Skipf("build: %v", err)
		}
		res, err := sim.RunBounded(context.Background(), netsim.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Analytic == nil {
			t.Fatal("Run.Analytic set but no verdict attached")
		}
		if res.Analytic.Err != nil {
			t.Fatalf("%v on %s (buf %v): %v", fc, spec.Topology.Builder, buf, res.Analytic.Err)
		}
		if res.Analytic.Prediction == nil {
			t.Fatal("nil prediction without error")
		}
	})
}
