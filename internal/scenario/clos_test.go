package scenario

import (
	"context"
	"testing"

	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/units"
)

// TestClos128Smoke is the CI smoke test for the headline Clos-scale
// scenarios: the k=8 fat-tree (128 hosts, 80 switches) under the paper's
// inter-rack enterprise workload, once per scheme. Each run must complete
// with traffic delivered, and the GFC variants must finish with zero
// invariant violations and no deadlock — the paper's central claim at a
// scale the bespoke drivers never reached. BFC rides along: its per-flow
// queue assignment and per-queue pause bookkeeping get their concurrency
// shakedown here under -race, and on a healthy fabric it must be as
// lossless and deadlock-free as PFC.
func TestClos128Smoke(t *testing.T) {
	for _, fc := range append(AllFCs(), BFC) {
		fc := fc
		t.Run(string(fc), func(t *testing.T) {
			spec, ok := Get("clos128-" + schemeSlug(fc))
			if !ok {
				t.Fatalf("clos128 scenario for %s not registered", fc)
			}
			if testing.Short() {
				// Race-detector CI budgets: a quarter of the
				// catalogue duration still covers thousands of
				// flow completions.
				spec.Run.DurationNs = 500 * units.Microsecond
			}
			reg := metrics.New(metrics.Options{})
			sim, err := Build(spec, &Overrides{Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			if got := len(sim.Topo.Hosts()); got != 128 {
				t.Fatalf("clos128 has %d hosts, want 128", got)
			}
			res, err := sim.RunBounded(context.Background(), netsim.Budget{})
			if err != nil {
				t.Fatal(err)
			}
			if res.End < spec.Run.DurationNs {
				t.Fatalf("run ended at %v, want %v", res.End, spec.Run.DurationNs)
			}
			if res.Delivered == 0 {
				t.Fatal("no traffic delivered")
			}
			t.Logf("%s: delivered %v, drops %d, violations %d, deadlocked %v",
				fc, res.Delivered, res.Drops, res.Violations, res.Deadlocked)
			if fc == BFC {
				if res.Drops != 0 || res.Violations != 0 {
					t.Errorf("BFC: drops=%d violations=%d on the healthy Clos; want lossless",
						res.Drops, res.Violations)
				}
				if res.Deadlocked {
					t.Errorf("BFC deadlocked on a healthy fat-tree")
				}
			}
			if fc.IsGFC() {
				if res.Violations != 0 {
					t.Errorf("%s: %d invariant violations on the healthy Clos; want 0", fc, res.Violations)
					for _, v := range reg.Violations() {
						t.Logf("violation: %+v", v)
					}
				}
				if res.Deadlocked {
					t.Errorf("%s deadlocked on a healthy fat-tree", fc)
				}
			}
		})
	}
}
