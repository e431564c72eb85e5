package scenario

import (
	"context"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/units"
)

func TestBackendFor(t *testing.T) {
	for name, want := range map[string]string{
		"": "packet", "packet": "packet", "fluid": "fluid", "auto": "auto",
	} {
		be, err := BackendFor(name)
		if err != nil {
			t.Fatalf("BackendFor(%q): %v", name, err)
		}
		if be.Name() != want {
			t.Errorf("BackendFor(%q).Name() = %q, want %q", name, be.Name(), want)
		}
	}
	if _, err := BackendFor("quantum"); err == nil || !strings.Contains(err.Error(), "quantum") {
		t.Errorf("BackendFor(quantum) = %v, want error naming it", err)
	}
}

func TestSpecBackendValidation(t *testing.T) {
	spec := twoToOne(GFCBuf)
	for _, ok := range []string{"", "packet", "fluid", "auto"} {
		spec.Sim.Backend = ok
		if err := spec.Validate(); err != nil {
			t.Errorf("backend %q: %v", ok, err)
		}
	}
	spec.Sim.Backend = "analog"
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "analog") {
		t.Errorf("backend analog: err = %v, want unknown-backend error", err)
	}
}

// TestFluidSupportsReasons pins Supports' rejection reasons feature by
// feature — the conformance suite and sweep triage both key off them.
func TestFluidSupportsReasons(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string // "" means supported
	}{
		{"baseline", func(*Spec) {}, ""},
		{"faults", func(s *Spec) { s.Faults = &FaultsSpec{Preset: "resume-loss"} }, "fault injection"},
		{"generator", func(s *Spec) {
			s.Workload = WorkloadSpec{Generator: &GeneratorSpec{Dist: "enterprise"}}
		}, "generator"},
		{"cbfc", func(s *Spec) { s.Scheme.FC = CBFC }, "credit"},
		{"bfc", func(s *Spec) { s.Scheme.FC = BFC }, "per-flow queues"},
		{"priorities", func(s *Spec) { s.Sim.Priorities = 2 }, "priority classes"},
		{"jitter", func(s *Spec) { s.Sim.FeedbackJitterNs = units.Microsecond }, "jitter"},
		{"scheduling", func(s *Spec) { s.Sim.Scheduling = "blocking" }, "packet-granular"},
		{"dcfit", func(s *Spec) { s.Run.Detector = "dcfit" }, "DCFIT"},
		{"both-detectors", func(s *Spec) { s.Run.Detector = "both" }, "DCFIT"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := twoToOne(GFCBuf)
			tc.mutate(&spec)
			err := FluidBackend{}.Supports(&spec)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Supports: %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Supports = %v, want reason containing %q", err, tc.want)
			}
		})
	}
}

// TestAutoBackendDispatch checks the per-spec auto triage: fluid-capable
// specs compile onto the fluid solver, everything else onto netsim.
func TestAutoBackendDispatch(t *testing.T) {
	spec := twoToOne(GFCBuf)
	spec.Sim.Backend = "auto"
	r, err := BuildBackend(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunBounded(context.Background(), netsim.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "fluid" {
		t.Errorf("auto on a fluid-capable spec ran %q, want fluid", res.Backend)
	}

	spec = twoToOne(CBFC)
	spec.Sim.Backend = "auto"
	r, err = BuildBackend(spec, &Overrides{Metrics: metrics.New(metrics.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	res, err = r.RunBounded(context.Background(), netsim.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "packet" {
		t.Errorf("auto on a CBFC spec ran %q, want packet", res.Backend)
	}
}

// TestFluidBuildRejections pins Build's own gates (beyond Supports).
func TestFluidBuildRejections(t *testing.T) {
	spec := twoToOne(GFCBuf)
	onFlow := func(*netsim.Flow, *netsim.Network) error { return nil }
	if _, err := (FluidBackend{}).Build(spec, &Overrides{OnFlow: onFlow}); err == nil ||
		!strings.Contains(err.Error(), "packet-only") {
		t.Errorf("OnFlow override: err = %v, want packet-only rejection", err)
	}
	cbfc := twoToOne(CBFC)
	if _, err := (FluidBackend{}).Build(cbfc, nil); err == nil ||
		!strings.Contains(err.Error(), "credit") {
		t.Errorf("CBFC build: err = %v, want Supports rejection", err)
	}
}

// TestFluidRunnerSingleUse mirrors the packet Sim's single-use contract.
func TestFluidRunnerSingleUse(t *testing.T) {
	r, err := (FluidBackend{}).Build(twoToOne(PFC), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunBounded(context.Background(), netsim.Budget{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunBounded(context.Background(), netsim.Budget{}); err == nil {
		t.Error("second RunBounded succeeded, want single-use error")
	}
}

// TestFluidAnalyticAttached checks the fluid runner carries the same
// analytic verdict machinery as the packet path: a registry-bound run with
// Run.Analytic set yields a prediction and no invariant violation.
func TestFluidAnalyticAttached(t *testing.T) {
	spec := twoToOne(GFCBuf)
	spec.Run.Analytic = true
	reg := metrics.New(metrics.Options{})
	r, err := (FluidBackend{}).Build(spec, &Overrides{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunBounded(context.Background(), netsim.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Analytic == nil {
		t.Fatal("no analytic check attached")
	}
	if res.Analytic.Err != nil {
		t.Fatalf("analytic invariant violated: %v", res.Analytic.Err)
	}
	if res.Analytic.Prediction == nil {
		t.Fatal("no prediction recorded")
	}
	if res.HighWater <= 0 {
		t.Error("fluid run recorded no high-water occupancy")
	}
}
