package scenario

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/units"
)

// governedSpec is the Figure 1 ring under PFC — unbounded clockwise flows,
// so a governed run always has events left to burn through.
func governedSpec() Spec {
	return Spec{
		Name:     "limits-test-ring",
		Topology: TopologySpec{Builder: "ring", N: 3},
		Workload: WorkloadSpec{Pattern: "ring-clockwise"},
		Scheme:   SchemeSpec{FC: PFC, Preset: "sim"},
		Run:      RunSpec{DurationNs: 5 * units.Millisecond},
	}
}

func TestLimitsParseAndRoundTrip(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "bounded",
		"topology": {"builder": "ring"},
		"workload": {"pattern": "ring-clockwise"},
		"scheme": {"fc": "PFC"},
		"run": {"duration_ns": 1000000},
		"limits": {"max_events": 50000, "max_wall_ms": 2000, "stall_events": 10000}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	l := spec.Limits
	if l == nil || l.MaxEvents != 50000 || l.MaxWallMs != 2000 || l.StallEvents != 10000 {
		t.Fatalf("limits = %+v", l)
	}
	b := l.Budget()
	if b.MaxEvents != 50000 || b.MaxWall.Milliseconds() != 2000 || b.StallEvents != 10000 {
		t.Fatalf("budget = %+v", b)
	}
	data, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if *back.Limits != *spec.Limits {
		t.Fatalf("limits round trip: %+v != %+v", back.Limits, spec.Limits)
	}
}

func TestLimitsValidate(t *testing.T) {
	_, err := Parse([]byte(`{
		"name": "bad",
		"topology": {"builder": "ring"},
		"workload": {"pattern": "ring-clockwise"},
		"scheme": {"fc": "PFC"},
		"run": {"duration_ns": 1},
		"limits": {"max_wall_ms": -5}
	}`))
	if err == nil || !strings.Contains(err.Error(), "max_wall_ms") {
		t.Fatalf("negative max_wall_ms accepted: %v", err)
	}
	_, err = Parse([]byte(`{
		"name": "bad",
		"topology": {"builder": "ring"},
		"workload": {"pattern": "ring-clockwise"},
		"scheme": {"fc": "PFC"},
		"run": {"duration_ns": 1},
		"limits": {"max_cycles": 7}
	}`))
	if err == nil {
		t.Fatal("unknown limits field accepted")
	}
}

func TestRunBoundedHonoursSpecLimits(t *testing.T) {
	spec := governedSpec()
	spec.Limits = &LimitsSpec{MaxEvents: 5000, CheckEvery: 64}
	sim, err := Build(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunBounded(context.Background(), netsim.Budget{})
	var re *netsim.RunError
	if !errors.As(err, &re) || re.Reason != netsim.StopEventBudget {
		t.Fatalf("err = %v, want event-budget RunError", err)
	}
	if res == nil || res.Stopped != re {
		t.Fatal("partial Result does not carry the governor verdict")
	}
	if res.End == 0 {
		t.Fatal("partial Result has no progress recorded")
	}
	if re.Snapshot == nil || re.Snapshot.Packets.Total() == 0 {
		t.Fatal("flight recorder empty for a loaded ring")
	}
}

func TestRunBoundedOverlayPrecedence(t *testing.T) {
	// The caller's budget must override the spec's generous Limits.
	spec := governedSpec()
	spec.Limits = &LimitsSpec{MaxEvents: 1 << 40}
	sim, err := Build(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.RunBounded(context.Background(), netsim.Budget{MaxEvents: 2000, CheckEvery: 64})
	var re *netsim.RunError
	if !errors.As(err, &re) || re.Reason != netsim.StopEventBudget {
		t.Fatalf("err = %v, want event-budget trip from the overlay", err)
	}
	if re.Snapshot.Events >= 1<<40 {
		t.Fatal("spec limit won over the caller's budget")
	}
}
