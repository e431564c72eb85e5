package scenario

import (
	"context"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/deadlock"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/units"
)

func runPreset(t *testing.T, name string) *Result {
	t.Helper()
	spec, ok := Get(name)
	if !ok {
		t.Fatalf("preset %q not registered", name)
	}
	sim, err := Build(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunBounded(context.Background(), netsim.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBFCFormationRingSurvives: the fig9 formation ring wedges PFC in
// milliseconds; under BFC the per-queue pauses stop only the hot flows'
// queues, the victim flows keep the cycle draining, and the run completes
// live and lossless with neither detector convicting.
func TestBFCFormationRingSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("200 ms testbed ring run")
	}
	res := runPreset(t, "ring-formation-bfc")
	if res.Deadlocked {
		t.Fatalf("BFC formation ring deadlocked: kind %v at %v", res.DeadlockKind, res.DeadlockAt)
	}
	if res.DCFITDeadlocked {
		t.Fatalf("DCFIT convicted the live BFC ring at %v", res.DCFITAt)
	}
	if res.Drops != 0 {
		t.Fatalf("drops = %d", res.Drops)
	}
	if res.Delivered == 0 {
		t.Fatal("no progress")
	}
}

// TestBFCResumeLossWedges is the satellite wedged-channel check: the
// resume-loss fault preset eats a QRESUME, the queue stays paused forever,
// and the global detector must call it a wedged channel — the verdict Kind
// distinguishing a lost release signal from a circular wait.
func TestBFCResumeLossWedges(t *testing.T) {
	res := runPreset(t, "ring-faulted-resume-loss-bfc")
	if !res.Deadlocked {
		t.Fatal("lost QRESUME did not wedge the BFC ring")
	}
	if res.DeadlockKind != deadlock.WedgedChannel {
		t.Fatalf("DeadlockKind = %v, want wedged-channel", res.DeadlockKind)
	}
	if res.Drops != 0 {
		t.Fatalf("drops = %d; a wedged fabric must still be lossless", res.Drops)
	}
}

// TestDCFITPresetAgreesWithGlobal races both detectors on the PFC formation
// ring end-to-end through the scenario layer: both convict, and the DCFIT
// onset lands within a couple of windows of the global one.
func TestDCFITPresetAgreesWithGlobal(t *testing.T) {
	res := runPreset(t, "ring-formation-pfc-dcfit")
	if !res.Deadlocked {
		t.Fatal("global detector missed the PFC ring deadlock")
	}
	if !res.DCFITDeadlocked {
		t.Fatal("DCFIT missed the PFC ring deadlock")
	}
	diff := res.DeadlockAt - res.DCFITAt
	if diff < 0 {
		diff = -diff
	}
	if tol := 10 * units.Millisecond; diff > tol {
		t.Fatalf("onset disagreement: global %v vs dcfit %v", res.DeadlockAt, res.DCFITAt)
	}
}

// TestDetectorFieldValidation pins the strict parsing of Run.Detector.
func TestDetectorFieldValidation(t *testing.T) {
	_, err := Parse([]byte(`{
		"name": "x",
		"topology": {"builder": "ring"},
		"workload": {"pattern": "ring-clockwise"},
		"scheme": {"fc": "BFC"},
		"run": {"duration_ns": 1000000, "detect_deadlock": true, "detector": "psychic"}
	}`))
	if err == nil {
		t.Fatal("unknown detector accepted")
	}
	if !strings.Contains(err.Error(), "unknown detector") {
		t.Fatalf("error %q does not name the detector field", err)
	}
}
