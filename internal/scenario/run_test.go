package scenario

import (
	"context"
	"testing"

	"github.com/gfcsim/gfc/internal/netsim"
)

// TestRunBoundedWithoutLimitsCompletes: with a zero Budget and no Limits
// block the governed run is unbounded — it reaches the declared horizon
// with no error and no stop verdict.
func TestRunBoundedWithoutLimitsCompletes(t *testing.T) {
	spec := governedSpec()
	sim, err := Build(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunBounded(context.Background(), netsim.Budget{})
	if err != nil {
		t.Fatalf("unbounded RunBounded: %v", err)
	}
	if res.Stopped != nil {
		t.Fatalf("completed run marked as stopped: %v", res.Stopped)
	}
	if res.End != spec.Run.DurationNs {
		t.Fatalf("run ended at %v, want the horizon %v", res.End, spec.Run.DurationNs)
	}
}

// TestStopOnDeadlockEndsRun drives the fig9 formation ring, which wedges
// under PFC at about 7 ms of a 200 ms horizon, with StopOnDeadlock set: the
// watcher must end the run within one detector poll of the verdict instead
// of simulating the frozen fabric to the horizon.
func TestStopOnDeadlockEndsRun(t *testing.T) {
	spec, ok := Get("ring-formation-pfc")
	if !ok {
		t.Fatal("ring-formation-pfc not registered")
	}
	spec.Run.StopOnDeadlock = true
	sim, err := Build(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunBounded(context.Background(), netsim.Budget{})
	if err != nil {
		t.Fatalf("RunBounded: %v", err)
	}
	if !res.Deadlocked {
		t.Fatal("formation ring did not deadlock under PFC")
	}
	if res.End >= spec.Run.DurationNs {
		t.Fatalf("run ended at %v: StopOnDeadlock did not cut the %v horizon short",
			res.End, spec.Run.DurationNs)
	}
	if limit := res.DeadlockAt + sim.Detector.PollInterval(); res.End > limit {
		t.Fatalf("run ended at %v, more than one poll after the deadlock at %v", res.End, res.DeadlockAt)
	}
	t.Logf("deadlock at %v, run ended at %v", res.DeadlockAt, res.End)
}
