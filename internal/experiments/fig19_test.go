package experiments

import (
	"testing"

	"github.com/gfcsim/gfc/internal/eventsim"
	"github.com/gfcsim/gfc/internal/units"
)

// TestLastAtSeesEveryEventAtItsInstant pins the Figure 19 bin boundary: a
// lastAt callback must observe every event at its instant — those scheduled
// before it, those scheduled after it, and those that other events at the
// same instant schedule while the run is there — and none after it, exactly
// like a run with that horizon.
func TestLastAtSeesEveryEventAtItsInstant(t *testing.T) {
	const at = 10 * units.Microsecond
	eng := eventsim.New()
	var ran []string
	mark := func(name string) func() { return func() { ran = append(ran, name) } }

	eng.Schedule(at, mark("before"))
	eng.Schedule(at-1, func() {
		ran = append(ran, "earlier")
		eng.Schedule(at, mark("scheduled-earlier"))
	})
	var seen []string
	calls := 0
	lastAt(eng, at, func() {
		calls++
		if eng.Now() != at {
			t.Errorf("callback ran at %v, want %v", eng.Now(), at)
		}
		seen = append([]string(nil), ran...)
	})
	eng.Schedule(at, func() {
		ran = append(ran, "after")
		// A chain of same-instant events scheduled during the run.
		eng.Schedule(at, func() {
			ran = append(ran, "chained")
			eng.Schedule(at, mark("chained-twice"))
		})
	})
	eng.Schedule(at+1, mark("later"))
	eng.Run(units.Never)

	if calls != 1 {
		t.Fatalf("callback ran %d times, want once", calls)
	}
	want := map[string]bool{
		"earlier": true, "before": true, "scheduled-earlier": true,
		"after": true, "chained": true, "chained-twice": true,
	}
	if len(seen) != len(want) {
		t.Fatalf("callback saw %v, want exactly the events at or before %v", seen, at)
	}
	for _, name := range seen {
		if !want[name] {
			t.Fatalf("callback saw %q: %v", name, seen)
		}
	}
}
