package eventsim

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/gfcsim/gfc/internal/units"
)

// This file property-tests the 4-ary heap against a reference model: a plain
// list of pending (time, insertion-sequence) pairs whose expected fire order
// is a stable sort by time. Any heap bug — wrong parent/child arithmetic, a
// lost sift, a cancelled entry that fires or hides a live one — shows up as a
// divergence between the engine's fire order, Pending count or Peek head and
// the model's.

// refEvent is one scheduled event in the reference model.
type refEvent struct {
	at  units.Time
	seq int // insertion order, the FIFO tie-break
}

// runModelComparison drives an engine and a reference model through a random
// interleaving of Schedule, After, Cancel (live and stale handles) and Step,
// then drains both and compares the complete fire order. Along the way
// Pending must count exactly the model's live events, and Peek must return
// the model's earliest one — never a cancelled entry left in the heap.
func runModelComparison(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := New()

	type live struct {
		ev  Event
		ref refEvent
	}
	var (
		pending []live     // scheduled, not yet fired or cancelled
		stale   []Event    // handles whose events fired or were cancelled
		fired   []refEvent // engine fire order
		model   []refEvent // expected: filled at drain time
		seq     int
	)
	schedule := func(at units.Time) {
		re := refEvent{at: at, seq: seq}
		seq++
		ev := e.Schedule(at, func() { fired = append(fired, re) })
		pending = append(pending, live{ev: ev, ref: re})
	}

	// earliest is the index in pending of the next event to fire.
	earliest := func() int {
		min := 0
		for i := 1; i < len(pending); i++ {
			if pending[i].ref.at < pending[min].ref.at ||
				(pending[i].ref.at == pending[min].ref.at &&
					pending[i].ref.seq < pending[min].ref.seq) {
				min = i
			}
		}
		return min
	}

	const ops = 400
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 4: // Schedule at an absolute time, ties likely
			schedule(e.Now() + units.Time(rng.Intn(16)))
		case k < 6: // After, including zero delay
			at := e.Now() + units.Time(rng.Intn(8))
			re := refEvent{at: at, seq: seq}
			seq++
			ev := e.After(at-e.Now(), func() { fired = append(fired, re) })
			pending = append(pending, live{ev: ev, ref: re})
		case k < 8: // Cancel a random live handle: over many ops its dead
			// entry sits at leaf, root and interior heap positions.
			if len(pending) > 0 {
				i := rng.Intn(len(pending))
				e.Cancel(pending[i].ev)
				stale = append(stale, pending[i].ev)
				pending = append(pending[:i], pending[i+1:]...)
			}
		case k < 9: // Cancel a stale handle: must be a no-op
			if len(stale) > 0 {
				e.Cancel(stale[rng.Intn(len(stale))])
			}
		default: // Step: fire the earliest pending event
			if e.Step() {
				// The fired event leaves pending; find it by the
				// engine-reported order later. Remove the model's
				// minimum (at, seq) — that is what must have fired.
				min := earliest()
				model = append(model, pending[min].ref)
				stale = append(stale, pending[min].ev)
				pending = append(pending[:min], pending[min+1:]...)
			}
		}
		if e.Pending() != len(pending) {
			t.Fatalf("seed %d op %d: Pending = %d, model has %d live events",
				seed, op, e.Pending(), len(pending))
		}
		// Peek drops dead heads as a side effect; do it on a third of
		// the ops so Step and Run also meet dead heads themselves.
		if op%3 == 0 {
			top, ok := e.Peek()
			if ok != (len(pending) > 0) {
				t.Fatalf("seed %d op %d: Peek ok = %v with %d live events", seed, op, ok, len(pending))
			}
			if ok && top != pending[earliest()].ev {
				t.Fatalf("seed %d op %d: Peek = %+v, model head %+v",
					seed, op, top, pending[earliest()].ev)
			}
		}
	}

	// Drain: everything still pending fires in (at, seq) order.
	rest := make([]refEvent, 0, len(pending))
	for _, l := range pending {
		rest = append(rest, l.ref)
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].at != rest[j].at {
			return rest[i].at < rest[j].at
		}
		return rest[i].seq < rest[j].seq
	})
	model = append(model, rest...)
	e.RunAll()

	if len(fired) != len(model) {
		t.Fatalf("seed %d: engine fired %d events, model expects %d", seed, len(fired), len(model))
	}
	for i := range model {
		if fired[i] != model[i] {
			t.Fatalf("seed %d: fire order diverges at %d: engine %+v, model %+v",
				seed, i, fired[i], model[i])
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("seed %d: %d events left pending after drain", seed, e.Pending())
	}
}

func TestHeapAgainstReferenceModel(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		runModelComparison(t, seed)
	}
}

// TestCancelAtEveryHeapPosition schedules n events and cancels exactly one at
// each possible heap position (root, every interior node, every leaf),
// checking the survivors still fire in order. This pins that a dead entry
// anywhere in the 4-ary layout is skipped when it surfaces, and never
// displaces a live one.
func TestCancelAtEveryHeapPosition(t *testing.T) {
	const n = 85 // > 4 full levels of a 4-ary heap (1+4+16+64)
	for victim := 0; victim < n; victim++ {
		e := New()
		evs := make([]Event, n)
		var fired []int
		// Shuffled times so heap positions differ from schedule order.
		rng := rand.New(rand.NewSource(int64(victim)))
		times := rng.Perm(n)
		for i := 0; i < n; i++ {
			i := i
			evs[i] = e.Schedule(units.Time(times[i]), func() { fired = append(fired, times[i]) })
		}
		e.Cancel(evs[victim])
		e.RunAll()
		if len(fired) != n-1 {
			t.Fatalf("victim %d: fired %d events, want %d", victim, len(fired), n-1)
		}
		if !sort.IntsAreSorted(fired) {
			t.Fatalf("victim %d: out-of-order fire sequence %v", victim, fired)
		}
		for _, ts := range fired {
			if ts == times[victim] {
				t.Fatalf("victim %d: cancelled event fired", victim)
			}
		}
	}
}

// Equal-timestamp FIFO order must hold through interleaved cancellations.
func TestFIFOTiesSurviveCancels(t *testing.T) {
	e := New()
	const n = 64
	var fired []int
	evs := make([]Event, n)
	for i := 0; i < n; i++ {
		i := i
		evs[i] = e.Schedule(7, func() { fired = append(fired, i) })
	}
	for i := 0; i < n; i += 3 {
		e.Cancel(evs[i])
	}
	e.RunAll()
	if !sort.IntsAreSorted(fired) {
		t.Fatalf("FIFO tie order broken after cancels: %v", fired)
	}
	for _, i := range fired {
		if i%3 == 0 {
			t.Fatalf("cancelled event %d fired", i)
		}
	}
}

func TestPeek(t *testing.T) {
	e := New()
	if _, ok := e.Peek(); ok {
		t.Fatal("Peek on empty queue reported an event")
	}
	e.Schedule(20, func() {})
	first := e.Schedule(10, func() {})
	top, ok := e.Peek()
	if !ok || top != first || top.At() != 10 {
		t.Fatalf("Peek = %+v, %v; want the t=10 event", top, ok)
	}
	if e.Pending() != 2 {
		t.Fatal("Peek consumed an event")
	}
}

func TestAbsorb(t *testing.T) {
	e := New()
	ran := false
	later := e.Schedule(10, func() { ran = true })

	// Not due yet: the head is at t=10 but the clock is at 0.
	if e.Absorb(later) {
		t.Fatal("Absorb succeeded for an event not due at the current clock")
	}

	e.Schedule(5, func() {
		// Inside the t=5 callback, head is the t=10 event: still not due.
		if e.Absorb(later) {
			t.Fatal("Absorb succeeded at t=5 for a t=10 head")
		}
	})
	e.Run(5)

	// A due event that is not the head must not absorb; the head must.
	e.Schedule(10, func() {
		// Clock is 10. Both x and y are due now, but only x is the head.
		x := e.Schedule(10, func() { t.Error("absorbed event x ran") })
		y := e.Schedule(10, func() {})
		if e.Absorb(y) {
			t.Fatal("Absorb succeeded for a due but non-head event")
		}
		if !e.Absorb(x) {
			t.Fatal("Absorb of the due head failed")
		}
	})
	e.RunAll()
	if !ran {
		t.Fatal("t=10 event did not run")
	}

	// Absorb exactly at the due instant, from inside a same-time callback.
	e2 := New()
	count := 0
	var absorbable Event
	e2.Schedule(1, func() {
		if !e2.Absorb(absorbable) {
			t.Fatal("Absorb of the due head failed")
		}
		// Absorbing credits the fired counter without running the fn.
		if e2.Fired() != 2 {
			t.Fatalf("Fired = %d after absorb, want 2", e2.Fired())
		}
		// A second absorb of the same handle is stale.
		if e2.Absorb(absorbable) {
			t.Fatal("double Absorb succeeded")
		}
	})
	absorbable = e2.Schedule(1, func() { count++ })
	e2.RunAll()
	if count != 0 {
		t.Fatal("absorbed event's callback ran")
	}
	if e2.Absorb(Event{}) {
		t.Fatal("Absorb of the zero Event succeeded")
	}
}

// Absorbed events must not let the governor hook skip its check: the hook
// fires on a fired-counter threshold, not an exact multiple.
func TestHookSurvivesAbsorb(t *testing.T) {
	e := New()
	var chain func()
	n := 0
	chain = func() {
		n++
		// Schedule two same-time events and absorb one, jumping the
		// fired counter by 2 per callback.
		tw := e.Schedule(e.Now(), func() {})
		if !e.Absorb(tw) {
			t.Fatal("absorb of just-scheduled due head failed")
		}
		e.After(1, chain)
	}
	e.Schedule(0, chain)
	calls := 0
	e.SetHook(3, func() bool { calls++; return calls < 5 })
	e.RunAll()
	if calls != 5 {
		t.Fatalf("hook ran %d times, want 5 (run must end on the 5th)", calls)
	}
}

// Slot must be a stable dense index for a live event and recycle afterwards.
func TestSlotRecycling(t *testing.T) {
	e := New()
	a := e.Schedule(1, func() {})
	slot := a.Slot()
	if slot < 0 {
		t.Fatalf("Slot = %d, want non-negative", slot)
	}
	e.RunAll()
	b := e.Schedule(2, func() {})
	if b.Slot() != slot {
		t.Fatalf("freed slot %d not recycled, got %d", slot, b.Slot())
	}
	// The recycled slot's new handle differs (generation), so a Peek
	// comparison distinguishes them.
	top, ok := e.Peek()
	if !ok || top != b || top == a {
		t.Fatalf("Peek = %+v; must match the live handle only", top)
	}
}

// A cancelled head must be invisible: Peek and Absorb see the live event
// behind it, and a cancelled handle never absorbs.
func TestPeekAbsorbSkipCancelledHead(t *testing.T) {
	e := New()
	dead := e.Schedule(0, func() { t.Error("cancelled event ran") })
	live := e.Schedule(0, func() { t.Error("absorbed event ran") })
	later := e.Schedule(5, func() {})
	e.Cancel(dead)
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d after one cancel of three, want 2", e.Pending())
	}
	if top, ok := e.Peek(); !ok || top != live {
		t.Fatalf("Peek = %+v, %v; want the live head behind the cancelled one", top, ok)
	}
	if e.Absorb(dead) {
		t.Fatal("Absorb of a cancelled handle succeeded")
	}
	if !e.Absorb(live) {
		t.Fatal("Absorb of the live head behind a cancelled one failed")
	}
	e.Cancel(later)
	if _, ok := e.Peek(); ok || e.Pending() != 0 {
		t.Fatalf("Peek ok = %v, Pending = %d with every event fired or cancelled", ok, e.Pending())
	}
	if e.Step() {
		t.Fatal("Step ran a cancelled event")
	}
	if e.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1 (the absorbed event)", e.Fired())
	}
}

// Run must not let a cancelled head at or before the horizon pull a live
// event from beyond it.
func TestRunHorizonIgnoresCancelledHead(t *testing.T) {
	e := New()
	e.Cancel(e.Schedule(5, func() { t.Error("cancelled event ran") }))
	ran := false
	e.Schedule(20, func() { ran = true })
	if got := e.Run(10); got != 0 || ran {
		t.Fatalf("Run(10) = %v, ran = %v; the only live event is at 20", got, ran)
	}
	e.Run(20)
	if !ran {
		t.Fatal("live event did not run")
	}
}

// TestScheduleKickPatternStaysBounded replays netsim's retry-timer pattern:
// many ports each keep one wake pending, and re-arming a port cancels its
// later wake and schedules an earlier one. Every cancel leaves a dead entry
// behind, so without compaction the heap would grow by one per re-arm; with
// it, dead entries never outnumber live ones after a cancel.
func TestScheduleKickPatternStaysBounded(t *testing.T) {
	const ports = 64
	e := New()
	rng := rand.New(rand.NewSource(1))
	wake := make([]Event, ports)
	fired := make([]int, ports)
	for p := range wake {
		p := p
		wake[p] = e.Schedule(units.Time(1000+rng.Intn(1000)), func() { fired[p]++ })
	}
	maxHeap := 0
	for i := 0; i < 100000; i++ {
		p := rng.Intn(ports)
		if at := e.Now() + units.Time(1+rng.Intn(100)); at < wake[p].At() {
			e.Cancel(wake[p])
			if dead := len(e.heap) - e.Pending(); dead > e.Pending() {
				t.Fatalf("re-arm %d: %d dead entries for %d live after a cancel", i, dead, e.Pending())
			}
			wake[p] = e.Schedule(at, func() { fired[p]++ })
		}
		if i%8 == 0 {
			// The fired port re-arms far out, as an idle kick would.
			if e.Step() {
				for q := range wake {
					if wake[q].At() <= e.Now() && fired[q] > 0 {
						fired[q] = 0
						q := q
						wake[q] = e.Schedule(e.Now()+units.Time(1000+rng.Intn(1000)), func() { fired[q]++ })
					}
				}
			}
		}
		if len(e.heap) > maxHeap {
			maxHeap = len(e.heap)
		}
	}
	if e.Pending() != ports {
		t.Fatalf("Pending = %d, want one wake per port (%d)", e.Pending(), ports)
	}
	if maxHeap > 2*ports+1 {
		t.Fatalf("heap grew to %d entries for %d live wakes", maxHeap, ports)
	}
}
