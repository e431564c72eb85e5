package deadlock

import (
	"testing"

	"github.com/gfcsim/gfc/internal/eventsim"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// fakeFeedbackNet drives DCFIT's observer and clock directly, so the edge
// bookkeeping and cycle walk can be pinned without staging real traffic.
type fakeFeedbackNet struct {
	now units.Time
	obs func(t units.Time, from, to topology.NodeID, prio int, m flowcontrol.Message)
}

func (f *fakeFeedbackNet) Now() units.Time          { return f.now }
func (f *fakeFeedbackNet) Engine() *eventsim.Engine { panic("Check-only fake") }
func (f *fakeFeedbackNet) Observe(tr *netsim.Trace) { f.obs = tr.OnFeedback }

func newFakeDCFIT() (*DCFIT, *fakeFeedbackNet) {
	f := &fakeFeedbackNet{now: units.Millisecond}
	d := NewDCFIT(f)
	d.net.Observe(&netsim.Trace{OnFeedback: d.onDeliver})
	return d, f
}

// pause delivers a PAUSE emitted by down to its upstream up, creating the
// dependency edge up→down.
func (f *fakeFeedbackNet) pause(up, down topology.NodeID) {
	f.obs(f.now, down, up, 0, flowcontrol.Message{Kind: flowcontrol.KindPause})
}

func (f *fakeFeedbackNet) resume(up, down topology.NodeID) {
	f.obs(f.now, down, up, 0, flowcontrol.Message{Kind: flowcontrol.KindResume})
}

// TestDCFITReportsCycleAfterWindow is the positive control: a closed
// 3-cycle of pauses (1→2→3→1) persisting a full window is a circular wait.
func TestDCFITReportsCycleAfterWindow(t *testing.T) {
	d, f := newFakeDCFIT()
	f.pause(1, 2)
	f.pause(2, 3)
	f.pause(3, 1)
	if rep := d.Check(); rep != nil {
		t.Fatalf("cycle reported before the persistence window: %+v", rep)
	}
	f.now += d.Window
	rep := d.Check()
	if rep == nil {
		t.Fatal("persistent pause cycle not reported")
	}
	if rep.Kind != CircularWait {
		t.Fatalf("Kind = %v, want circular wait", rep.Kind)
	}
	if len(rep.Cycle) != 3 {
		t.Fatalf("cycle %v, want all 3 channels", rep.Cycle)
	}
	for i, c := range rep.Cycle {
		next := rep.Cycle[(i+1)%len(rep.Cycle)]
		if c.Node != next.From {
			t.Fatalf("cycle does not chain: %v", rep.Cycle)
		}
	}
	if rep.StallFor < d.Window {
		t.Fatalf("StallFor = %v, want ≥ window", rep.StallFor)
	}
	// Detection latches.
	if again := d.Check(); again != rep {
		t.Fatal("second Check did not return the latched report")
	}
}

// TestDCFITCycleAnyFormationOrder pins the parent-walk design decision: the
// cycle must be found regardless of the order the pauses were delivered in —
// including orders where delivery-time tag inheritance alone would leave the
// closing edge carrying a stale trigger.
func TestDCFITCycleAnyFormationOrder(t *testing.T) {
	edges := [3][2]topology.NodeID{{1, 2}, {2, 3}, {3, 1}}
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		d, f := newFakeDCFIT()
		for _, i := range p {
			f.pause(edges[i][0], edges[i][1])
		}
		d.Check()
		f.now += d.Window
		if rep := d.Check(); rep == nil || len(rep.Cycle) != 3 {
			t.Errorf("order %v: cycle not reported (rep=%+v)", p, rep)
		}
	}
}

// TestDCFITChainIsNotACycle: a linear pause chain — however long-lived —
// has an unpaused tail and must never be reported.
func TestDCFITChainIsNotACycle(t *testing.T) {
	d, f := newFakeDCFIT()
	f.pause(1, 2)
	f.pause(2, 3)
	f.pause(3, 4) // node 4 is not paused by anyone: chain, not cycle
	for i := 0; i < 5; i++ {
		f.now += d.Window
		if rep := d.Check(); rep != nil {
			t.Fatalf("pause chain reported as deadlock: %+v", rep)
		}
	}
}

// TestDCFITResumeResetsPersistence: a RESUME on a cycle edge breaks the
// candidate; the window must restart when the cycle re-forms.
func TestDCFITResumeResetsPersistence(t *testing.T) {
	d, f := newFakeDCFIT()
	f.pause(1, 2)
	f.pause(2, 3)
	f.pause(3, 1)
	d.Check() // candidate armed
	f.now += d.Window / 2
	f.resume(3, 1) // cycle broken mid-window
	if rep := d.Check(); rep != nil {
		t.Fatalf("broken cycle reported: %+v", rep)
	}
	f.pause(3, 1) // re-formed: a new pause, so the clock restarts
	d.Check()
	f.now += d.Window - 1
	if rep := d.Check(); rep != nil {
		t.Fatalf("re-formed cycle reported before a fresh full window: %+v", rep)
	}
	f.now += 1
	if rep := d.Check(); rep == nil {
		t.Fatal("re-formed cycle never reported")
	}
}

// TestDCFITQueueScopedEdges: BFC QPAUSE edges are scoped per physical
// queue — a QRESUME on one queue must not clear another queue's edge, and a
// cycle of per-queue pauses is detected like a class-level one.
func TestDCFITQueueScopedEdges(t *testing.T) {
	d, f := newFakeDCFIT()
	qpause := func(up, down topology.NodeID, q int) {
		f.obs(f.now, down, up, 0, flowcontrol.Message{Kind: flowcontrol.KindQueuePause, QueueID: q})
	}
	qresume := func(up, down topology.NodeID, q int) {
		f.obs(f.now, down, up, 0, flowcontrol.Message{Kind: flowcontrol.KindQueueResume, QueueID: q})
	}
	qpause(1, 2, 3)
	qpause(2, 3, 1)
	qpause(3, 1, 5)
	qresume(1, 2, 4) // different queue: edge (1,2,q3) must survive
	if d.Edges() != 3 {
		t.Fatalf("edges = %d after unrelated-queue resume, want 3", d.Edges())
	}
	d.Check()
	f.now += d.Window
	if rep := d.Check(); rep == nil || len(rep.Cycle) != 3 {
		t.Fatalf("per-queue pause cycle not reported (rep=%+v)", rep)
	}
}

// TestDCFITIgnoresNonPauseFeedback: credit, rate and queue-length feedback
// create no dependency edges — DCFIT is silent for CBFC and GFC by design.
func TestDCFITIgnoresNonPauseFeedback(t *testing.T) {
	d, f := newFakeDCFIT()
	for _, k := range []flowcontrol.Kind{
		flowcontrol.KindCredit, flowcontrol.KindStage, flowcontrol.KindQueue,
	} {
		f.obs(f.now, 2, 1, 0, flowcontrol.Message{Kind: k})
	}
	if d.Edges() != 0 {
		t.Fatalf("edges = %d from non-pause feedback, want 0", d.Edges())
	}
}

// TestDCFITTriggerInheritance: a pause delivered to a node whose own
// downstream is already paused continues that chain — the initial trigger
// propagates instead of a fresh one being minted per hop.
func TestDCFITTriggerInheritance(t *testing.T) {
	d, f := newFakeDCFIT()
	f.pause(2, 3) // node 3 pauses its upstream 2: trigger minted by 3
	f.pause(1, 2) // node 2 (itself paused) pauses 1: inherits 3's trigger
	e12 := d.edges[EdgeKey{Up: 1, Down: 2, Prio: 0, Queue: -1}]
	e23 := d.edges[EdgeKey{Up: 2, Down: 3, Prio: 0, Queue: -1}]
	if e12 == nil || e23 == nil {
		t.Fatal("edges missing")
	}
	if e12.tag != e23.tag {
		t.Fatalf("downstream edge minted its own trigger: %+v vs %+v", e12.tag, e23.tag)
	}
	if e23.tag.creator != 3 {
		t.Fatalf("trigger creator = %v, want the initiating node 3", e23.tag.creator)
	}
	// An unpaused node pausing someone mints fresh.
	f.pause(5, 6)
	e56 := d.edges[EdgeKey{Up: 5, Down: 6, Prio: 0, Queue: -1}]
	if e56.tag == e23.tag {
		t.Fatal("independent pause inherited an unrelated trigger")
	}
}

// TestDCFITRingAgreesWithGlobal races the two detectors on the real fig9
// deadlock ring under PFC: both must convict, with the same verdict kind,
// at onset times within a couple of windows of each other — DCFIT watching
// the feedback plane and the global detector watching buffer snapshots are
// observing the same standstill.
func TestDCFITRingAgreesWithGlobal(t *testing.T) {
	n, _ := buildRing(t, 2, pfcTestbed())
	g := NewDetector(n)
	g.Install()
	d := NewDCFIT(n)
	d.Install()
	n.Run(100 * units.Millisecond)

	grep, drep := g.Deadlocked(), d.Deadlocked()
	if grep == nil {
		t.Fatal("global detector missed the ring deadlock")
	}
	if drep == nil {
		t.Fatal("DCFIT missed the ring deadlock")
	}
	if drep.Kind != CircularWait || grep.Kind != CircularWait {
		t.Fatalf("kinds: global %v, dcfit %v, want circular wait from both", grep.Kind, drep.Kind)
	}
	if len(drep.Cycle) < 3 {
		t.Fatalf("DCFIT cycle %v, want ≥ 3 channels", drep.Cycle)
	}
	diff := grep.At - drep.At
	if diff < 0 {
		diff = -diff
	}
	if tol := 2 * g.Window; diff > tol {
		t.Errorf("onset disagreement: global %v vs dcfit %v (|Δ| = %v > %v)",
			grep.At, drep.At, diff, tol)
	}
}
