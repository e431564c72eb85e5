package deadlock

import (
	"sort"

	"github.com/gfcsim/gfc/internal/eventsim"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// Probe is the pluggable detector interface the scenario layer drives: a
// detector is installed on the network's engine, and reports at most one
// permanent standstill. Both the global snapshot Detector and the
// in-data-plane DCFIT implement it.
type Probe interface {
	// Install schedules the detector's periodic work on the network's
	// engine.
	Install()
	// Deadlocked reports the detection result so far; nil when none.
	Deadlocked() *Report
	// PollInterval is the detector's polling period — the cadence
	// StopOnDeadlock watchers should check Deadlocked at.
	PollInterval() units.Time
}

// PollInterval implements Probe for the global Detector.
func (d *Detector) PollInterval() units.Time { return d.Interval }

// FeedbackNetwork is the observational slice of netsim.Network DCFIT needs:
// unlike the global Detector it never snapshots buffer state — it taps the
// feedback plane itself.
type FeedbackNetwork interface {
	Now() units.Time
	Engine() *eventsim.Engine
	Observe(*netsim.Trace)
}

// EdgeKey identifies one pause-dependency edge in the data plane: the
// channel Up→Down is held shut because Down delivered a PAUSE to Up. Queue
// scopes the edge to one physical queue for per-flow-queue schemes (BFC
// QPAUSE); -1 for class-scoped PFC PAUSE.
type EdgeKey struct {
	Up, Down topology.NodeID
	Prio     int
	Queue    int
}

// trigger is the initial-trigger tag a dependency edge carries: which node
// minted the pause chain this edge belongs to, and a global mint sequence
// number (older = smaller) that identifies the chain across inheritance.
type trigger struct {
	creator topology.NodeID
	seq     int64
}

// dcfitEdge is the live state of one pause edge.
type dcfitEdge struct {
	tag   trigger
	since units.Time
}

// DCFIT is an in-data-plane deadlock detector in the style of DCFIT: instead
// of polling global buffer snapshots, it observes PAUSE/RESUME frames at
// their delivery instant and maintains the pause-dependency graph those
// frames create. Each new edge inherits the initial-trigger tag of the
// pause currently blocking its own downstream node (or mints a fresh one
// when that node is unblocked); when the chain of pauses downstream of a
// trigger loops back and pauses the trigger's own upstream — the initial
// trigger re-appearing in its own downstream set — and the closed cycle
// persists for a full window, DCFIT reports a circular wait.
//
// Scope and honesty notes, which the fault matrix deliberately surfaces:
//   - DCFIT only sees pause-based schemes (PFC PAUSE/RESUME, BFC
//     QPAUSE/QRESUME). Credit (CBFC) and rate (GFC) feedback creates no
//     pause edges, so DCFIT stays silent there by design.
//   - A lost RESUME leaves a wedged chain, not a cycle; DCFIT cannot see
//     it (the global Detector's WedgedChannel verdict can). Conversely a
//     lost PAUSE simply never creates the edge — consistent with the
//     sender's view, since the observer taps delivery, not emission.
//   - Pause-quanta expiry clears a pause sender-side without a RESUME
//     frame; with PauseQuanta > 0 edges can go stale. The presets all use
//     the pause-until-RESUME model (quanta 0), where every edge is closed
//     by an observable RESUME.
type DCFIT struct {
	net FeedbackNetwork
	// Window is how long a closed pause cycle must persist before it is
	// reported; default 5 ms, matching the global Detector.
	Window units.Time
	// Interval is the confirmation polling period; default 1 ms.
	Interval units.Time

	edges map[EdgeKey]*dcfitEdge
	seq   int64

	// Candidate cycle awaiting persistence: the lowest-keyed edge on the
	// cycle plus the cycle's initial-trigger mint sequence. A resumed edge
	// or a different cycle resets the clock.
	candKey EdgeKey
	candSeq int64
	candAt  units.Time
	hasCand bool

	report    *Report
	installed bool
}

// NewDCFIT returns a DCFIT detector over n with default window and interval.
// Call Install to start observing.
func NewDCFIT(n FeedbackNetwork) *DCFIT {
	return &DCFIT{
		net:      n,
		Window:   5 * units.Millisecond,
		Interval: units.Millisecond,
		edges:    make(map[EdgeKey]*dcfitEdge),
	}
}

// Install taps the network's feedback plane and schedules periodic cycle
// confirmation until a deadlock is found.
func (d *DCFIT) Install() {
	if d.installed {
		return
	}
	d.installed = true
	d.net.Observe(&netsim.Trace{OnFeedback: d.onDeliver})
	var tick func()
	tick = func() {
		if d.Check() != nil {
			return // stop polling once detected
		}
		d.net.Engine().After(d.Interval, tick)
	}
	d.net.Engine().After(d.Interval, tick)
}

// Deadlocked reports the detection result so far; nil when none.
func (d *DCFIT) Deadlocked() *Report { return d.report }

// PollInterval implements Probe.
func (d *DCFIT) PollInterval() units.Time { return d.Interval }

// Edges reports the number of live pause-dependency edges (diagnostic).
func (d *DCFIT) Edges() int { return len(d.edges) }

// onDeliver is the feedback observer: it runs at the instant a message
// reaches its sender, after fault loss/delay.
func (d *DCFIT) onDeliver(t units.Time, from, to topology.NodeID, prio int, m flowcontrol.Message) {
	queue := -1
	switch m.Kind {
	case flowcontrol.KindQueuePause, flowcontrol.KindQueueResume:
		queue = m.QueueID
	case flowcontrol.KindPause, flowcontrol.KindResume:
	default:
		return // credit/stage/queue-length feedback creates no pause edges
	}
	key := EdgeKey{Up: to, Down: from, Prio: prio, Queue: queue}
	switch m.Kind {
	case flowcontrol.KindPause, flowcontrol.KindQueuePause:
		if _, ok := d.edges[key]; ok {
			return // refresh of a held pause: dependency age unchanged
		}
		tag := trigger{creator: from, seq: d.seq}
		if p := d.parentOf(from, prio); p != nil {
			// The pausing node is itself paused: this pause continues
			// that chain, carrying its initial trigger downstream.
			tag = p.tag
		} else {
			d.seq++
		}
		d.edges[key] = &dcfitEdge{tag: tag, since: t}
	case flowcontrol.KindResume, flowcontrol.KindQueueResume:
		delete(d.edges, key)
		if d.hasCand && d.candKey == key {
			d.hasCand = false
		}
	}
}

// parentOf returns the pause edge currently blocking node at prio — the
// oldest edge whose Up side is node (ties broken by key order, so the choice
// is deterministic regardless of map iteration) — or nil.
func (d *DCFIT) parentOf(node topology.NodeID, prio int) *dcfitEdge {
	var bestKey EdgeKey
	var best *dcfitEdge
	for k, e := range d.edges {
		if k.Up != node || k.Prio != prio {
			continue
		}
		if best == nil || e.since < best.since ||
			(e.since == best.since && edgeLess(k, bestKey)) {
			best, bestKey = e, k
		}
	}
	return best
}

// parentKeyOf is parentOf returning the key; ok is false when unblocked.
func (d *DCFIT) parentKeyOf(node topology.NodeID, prio int) (EdgeKey, bool) {
	var bestKey EdgeKey
	var best *dcfitEdge
	for k, e := range d.edges {
		if k.Up != node || k.Prio != prio {
			continue
		}
		if best == nil || e.since < best.since ||
			(e.since == best.since && edgeLess(k, bestKey)) {
			best, bestKey = e, k
		}
	}
	return bestKey, best != nil
}

// Check confirms whether a closed pause cycle has persisted for the window,
// updating the detector's state. Subsequent calls after detection keep
// returning the same report.
func (d *DCFIT) Check() *Report {
	if d.report != nil {
		return d.report
	}
	now := d.net.Now()
	cycle := d.findCycle()
	if cycle == nil {
		d.hasCand = false
		return nil
	}
	// The cycle's initial trigger: the earliest-minted tag among its
	// edges. Together with the anchor edge it is the cycle's identity
	// across polls — a re-formed cycle restarts the persistence clock.
	minSeq := d.edges[cycle[0]].tag.seq
	for _, k := range cycle[1:] {
		if s := d.edges[k].tag.seq; s < minSeq {
			minSeq = s
		}
	}
	if !d.hasCand || d.candKey != cycle[0] || d.candSeq != minSeq {
		d.hasCand = true
		d.candKey, d.candSeq, d.candAt = cycle[0], minSeq, now
		return nil
	}
	if now-d.candAt < d.Window {
		return nil
	}
	keys := make([]ChannelKey, len(cycle))
	for i, k := range cycle {
		keys[i] = ChannelKey{From: k.Up, Node: k.Down, Prio: k.Prio}
	}
	d.report = &Report{
		At:       now,
		Kind:     CircularWait,
		Cycle:    keys,
		StallFor: now - d.candAt,
	}
	return d.report
}

// findCycle walks the pause-dependency parent function — each edge U→D
// depends on the edge currently blocking D — from every edge in key order
// and returns the first closed cycle found, anchored at its lowest-keyed
// member, or nil.
func (d *DCFIT) findCycle() []EdgeKey {
	if len(d.edges) == 0 {
		return nil
	}
	keys := make([]EdgeKey, 0, len(d.edges))
	for k := range d.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return edgeLess(keys[i], keys[j]) })
	for _, start := range keys {
		path := []EdgeKey{start}
		cur := start
		for range keys {
			next, ok := d.parentKeyOf(cur.Down, cur.Prio)
			if !ok {
				path = nil
				break
			}
			if next == start {
				return path // closed: the walk returned to its origin
			}
			path = append(path, next)
			cur = next
		}
		// The walk either dead-ended or entered a cycle not containing
		// start; that cycle is found when iteration reaches its members.
	}
	return nil
}

func edgeLess(a, b EdgeKey) bool {
	if a.Up != b.Up {
		return a.Up < b.Up
	}
	if a.Down != b.Down {
		return a.Down < b.Down
	}
	if a.Prio != b.Prio {
		return a.Prio < b.Prio
	}
	return a.Queue < b.Queue
}
