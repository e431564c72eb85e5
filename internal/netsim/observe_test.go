package netsim

import (
	"testing"

	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// appliedSender counts the feedback messages its sender actually applied.
type appliedSender struct {
	flowcontrol.Sender
	n *int
}

func (s appliedSender) OnFeedback(m flowcontrol.Message) {
	*s.n++
	s.Sender.OnFeedback(m)
}

// hookRec is one hook firing as a subscriber saw it.
type hookRec struct {
	sub, hook int
	at        units.Time
	a, b, c   int64
}

// TestObserveFanOut pins the subscription contract of Network.Observe:
// every subscriber receives every hook, in subscription order, and
// OnFeedback fires at delivery — once per message a sender applied and
// never for one a fault dropped on the way.
func TestObserveFanOut(t *testing.T) {
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	spec := &faults.Spec{Links: []faults.LinkFault{{
		Link:     "S1-*",
		Feedback: []faults.FeedbackFault{{DropProb: 0.3, MaxBurst: 2}},
	}}}
	plan, err := spec.Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	applied := 0
	cfg := baseConfig(nil)
	cfg.FlowControl = func(p flowcontrol.Params, env flowcontrol.Env) (flowcontrol.Controller, error) {
		c, err := gfcFactory()(p, env)
		c.Sender = appliedSender{c.Sender, &applied}
		return c, err
	}
	reg := metrics.New(metrics.Options{})
	cfg.Metrics = reg
	cfg.Faults = plan.NewInjector(7)
	n, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var log []hookRec
	subscriber := func(id int) *Trace {
		add := func(hook int, at units.Time, a, b, c int64) {
			log = append(log, hookRec{id, hook, at, a, b, c})
		}
		return &Trace{
			OnQueue: func(at units.Time, node topology.NodeID, port, prio int, q units.Size) {
				add(0, at, int64(node), int64(port*8+prio), int64(q))
			},
			OnArrival: func(at units.Time, node topology.NodeID, pkt *Packet) {
				add(1, at, int64(node), int64(pkt.Flow.ID), pkt.Seq)
			},
			OnTransmit: func(at units.Time, node topology.NodeID, port int, pkt *Packet) {
				add(2, at, int64(node), int64(port), pkt.Seq)
			},
			OnDeliver: func(at units.Time, f *Flow, pkt *Packet) {
				add(3, at, int64(f.ID), pkt.Seq, int64(pkt.Size))
			},
			OnFeedback: func(at units.Time, from, to topology.NodeID, prio int, m flowcontrol.Message) {
				add(4, at, int64(from), int64(to), int64(m.Kind)<<8|int64(m.Stage))
			},
		}
	}
	n.Observe(subscriber(0))
	n.Observe(subscriber(1))
	for i, src := range []string{"H1", "H2"} {
		if err := n.AddFlow(spfFlow(t, topo, i+1, src, "H3", 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(5 * units.Millisecond)

	if len(log)%2 != 0 {
		t.Fatalf("%d hook records, want subscriber pairs", len(log))
	}
	var perHook [5]int
	for i := 0; i < len(log); i += 2 {
		first, second := log[i], log[i+1]
		if first.sub != 0 || second.sub != 1 {
			t.Fatalf("record %d: subscribers %d then %d, want 0 then 1", i, first.sub, second.sub)
		}
		second.sub = 0
		if first != second {
			t.Fatalf("record %d: subscribers saw %+v and %+v", i, log[i], log[i+1])
		}
		perHook[first.hook]++
	}
	for hook, c := range perHook {
		if c == 0 {
			t.Errorf("hook %d never fired", hook)
		}
	}

	sum := reg.Summary()
	if sum.FaultsInjected == 0 {
		t.Fatal("fault plan dropped no feedback; the delivery check proves nothing")
	}
	if observed := perHook[4]; observed != applied {
		t.Errorf("OnFeedback fired %d times, senders applied %d messages", observed, applied)
	}
	if int64(applied) >= sum.FeedbackMsgs {
		t.Errorf("senders applied %d of %d emitted messages despite drops", applied, sum.FeedbackMsgs)
	}
}
