package netsim

import (
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// Trace carries optional observation hooks; subscribe one with
// Network.Observe. Every field may be nil. Hooks fire synchronously inside
// the simulation loop; they must not mutate the network. A *Packet passed to
// a hook is only valid for the duration of the callback: delivered and
// dropped packets return to a free list afterwards, so hooks must copy the
// fields they need rather than retain the pointer.
type Trace struct {
	// OnQueue fires after an ingress queue changes: node, local port,
	// priority, new occupancy.
	OnQueue func(t units.Time, node topology.NodeID, port, prio int, q units.Size)
	// OnArrival fires when a packet is fully received at a node (switch
	// admission or host delivery).
	OnArrival func(t units.Time, node topology.NodeID, pkt *Packet)
	// OnTransmit fires when a node finishes serialising a packet.
	OnTransmit func(t units.Time, node topology.NodeID, port int, pkt *Packet)
	// OnDeliver fires when the destination host receives a packet.
	OnDeliver func(t units.Time, f *Flow, pkt *Packet)
	// OnFeedback fires when a flow-control message emitted by the ingress
	// side at node `from` is delivered to the egress side at node `to`:
	// after the sender has applied it and before that egress is woken.
	// Loss and delay faults have taken effect by then, so a dropped
	// message never fires — the sender's view of the feedback plane,
	// which in-data-plane deadlock detection (DCFIT) needs.
	OnFeedback func(t units.Time, from, to topology.NodeID, prio int, m flowcontrol.Message)
}

// observers is a network's Trace subscriber list, in Observe order. With no
// subscriber every hook site costs one inlined length check.
type observers []*Trace

// Observe subscribes tr to the network's observation hooks. Subscribers fire
// in subscription order; subscribe before running.
func (n *Network) Observe(tr *Trace) { n.obs = append(n.obs, tr) }

func (o observers) queue(t units.Time, n topology.NodeID, port, prio int, q units.Size) {
	for _, tr := range o {
		if tr.OnQueue != nil {
			tr.OnQueue(t, n, port, prio, q)
		}
	}
}

func (o observers) arrival(t units.Time, n topology.NodeID, pkt *Packet) {
	for _, tr := range o {
		if tr.OnArrival != nil {
			tr.OnArrival(t, n, pkt)
		}
	}
}

func (o observers) transmit(t units.Time, n topology.NodeID, port int, pkt *Packet) {
	for _, tr := range o {
		if tr.OnTransmit != nil {
			tr.OnTransmit(t, n, port, pkt)
		}
	}
}

func (o observers) deliver(t units.Time, f *Flow, pkt *Packet) {
	for _, tr := range o {
		if tr.OnDeliver != nil {
			tr.OnDeliver(t, f, pkt)
		}
	}
}

func (o observers) feedback(t units.Time, from, to topology.NodeID, prio int, m flowcontrol.Message) {
	for _, tr := range o {
		if tr.OnFeedback != nil {
			tr.OnFeedback(t, from, to, prio, m)
		}
	}
}
