package netsim

import (
	"fmt"

	"github.com/gfcsim/gfc/internal/topology"
)

// This file is the wire half of the simulator: transmission completion at
// the sending port and admission at the receiving node. Both run on
// pre-bound callbacks — the in-flight transmission lives in the port's
// txPkt/txPrio/txDur slots (a port serialises transmissions via busy), and
// packets propagating on a channel sit in the receiving port's FIFO, popped
// in order because a link's arrivals cannot overtake one another. Arrival
// callbacks batch: see Network.arriveBatch.

// completeTx finishes the port's in-flight transmission: notifies flow
// control, releases ingress accounting at the transmitting switch,
// propagates the packet and restarts the transmitter.
func (n *Network) completeTx(p *port) {
	pkt, prio, dur := p.txPkt, p.txPrio, p.txDur
	p.txPkt = nil
	now := n.eng.Now()
	p.busy = false
	n.senders[p.cb+prio].OnSent(pkt.Size, dur)
	n.txBytes[p.cb+prio] += pkt.Size
	n.obs.transmit(now, p.owner.id, p.local, pkt)

	switch p.owner.kind {
	case topology.Switch:
		// The packet leaves this switch: release the ingress buffer
		// of the port it arrived on.
		ing := p.owner.ports[pkt.arrivalPort]
		ch := ing.cb + prio
		n.occupancy[ch] -= pkt.Size
		n.progress[ch].departed += pkt.Size
		n.progress[ch].lastDepart = now
		n.obs.queue(now, p.owner.id, ing.local, prio, n.occupancy[ch])
		if reg := n.metrics; reg != nil {
			reg.OnRelease(ch, now, pkt.Size, n.occupancy[ch])
		}
		if r := n.receivers[ch]; r != nil {
			r.OnDeparture(pkt.Size, n.occupancy[ch])
		}
		if n.fq > 0 {
			if qr := n.queueReceivers[ch]; qr != nil {
				qr.OnQueueDeparture(int(pkt.arrivalQueue), pkt.Size, n.occupancy[ch])
			}
		}
	case topology.Host:
		pkt.Flow.sent += pkt.Size
		pkt.sentAt = now
		n.refill(p.owner)
	}

	rp := n.nodes[p.peer].ports[p.peerPort]
	if reg := n.metrics; reg != nil {
		reg.OnTx(rp.cb+prio, pkt.Size)
	}
	rp.pushInFlight(pkt)
	n.noteArrival(n.eng.After(p.link.Delay, rp.arriveFn), rp)
	n.kick(p)
}

// arrive admits a fully received packet at nd via local port idx.
func (n *Network) arrive(nd *node, idx int, pkt *Packet) {
	now := n.eng.Now()
	n.obs.arrival(now, nd.id, pkt)

	if nd.kind == topology.Host {
		f := pkt.Flow
		f.Delivered += pkt.Size
		if reg := n.metrics; reg != nil {
			// Hosts consume on arrival; account the delivery with a
			// permanently empty ingress.
			reg.OnAdmit(nd.ports[idx].cb+pkt.Priority, now, pkt.Size, 0)
		}
		n.obs.deliver(now, f, pkt)
		if f.OnPacket != nil {
			f.OnPacket(f, pkt)
		}
		if f.Done() && f.Finished == 0 {
			f.Finished = now
			if f.OnDone != nil {
				f.OnDone(f)
			}
		}
		n.recyclePacket(pkt)
		return
	}

	if n.cfg.Escalation != nil {
		np := n.cfg.Escalation(pkt, nd.id)
		if np < pkt.Priority || np >= n.cfg.Priorities {
			panic(fmt.Sprintf("netsim: escalation moved priority %d -> %d (classes: %d) at t=%v event=%d",
				pkt.Priority, np, n.cfg.Priorities, now, n.eng.Fired()))
		}
		pkt.Priority = np
	}
	prio := pkt.Priority
	ing := nd.ports[idx]
	ch := ing.cb + prio
	occ := n.occupancy[ch] + pkt.Size
	if occ > ing.buffer {
		// A lossless fabric must never get here; record and drop.
		n.drops++
		if reg := n.metrics; reg != nil {
			reg.OnDrop(ch, now, pkt.Size, occ)
		}
		n.recyclePacket(pkt)
		return
	}
	if n.occupancy[ch] == 0 {
		n.progress[ch].occupiedSince = now
	}
	n.occupancy[ch] = occ
	n.obs.queue(now, nd.id, idx, prio, occ)
	if reg := n.metrics; reg != nil {
		reg.OnAdmit(ch, now, pkt.Size, occ)
	}
	if r := n.receivers[ch]; r != nil {
		r.OnArrival(pkt.Size, occ)
	}
	if n.fq > 0 {
		// Freeze the upstream queue assignment: this is the physical
		// queue the packet occupies at this ingress until it departs,
		// regardless of which queue the next hop assigns it.
		pkt.arrivalQueue = pkt.queue
		if qr := n.queueReceivers[ch]; qr != nil {
			qr.OnQueueArrival(int(pkt.arrivalQueue), pkt.Size, occ)
		}
	}
	pkt.arrivalPort = idx
	pkt.hop++
	hop := pkt.Path[pkt.hop]
	if hop.Node != nd.id {
		panic(fmt.Sprintf("netsim: packet path desync: at node %d, path says %d (t=%v event=%d)",
			nd.id, hop.Node, now, n.eng.Fired()))
	}
	out := nd.ports[hop.Port]
	switch n.cfg.Scheduling {
	case SchedInputQueued:
		// Input-queued switching: the packet waits in the ingress
		// FIFO; congestion shows as ingress occupancy.
		if n.cfg.ECNThreshold > 0 && occ >= n.cfg.ECNThreshold {
			pkt.ECN = true
		}
		if n.pushIngress(ing, prio, pkt) {
			n.kick(out)
		}
		return
	case SchedBlocking:
		// The packet joins the ingress FIFO; the forwarding core
		// moves it to a TX ring when its turn comes.
		if n.cfg.ECNThreshold > 0 && occ >= n.cfg.ECNThreshold {
			pkt.ECN = true
		}
		n.pushIngress(ing, prio, pkt)
		n.forward(nd, prio)
		return
	}
	if n.cfg.ECNThreshold > 0 && n.queuedBytes[out.cb+prio] >= n.cfg.ECNThreshold {
		pkt.ECN = true
	}
	n.enqueue(out, pkt)
	n.kick(out)
}
