package netsim

import (
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// ChannelState is a snapshot of one egress queue — the unit of progress the
// deadlock detector reasons about. The channel is identified by the
// transmitting node, its local port and the priority class; traffic flows
// toward Peer.
type ChannelState struct {
	Node topology.NodeID
	Port int
	Prio int
	Peer topology.NodeID
	// PeerPort is the ingress port index this channel feeds on Peer.
	PeerPort int

	// QueuedBytes is the egress backlog awaiting transmission.
	QueuedBytes units.Size
	// TxBytes is the cumulative data serialised on this channel; a
	// channel whose TxBytes has not advanced while QueuedBytes > 0 is
	// stalled.
	TxBytes units.Size
	// FedBy lists the local arrival-port indices whose VOQs hold bytes
	// on this egress — i.e. which ingress buffers this channel's backlog
	// is charged to. The deadlock detector derives wait-for edges from
	// it.
	FedBy []int
	// Rate is the flow-control permitted rate of this channel.
	Rate units.Rate
}

// ChannelStates snapshots every egress queue in the network. The slice is
// ordered deterministically (node, port, priority).
func (n *Network) ChannelStates() []ChannelState {
	var out []ChannelState
	for _, nd := range n.nodes {
		for _, p := range nd.ports {
			if p.link.Failed {
				continue
			}
			for prio := 0; prio < n.cfg.Priorities; prio++ {
				cs := ChannelState{
					Node: nd.id, Port: p.local, Prio: prio,
					Peer: p.peer, PeerPort: p.peerPort,
					QueuedBytes: n.queuedBytes[p.cb+prio],
					TxBytes:     n.txBytes[p.cb+prio],
				}
				cs.Rate = n.egressRate(p, prio)
				fed := n.fedBytes[p.fedBase+prio*len(nd.ports):]
				for key := 0; key < len(nd.ports); key++ {
					if fed[key] > 0 {
						cs.FedBy = append(cs.FedBy, key)
					}
				}
				out = append(out, cs)
			}
		}
	}
	return out
}

// IngressState is a snapshot of one ingress buffer — the vertex the
// deadlock detector's wait-for graph is built on, matching the CBD
// formalism: an ingress buffer (channel From→Node) waits on the downstream
// buffers its queued packets must enter next.
type IngressState struct {
	Node topology.NodeID // switch holding the buffer
	Port int             // local ingress port index
	Prio int
	From topology.NodeID // upstream end of the channel

	// Occupancy is the current buffer occupancy.
	Occupancy units.Size
	// Departed is the cumulative bytes that have left this buffer; an
	// occupied buffer whose Departed does not advance is stalled.
	Departed units.Size
	// LastDepartAt is when the buffer last released a packet (zero if
	// never), and OccupiedSince when it last went from empty to occupied.
	// max(LastDepartAt, OccupiedSince) is the start of the buffer's
	// current no-progress interval — what the deadlock detector windows
	// on, replacing per-poll departure deltas.
	LastDepartAt  units.Time
	OccupiedSince units.Time
	// WaitsOn lists the next-hop nodes this buffer's traffic must reach:
	// under input-queued switching, the head packet's next node (only
	// the head can move); under output-queued disciplines, every next
	// node with backlog from this ingress.
	WaitsOn []topology.NodeID
	// WaitRates[i] is the flow-control permitted rate of the egress
	// channel toward WaitsOn[i]. A stalled buffer whose every wait rate
	// is zero is blocked indefinitely (PFC pause, CBFC credit
	// starvation); a positive rate means the buffer still trickles —
	// GFC's hold-and-wait elimination in action.
	WaitRates []units.Rate
	// WaitsDown[i] reports that the egress toward WaitsOn[i] is
	// administratively down. Such a wait is a transient outage, not
	// hold-and-wait: the deadlock detector must not count it toward a
	// circular-wait verdict (a flapped link would otherwise read as a
	// ring deadlock).
	WaitsDown []bool
}

// IngressStates snapshots every switch ingress buffer, ordered (node, port,
// priority).
func (n *Network) IngressStates() []IngressState {
	var out []IngressState
	for _, nd := range n.nodes {
		if nd.kind != topology.Switch {
			continue
		}
		for _, p := range nd.ports {
			if p.link.Failed {
				continue
			}
			for prio := 0; prio < n.cfg.Priorities; prio++ {
				ch := p.cb + prio
				is := IngressState{
					Node: nd.id, Port: p.local, Prio: prio,
					From:          p.peer,
					Occupancy:     n.occupancy[ch],
					Departed:      n.progress[ch].departed,
					LastDepartAt:  n.progress[ch].lastDepart,
					OccupiedSince: n.progress[ch].occupiedSince,
				}
				addWait := func(eg *port) {
					is.WaitsOn = append(is.WaitsOn, eg.peer)
					is.WaitRates = append(is.WaitRates, n.egressRate(eg, prio))
					is.WaitsDown = append(is.WaitsDown, eg.adminDown)
				}
				switch n.cfg.Scheduling {
				case SchedInputQueued:
					if q := &n.inq[ch]; !q.empty() {
						head := q.front()
						addWait(nd.ports[head.Path[head.hop].Port])
					}
				case SchedBlocking:
					// Backlog already in TX rings waits on
					// those rings' peers; packets still in
					// the ingress FIFO wait on whatever the
					// forwarding core is stalled on (or on
					// their own head's egress).
					for _, eg := range nd.ports {
						if n.fedBytes[eg.fedBase+prio*len(nd.ports)+p.local] > 0 {
							addWait(eg)
						}
					}
					if !n.inq[ch].empty() {
						if b := n.fwdBlocked[nd.nb+prio]; b != nil {
							addWait(b)
						} else {
							head := n.inq[ch].front()
							addWait(nd.ports[head.Path[head.hop].Port])
						}
					}
				default:
					for _, eg := range nd.ports {
						if n.fedBytes[eg.fedBase+prio*len(nd.ports)+p.local] > 0 {
							addWait(eg)
						}
					}
				}
				out = append(out, is)
			}
		}
	}
	return out
}

// egressRate reports the effective flow-control permitted rate of egress
// channel p/prio. For channel-scoped schemes this is the sender's Rate().
// For per-flow-queue schemes (FlowQueues > 0) the channel-level Rate() stays
// at capacity while any queue is unpaused, which would hide a stall whose
// entire backlog sits in paused queues — so here the backlogged queues are
// probed: any sendable backlog means line rate, all-paused backlog means 0,
// and an idle channel falls back to Rate().
func (n *Network) egressRate(p *port, prio int) units.Rate {
	s := n.senders[p.cb+prio]
	if s == nil {
		return 0
	}
	if n.fq > 0 {
		if qs := n.queueSenders[p.cb+prio]; qs != nil {
			base := p.voqBase + prio*p.slots
			backlogged := false
			for i := 0; i < p.slots; i++ {
				if v := &n.voqs[base+i]; !v.q.empty() {
					backlogged = true
					if ok, _ := qs.TrySendQueue(i, v.q.front().Size); ok {
						return p.capacity
					}
				}
			}
			if backlogged {
				return 0
			}
		}
	}
	return s.Rate()
}

// DropIngressHead forcibly removes the head packet of the given ingress
// FIFO (SchedInputQueued only), releasing its buffer accounting as if it
// had departed. This is the primitive deadlock *recovery* schemes use —
// and the losslessness violation the paper criticises them for: the packet
// is counted as a drop. Returns false when there is no such packet.
func (n *Network) DropIngressHead(node topology.NodeID, portIdx, prio int) bool {
	if n.cfg.Scheduling != SchedInputQueued {
		return false
	}
	nd := n.nodes[node]
	if nd.kind != topology.Switch || portIdx >= len(nd.ports) {
		return false
	}
	ing := nd.ports[portIdx]
	ch := ing.cb + prio
	q := &n.inq[ch]
	if q.empty() {
		return false
	}
	pkt := n.popIngress(ing, prio)
	n.occupancy[ch] -= pkt.Size
	n.progress[ch].departed += pkt.Size
	n.drops++
	now := n.eng.Now()
	n.progress[ch].lastDepart = now
	n.obs.queue(now, node, portIdx, prio, n.occupancy[ch])
	if reg := n.metrics; reg != nil {
		reg.OnDrop(ch, now, pkt.Size, n.occupancy[ch]+pkt.Size)
		reg.OnRelease(ch, now, pkt.Size, n.occupancy[ch])
	}
	if r := n.receivers[ch]; r != nil {
		r.OnDeparture(pkt.Size, n.occupancy[ch])
	}
	n.recyclePacket(pkt)
	// The freed head may expose a packet for an idle egress.
	if !q.empty() {
		head := q.front()
		n.kick(nd.ports[head.Path[head.hop].Port])
	}
	return true
}

// TotalDelivered reports the sum of bytes delivered across all flows.
func (n *Network) TotalDelivered() units.Size {
	var total units.Size
	for _, f := range n.flows {
		total += f.Delivered
	}
	return total
}
