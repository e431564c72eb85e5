package netsim

import (
	"fmt"
	"math/rand"

	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/eventsim"
	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// arrivalEntry maps a pending link-arrival event to the port it will deliver
// to, indexed by the event's Slot. Entries go stale when their event fires or
// is absorbed; staleness is detected by comparing the stored handle (which
// carries the generation) against the engine's head, never by clearing.
type arrivalEntry struct {
	ev eventsim.Event
	p  *port
}

// Network is a runnable simulation instance. Each Network owns its own
// event engine and shares no mutable state with any other, so independent
// instances may run concurrently on different goroutines (the
// internal/runner worker pool relies on exactly this).
type Network struct {
	cfg    Config
	topo   *topology.Topology
	eng    *eventsim.Engine
	nodes  []*node
	flows  []*Flow
	drops  int64
	jitter *rand.Rand // nil when FeedbackJitter is zero
	// metrics is cfg.Metrics, cached so the hot path pays one nil check
	// when observability is disabled.
	metrics *metrics.Registry
	// faults is cfg.Faults, cached for the same single-nil-check reason.
	faults *faults.Injector

	feedbackBytes units.Size // total feedback wire bytes, all channels

	// Struct-of-arrays hot-path state. Per-channel arrays are indexed by
	// the dense channel index cb+prio (port.cb), which by construction
	// equals the metrics registry's ChannelIndex for the same (node,
	// port, priority) — one index addresses a channel everywhere. Dense
	// arrays keep each iteration's working set contiguous and make the
	// per-port construction cost a handful of bulk allocations instead of
	// ~10 small slices per port.
	ports       []port            // arena; node.ports points into it
	occupancy   []units.Size      // ingress buffer occupancy
	progress    []ingressProgress // ingress forwarding-progress records
	queuedBytes []units.Size      // egress backlog
	txBytes     []units.Size      // cumulative egress bytes serialised
	senders     []flowcontrol.Sender
	receivers   []flowcontrol.Receiver
	rrVoq       []int32    // round-robin cursor over VOQs / input ports
	inq         []pktQueue // ingress FIFOs (SchedInputQueued/SchedBlocking)
	// arb is the SchedInputQueued arbitration index: per (switch egress,
	// priority) a bitset of the input ports whose ingress-FIFO head is
	// bound for that egress, kept by pushIngress/popIngress. Egress p's
	// set for prio is the owner's arbWords words at p.arb+prio*arbWords.
	// nil under every other discipline.
	arb []uint64
	// arbCheck, when set (by tests only), is told the input every
	// nextFromInputs call picked from the bitset, to cross-check it.
	arbCheck func(p *port, prio, in int)
	// voqs and fedBytes have port-dependent strides; see port.voqBase and
	// port.fedBase.
	voqs     []voq
	fedBytes []units.Size

	// Per-flow queue state (Config.FlowQueues > 0, BFC). All nil/zero
	// otherwise, so the disabled cost is one int compare on the hot path.
	// fq is cfg.FlowQueues; qAssign maps flow ID → current assignment per
	// channel; slotFlows counts assigned flows per physical queue with the
	// same (voqBase + prio*slots + slot) indexing as voqs; queueSenders /
	// queueReceivers are the wired controllers' per-queue interfaces.
	fq             int
	qAssign        []map[int]flowAssign
	slotFlows      []int32
	queueSenders   []flowcontrol.QueueSender
	queueReceivers []flowcontrol.QueueReceiver

	// obs lists the Observe subscribers.
	obs observers
	// Per-(node, priority) SchedBlocking forwarding state, indexed
	// node.nb+prio.
	fwdCursor  []int32
	fwdBlocked []*port // egress whose full TX ring stalls forwarding
	forwarding []bool  // re-entrancy guard

	// arrEv maps pending arrival events to their ports (by event Slot)
	// so a delivery callback can absorb same-timestamp deliveries for
	// the same node straight off the head of the event queue.
	arrEv []arrivalEntry

	// Packet free list, per network: deterministic (unlike a sync.Pool,
	// which drains on GC) and allocated in arena chunks so a run costs a
	// few chunk allocations rather than one per live packet.
	freePkts []*Packet
	pktArena []Packet
}

// New builds a simulation of topo under cfg. Every live channel direction
// gets an independent flow controller per priority.
func New(topo *topology.Topology, cfg Config) (*Network, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, topo: topo, eng: eventsim.New()}
	if cfg.FeedbackJitter > 0 {
		n.jitter = rand.New(rand.NewSource(cfg.JitterSeed))
	}
	k := cfg.Priorities
	nn := topo.NumNodes()

	// Pass 1: size the dense arrays. The channel index layout must match
	// metrics.Registry.Bind exactly: channels in (node, port, priority)
	// order.
	totalPorts, totalVoqs, totalFed, totalArb := 0, 0, 0, 0
	for id := 0; id < nn; id++ {
		ats := topo.Ports(topology.NodeID(id))
		totalPorts += len(ats)
		if inputArb(cfg, topo.Node(topology.NodeID(id)).Kind) {
			totalArb += len(ats) * k * arbWords(len(ats))
		}
		slots := 1
		if cfg.Scheduling == SchedVOQ {
			slots = len(ats)
		}
		if cfg.FlowQueues > 0 {
			slots = cfg.FlowQueues
		}
		totalVoqs += len(ats) * k * slots
		totalFed += len(ats) * k * len(ats)
	}
	chans := totalPorts * k
	n.ports = make([]port, totalPorts)
	n.occupancy = make([]units.Size, chans)
	n.progress = make([]ingressProgress, chans)
	n.queuedBytes = make([]units.Size, chans)
	n.txBytes = make([]units.Size, chans)
	n.senders = make([]flowcontrol.Sender, chans)
	n.receivers = make([]flowcontrol.Receiver, chans)
	n.rrVoq = make([]int32, chans)
	n.inq = make([]pktQueue, chans)
	n.voqs = make([]voq, totalVoqs)
	n.fedBytes = make([]units.Size, totalFed)
	if totalArb > 0 {
		n.arb = make([]uint64, totalArb)
	}
	n.fwdCursor = make([]int32, nn*k)
	n.fwdBlocked = make([]*port, nn*k)
	n.forwarding = make([]bool, nn*k)
	if cfg.FlowQueues > 0 {
		n.fq = cfg.FlowQueues
		n.qAssign = make([]map[int]flowAssign, chans)
		n.slotFlows = make([]int32, totalVoqs)
		n.queueSenders = make([]flowcontrol.QueueSender, chans)
		n.queueReceivers = make([]flowcontrol.QueueReceiver, chans)
	}

	// Pass 2: build nodes and ports, assigning each port its bases.
	n.nodes = make([]*node, nn)
	pb, cb, vb, fb, ab := 0, 0, 0, 0, 0
	for id := range n.nodes {
		tn := topo.Node(topology.NodeID(id))
		nd := &node{id: tn.ID, kind: tn.Kind, nb: id * k, refillAt: units.Never}
		ats := topo.Ports(tn.ID)
		if inputArb(cfg, tn.Kind) {
			nd.arbWords = arbWords(len(ats))
		}
		nd.ports = make([]*port, len(ats))
		slots := 1
		if cfg.Scheduling == SchedVOQ {
			slots = len(ats)
		}
		if cfg.FlowQueues > 0 {
			slots = cfg.FlowQueues
		}
		for i, at := range ats {
			p := &n.ports[pb]
			pb++
			*p = port{
				owner: nd, local: i, link: at.Link, peer: at.Peer,
				peerPort: at.Link.PortOn(at.Peer),
				capacity: at.Link.Capacity,
				kickAt:   units.Never,
				sched:    cfg.Scheduling,
				cb:       cb, voqBase: vb, slots: slots, fedBase: fb,
				arb:    ab,
				buffer: cfg.BufferSize,
			}
			cb += k
			vb += k * slots
			fb += k * len(ats)
			ab += k * nd.arbWords
			if tn.Kind == topology.Host {
				p.buffer = hostBuffer
			}
			if k > 1 {
				p.prioScratch = make([]int, 0, k)
			}
			nd.ports[i] = p
		}
		n.nodes[id] = nd
	}
	// Bind the per-node and per-port event callbacks once: the hot path
	// (kick retries, transmission completions, link arrivals, host
	// refills) then schedules these stored funcs instead of allocating a
	// closure per event.
	for _, nd := range n.nodes {
		nd := nd
		nd.refillFn = func() {
			nd.refillAt = units.Never
			n.refill(nd)
		}
		for _, p := range nd.ports {
			p := p
			p.kickFn = func() {
				p.kickAt = units.Never
				n.kick(p)
			}
			p.txDoneFn = func() { n.completeTx(p) }
			p.arriveFn = func() { n.arriveBatch(p) }
		}
	}
	// Wire controllers: for channel u→v, the Sender lives on u's port
	// and the Receiver on v's port.
	for _, nd := range n.nodes {
		for _, p := range nd.ports {
			if p.link.Failed {
				continue
			}
			up := n.nodes[p.peer].ports[p.peerPort] // upstream egress port
			for prio := 0; prio < k; prio++ {
				params := flowcontrol.Params{
					Capacity: p.capacity,
					Buffer:   p.buffer,
					MTU:      cfg.MTU,
					Tau:      n.tauFor(p),
					Priority: prio,
				}
				env := &fcEnv{n: n, down: p, up: up, prio: prio}
				ctl, err := cfg.FlowControl(params, env)
				if err != nil {
					return nil, fmt.Errorf("netsim: channel %s->%s prio %d: %w",
						topo.Node(p.peer).Name, topo.Node(nd.id).Name, prio, err)
				}
				n.receivers[p.cb+prio] = ctl.Receiver
				n.senders[up.cb+prio] = ctl.Sender
				if n.fq > 0 {
					qs, ok := ctl.Sender.(flowcontrol.QueueSender)
					if !ok {
						return nil, fmt.Errorf("netsim: FlowQueues=%d but the %s->%s prio %d sender is not queue-aware",
							n.fq, topo.Node(p.peer).Name, topo.Node(nd.id).Name, prio)
					}
					if qs.Queues() != n.fq {
						return nil, fmt.Errorf("netsim: FlowQueues=%d but the wired scheme has %d queues",
							n.fq, qs.Queues())
					}
					qr, ok := ctl.Receiver.(flowcontrol.QueueReceiver)
					if !ok {
						return nil, fmt.Errorf("netsim: FlowQueues=%d but the %s->%s prio %d receiver is not queue-aware",
							n.fq, topo.Node(p.peer).Name, topo.Node(nd.id).Name, prio)
					}
					n.queueSenders[up.cb+prio] = qs
					n.queueReceivers[p.cb+prio] = qr
				}
			}
		}
	}
	// Bind the metrics registry before receivers start: initial credit
	// adverts already flow through Emit and must be counted. Ceilings and
	// stage tables come from the wired senders via the optional
	// flowcontrol.Bounded / flowcontrol.Staged interfaces.
	if reg := cfg.Metrics; reg != nil {
		n.metrics = reg
		infos := make([]metrics.NodeInfo, len(n.nodes))
		for id, nd := range n.nodes {
			info := metrics.NodeInfo{
				ID: nd.id, Name: topo.Node(nd.id).Name,
				Host:  nd.kind == topology.Host,
				Ports: make([]metrics.PortInfo, len(nd.ports)),
			}
			for i, p := range nd.ports {
				info.Ports[i] = metrics.PortInfo{
					Peer: p.peer, PeerName: topo.Node(p.peer).Name,
					Buffer: p.buffer,
				}
			}
			infos[id] = info
		}
		reg.Bind(infos, k)
		for _, nd := range n.nodes {
			for _, p := range nd.ports {
				if got := reg.ChannelIndex(nd.id, p.local, 0); got != p.cb {
					panic(fmt.Sprintf("netsim: channel index desync: node %d port %d: netsim %d, metrics %d",
						nd.id, p.local, p.cb, got))
				}
				if p.link.Failed {
					continue
				}
				up := n.nodes[p.peer].ports[p.peerPort]
				for prio := 0; prio < k; prio++ {
					s := n.senders[up.cb+prio]
					if s == nil {
						continue
					}
					if b, ok := s.(flowcontrol.Bounded); ok {
						// The final GFC stage keeps a positive rate, so
						// under a stopped drain the queue legitimately
						// overshoots B_m by up to the feedback latency's
						// worth of minimum-rate trickle; four MTUs is the
						// headroom the factories budget for exactly that.
						ceil := b.Ceiling() + 4*cfg.MTU
						if ceil > p.buffer {
							ceil = p.buffer
						}
						reg.SetCeiling(p.cb+prio, ceil)
					}
					if st, ok := s.(flowcontrol.Staged); ok {
						reg.CheckStageTable(p.cb+prio, st.StageTable())
					}
				}
			}
		}
	}
	// Bind the fault injector and schedule its timeline. Binding claims
	// the injector for this network (a second bind panics), and the
	// scheduled closures are the only per-event allocations — fault
	// timelines are a handful of events, never hot-path.
	if inj := cfg.Faults; inj != nil {
		inj.Bind()
		n.faults = inj
		for _, ev := range inj.Timeline() {
			ev := ev
			n.eng.Schedule(ev.At, func() { n.applyFault(ev) })
		}
	}
	// Start receivers (periodic feedback, initial credit adverts).
	for _, nd := range n.nodes {
		for _, p := range nd.ports {
			for prio := 0; prio < k; prio++ {
				if r := n.receivers[p.cb+prio]; r != nil {
					r.Start()
				}
			}
		}
	}
	return n, nil
}

// noteArrival records ev as the pending arrival delivering to p, keyed by
// the event's slot, so arriveBatch can recognise it at the queue head.
func (n *Network) noteArrival(ev eventsim.Event, p *port) {
	s := ev.Slot()
	for s >= len(n.arrEv) {
		n.arrEv = append(n.arrEv, make([]arrivalEntry, s+1-len(n.arrEv))...)
	}
	n.arrEv[s] = arrivalEntry{ev: ev, p: p}
}

// arriveBatch is the pre-bound arrival callback for port p: it admits p's
// oldest in-flight packet, then keeps absorbing further arrival events for
// the *same node* that are due at this exact instant and sit at the head of
// the event queue. Each absorbed event is provably the very next event the
// engine would fire (same head, same timestamp — the engine's Absorb
// enforces both), so draining the burst inline executes the identical
// admission sequence the engine would have produced with N heap pops; only
// the heap traffic is saved. Deliveries to other nodes, or any interleaved
// non-arrival event, stop the batch by failing the head comparison.
func (n *Network) arriveBatch(p *port) {
	n.arrive(p.owner, p.local, p.popInFlight())
	nd := p.owner
	for {
		top, ok := n.eng.Peek()
		if !ok || top.At() != n.eng.Now() {
			return
		}
		s := top.Slot()
		if s >= len(n.arrEv) {
			return
		}
		ent := n.arrEv[s]
		if ent.ev != top || ent.p.owner != nd {
			return
		}
		if !n.eng.Absorb(top) {
			return
		}
		n.arrive(nd, ent.p.local, ent.p.popInFlight())
	}
}

// tauFor bounds the feedback latency of channel into p per equation (6).
func (n *Network) tauFor(p *port) units.Time {
	if n.cfg.Tau > 0 {
		return n.cfg.Tau
	}
	return core.Tau(p.capacity, n.cfg.MTU, p.link.Delay, n.cfg.ProcDelay)
}

// fcEnv is the flowcontrol.Env for the receiver at downstream port `down`;
// Emit carries messages back to the paired sender at upstream port `up`.
type fcEnv struct {
	n    *Network
	down *port // receiver side (ingress)
	up   *port // sender side (upstream egress)
	prio int
}

func (e *fcEnv) Now() units.Time               { return e.n.eng.Now() }
func (e *fcEnv) After(d units.Time, fn func()) { e.n.eng.After(d, fn) }

// Emit schedules delivery of one feedback message. The closure here is
// deliberate: messages carry a payload and, under jitter, non-monotonic
// delays, so a per-port FIFO of pre-bound callbacks (the packet-path trick)
// would reorder them.
func (e *fcEnv) Emit(m flowcontrol.Message) {
	n := e.n
	wire := m.Wire()
	n.feedbackBytes += wire
	if reg := n.metrics; reg != nil {
		reg.OnFeedback(e.down.cb+e.prio, n.eng.Now(), feedbackClass(m.Kind), m.Stage, wire)
	}
	delay := units.TransmissionTime(wire, e.down.capacity) +
		e.down.link.Delay + n.cfg.ProcDelay
	if n.jitter != nil {
		delay += units.Time(n.jitter.Int63n(int64(n.cfg.FeedbackJitter)))
	}
	now := n.eng.Now()
	if e.down.adminDown {
		// The link is administratively down: the frame is emitted into a
		// dead channel and lost. (The wire accounting above stands —
		// the receiver did spend the emission.)
		if reg := n.metrics; reg != nil {
			reg.OnFault(metrics.FaultEvent{
				Kind: metrics.FaultFeedbackDrop, At: now,
				Channel: e.down.cb + e.prio, Link: e.down.link.ID,
				Node: e.down.owner.id,
			})
		}
		return
	}
	if inj := n.faults; inj != nil {
		drop, extra := inj.FeedbackVerdict(
			e.down.link.ID, e.down.owner.id, e.prio, m.Kind, now)
		if drop {
			if reg := n.metrics; reg != nil {
				reg.OnFault(metrics.FaultEvent{
					Kind: metrics.FaultFeedbackDrop, At: now,
					Channel: e.down.cb + e.prio, Link: e.down.link.ID,
					Node: e.down.owner.id,
				})
			}
			return
		}
		if extra > 0 {
			delay += extra
			if reg := n.metrics; reg != nil {
				reg.OnFault(metrics.FaultEvent{
					Kind: metrics.FaultFeedbackDelay, At: now,
					Channel: e.down.cb + e.prio, Link: e.down.link.ID,
					Node: e.down.owner.id,
				})
			}
		}
	}
	sender := n.senders[e.up.cb+e.prio]
	up := e.up
	from, prio := e.down.owner.id, e.prio
	n.eng.After(delay, func() {
		sender.OnFeedback(m)
		n.obs.feedback(n.eng.Now(), from, up.owner.id, prio, m)
		n.kick(up)
		// A rate or credit change may also unblock the host refill
		// path indirectly; kick handles the egress side, and refill
		// is woken by its own timer.
	})
}

// feedbackClass buckets a flow-control message kind for metrics accounting.
func feedbackClass(k flowcontrol.Kind) metrics.FeedbackClass {
	switch k {
	case flowcontrol.KindPause, flowcontrol.KindQueuePause:
		return metrics.FeedbackPause
	case flowcontrol.KindResume, flowcontrol.KindQueueResume:
		return metrics.FeedbackResume
	case flowcontrol.KindStage:
		return metrics.FeedbackStage
	case flowcontrol.KindCredit:
		return metrics.FeedbackCredit
	default:
		return metrics.FeedbackQueue
	}
}

// Engine exposes the event engine (for custom experiment events).
func (n *Network) Engine() *eventsim.Engine { return n.eng }

// Metrics returns the bound metrics registry, or nil when disabled.
func (n *Network) Metrics() *metrics.Registry { return n.metrics }

// Topology returns the simulated topology.
func (n *Network) Topology() *topology.Topology { return n.topo }

// Now reports the current simulation time.
func (n *Network) Now() units.Time { return n.eng.Now() }

// Run advances the simulation to the given time.
func (n *Network) Run(until units.Time) { n.eng.Run(until) }

// Drops reports the number of packets dropped; in a correctly configured
// lossless fabric this must be zero.
func (n *Network) Drops() int64 { return n.drops }

// FeedbackBytes reports total flow-control message bytes emitted.
func (n *Network) FeedbackBytes() units.Size { return n.feedbackBytes }

// Flows returns all flows ever added.
func (n *Network) Flows() []*Flow { return n.flows }

// AddFlow installs f and starts it at time at. The flow's Path must start at
// its source host and end with the hop delivering to Dst.
func (n *Network) AddFlow(f *Flow, at units.Time) error {
	if len(f.Path) == 0 {
		return fmt.Errorf("netsim: flow %d has no path", f.ID)
	}
	first := f.Path[0]
	if first.Node != f.Src {
		return fmt.Errorf("netsim: flow %d path starts at node %d, not src %d",
			f.ID, first.Node, f.Src)
	}
	last := f.Path[len(f.Path)-1]
	if last.Link.Other(last.Node) != f.Dst {
		return fmt.Errorf("netsim: flow %d path ends before dst %d", f.ID, f.Dst)
	}
	if n.nodes[f.Src].kind != topology.Host || n.nodes[f.Dst].kind != topology.Host {
		return fmt.Errorf("netsim: flow %d endpoints must be hosts", f.ID)
	}
	if f.Priority < 0 || f.Priority >= n.cfg.Priorities {
		return fmt.Errorf("netsim: flow %d priority %d outside [0,%d)",
			f.ID, f.Priority, n.cfg.Priorities)
	}
	n.flows = append(n.flows, f)
	if inj := n.faults; inj != nil {
		at = inj.FlowOnset(f.ID, at)
	}
	src := n.nodes[f.Src]
	n.eng.Schedule(at, func() {
		f.Started = n.eng.Now()
		f.active = true
		src.flows = append(src.flows, f)
		n.refill(src)
	})
	return nil
}

// StopFlow makes flow f stop offering new data at time at: the source
// withdraws, already-released packets still drain. For finite flows the Size
// is truncated to what was released so Done/FCT reflect the early end. This
// models an application finishing or aborting — the event that naturally
// dissolves a cyclic buffer dependency (§6.2.3).
func (n *Network) StopFlow(f *Flow, at units.Time) {
	n.eng.Schedule(at, func() {
		f.active = false
		if f.Size == 0 || f.Size > f.released {
			f.Size = f.released
		}
		if f.Done() && f.Finished == 0 {
			f.Finished = n.eng.Now()
		}
	})
}

// IngressQueue reports the ingress occupancy of the given node/port/priority
// — what the flow-control Receiver observes.
func (n *Network) IngressQueue(node topology.NodeID, portIdx, prio int) units.Size {
	return n.occupancy[n.nodes[node].ports[portIdx].cb+prio]
}

// SenderRate reports the currently permitted rate of the egress flow
// controller at node/port/priority.
func (n *Network) SenderRate(node topology.NodeID, portIdx, prio int) units.Rate {
	s := n.senders[n.nodes[node].ports[portIdx].cb+prio]
	if s == nil {
		return 0
	}
	return s.Rate()
}

// PortFor returns the local port index on `node` of its link toward peer,
// or -1.
func (n *Network) PortFor(node, peer topology.NodeID) int {
	for _, p := range n.nodes[node].ports {
		if p.peer == peer && !p.link.Failed {
			return p.local
		}
	}
	return -1
}
