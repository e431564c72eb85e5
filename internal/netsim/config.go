package netsim

import (
	"fmt"

	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// hostBuffer is the ingress allocation used for host-attached receive sides:
// hosts consume packets immediately, so the buffer only needs to be
// nominally unoverflowable.
const hostBuffer = 1 << 40 * units.Byte

// HostIngressBuffer exposes the host receive-side allocation so alternate
// simulation backends can bind a metrics.Registry with netsim's exact
// channel layout and per-port buffer values.
const HostIngressBuffer = hostBuffer

// Config parameterises a simulation.
type Config struct {
	// MTU is the maximum packet size; default 1500 B (Ethernet).
	MTU units.Size
	// BufferSize is the per-ingress-port, per-priority buffer of every
	// switch. Required.
	BufferSize units.Size
	// Priorities is the number of priority classes; default 1 (the
	// paper's experiments use a single lossless class).
	Priorities int
	// ProcDelay is the feedback-message processing time t_r; default
	// 3 µs (§5.4).
	ProcDelay units.Time
	// Tau overrides the per-channel worst-case feedback latency used to
	// derive flow-control parameters. Zero derives it per link from
	// equation (6). The testbed experiments set 90 µs to reflect
	// software switching.
	Tau units.Time
	// FlowControl builds the controller for every channel direction and
	// priority. Required.
	FlowControl flowcontrol.Factory
	// ECNThreshold enables DCQCN-style marking: packets enqueued to an
	// egress queue holding at least this many bytes are ECN-marked.
	// Zero disables marking.
	ECNThreshold units.Size
	// HostQueueDepth is how many packets a host NIC keeps queued;
	// default 1 (release-gated, so flow pacers are precise).
	HostQueueDepth int
	// Scheduling is the switching discipline; default SchedBlocking,
	// matching the paper's DPDK testbed switch.
	Scheduling Scheduling
	// FlowQueues, when positive, gives every egress channel that many
	// physical queues with dynamic flow→queue assignment (BFC, Goyal et
	// al.): a flow with queued packets stays in its queue, new flows take
	// the emptiest one, and the wired flow controller must implement
	// flowcontrol.QueueSender/QueueReceiver so pause/resume is scoped per
	// queue. Setting it forces the output-queued SchedFIFO discipline —
	// BFC's design point is that the physical queues themselves replace
	// ingress FIFOs and VOQs. Zero (the default) disables per-flow
	// queueing and costs the hot path nothing.
	FlowQueues int
	// TxRing is the per-egress TX ring capacity in packets for
	// SchedBlocking; default 128 (DPDK rings are a few hundred
	// descriptors).
	TxRing int
	// FeedbackJitter adds a uniform random [0, FeedbackJitter) component
	// to every feedback message's processing delay, seeded by
	// JitterSeed. Software switches (the paper's testbed runs DPDK
	// forwarding on general-purpose cores) have exactly this kind of
	// latency variance, and it is what lets pause cascades break the
	// perfect symmetry a deterministic simulation would otherwise
	// preserve. Zero disables jitter. When enabled, Tau must budget for
	// the added worst-case latency or PFC headroom sizing will be too
	// small to stay lossless.
	FeedbackJitter units.Time
	// JitterSeed seeds the jitter source; runs are reproducible per
	// seed.
	JitterSeed int64
	// PriorityWeights assigns weighted-round-robin shares to the
	// priority classes at every egress (§7: "the output queue scheduling
	// should be enabled to assign minimal output bandwidth to each
	// priority", preventing starvation that would exhaust a low class's
	// buffers). Length must equal Priorities; nil means equal weights.
	PriorityWeights []int
	// Escalation, when non-nil, may raise a packet's priority class at
	// switch admission — the hop-by-hop priority-increase family of
	// deadlock avoidance schemes the paper's related work surveys
	// (virtual channels, dateline routing, Tagger). It is called before
	// ingress accounting; returning the current priority is a no-op,
	// and lowering or exceeding Priorities-1 panics (a scheme bug).
	Escalation func(pkt *Packet, at topology.NodeID) int
	// Metrics, when non-nil, is bound to this network at construction and
	// accumulates per-channel counters plus runtime invariant verdicts
	// (losslessness, theorem ceilings). Every hot-path call is guarded by
	// a single nil check, so a nil Metrics costs nothing. The registry
	// must be fresh (unbound) and must not be shared across networks.
	Metrics *metrics.Registry
	// Faults, when non-nil, executes a compiled fault plan against this
	// network: its timeline events (flaps, rate degradation, bursts) are
	// scheduled on the engine at construction, and the feedback path
	// consults it per message. Like Metrics it sits behind one nil check —
	// a nil Faults costs nothing — and like Metrics it must be fresh
	// (faults.Plan.NewInjector per network): the injector owns the fault
	// plan's random source, and sharing one would interleave draws across
	// networks and destroy per-seed reproducibility.
	Faults *faults.Injector
}

func (c *Config) fillDefaults() {
	if c.MTU == 0 {
		c.MTU = 1500 * units.Byte
	}
	if c.Priorities == 0 {
		c.Priorities = 1
	}
	if c.ProcDelay == 0 {
		c.ProcDelay = 3 * units.Microsecond
	}
	if c.HostQueueDepth == 0 {
		c.HostQueueDepth = 1
	}
	if c.TxRing == 0 {
		c.TxRing = 128
	}
	if c.FlowQueues > 0 {
		c.Scheduling = SchedFIFO
	}
}

func (c *Config) validate() error {
	if c.BufferSize <= 0 {
		return fmt.Errorf("netsim: BufferSize must be positive")
	}
	if c.FlowControl == nil {
		return fmt.Errorf("netsim: FlowControl factory is required")
	}
	if c.Priorities < 1 || c.Priorities > 8 {
		return fmt.Errorf("netsim: Priorities %d outside [1,8]", c.Priorities)
	}
	if c.FlowQueues < 0 || c.FlowQueues > 64 {
		return fmt.Errorf("netsim: FlowQueues %d outside [0,64]", c.FlowQueues)
	}
	if c.PriorityWeights != nil {
		if len(c.PriorityWeights) != c.Priorities {
			return fmt.Errorf("netsim: %d priority weights for %d classes",
				len(c.PriorityWeights), c.Priorities)
		}
		for i, w := range c.PriorityWeights {
			if w < 1 {
				return fmt.Errorf("netsim: priority %d weight %d must be >= 1", i, w)
			}
		}
	}
	return nil
}

// Scheduling selects how an egress port serves packets from different input
// ports.
type Scheduling uint8

// Switching disciplines.
const (
	// SchedInputQueued models the paper's testbed switch (§6.1.1): a
	// FIFO ingress ring per input port, served round-robin by the
	// forwarding path, with head-of-line blocking — a packet whose
	// egress cannot transmit blocks everything behind it on the same
	// input and priority. This is the discipline under which PFC/CBFC
	// deadlock exactly as the paper reports, and it is the default.
	SchedInputQueued Scheduling = iota
	// SchedFIFO is a simple output-queued switch: each egress transmits
	// in arrival order across all inputs. Under sustained
	// oversubscription an input's service share equals its arrival
	// share.
	SchedFIFO
	// SchedVOQ keeps a virtual output queue per input port at each
	// egress and serves them round-robin — per-input fairness with no
	// head-of-line blocking, as in ideal crossbar fabrics.
	SchedVOQ
	// SchedBlocking models the paper's DPDK software switch faithfully:
	// a forwarding core serves the ingress FIFOs round-robin and moves
	// packets into bounded per-egress TX rings. When the selected head's
	// TX ring is full the whole forwarding path stalls until that ring
	// has room — which is what lets a PFC-paused port freeze an entire
	// switch and cascade into the deadlocks of Figures 9/10, while
	// GFC's always-positive drain keeps the stalls transient.
	SchedBlocking
)

func (s Scheduling) String() string {
	switch s {
	case SchedInputQueued:
		return "input-queued"
	case SchedFIFO:
		return "fifo"
	case SchedVOQ:
		return "voq"
	case SchedBlocking:
		return "blocking"
	default:
		return "scheduling(?)"
	}
}
