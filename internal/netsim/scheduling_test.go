package netsim

import (
	"testing"

	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

func TestSchedulingString(t *testing.T) {
	cases := map[Scheduling]string{
		SchedInputQueued: "input-queued",
		SchedFIFO:        "fifo",
		SchedVOQ:         "voq",
		SchedBlocking:    "blocking",
		Scheduling(42):   "scheduling(?)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

// Every discipline must deliver line rate on an uncongested path and stay
// lossless under 2:1 congestion.
func TestAllDisciplinesBasicService(t *testing.T) {
	for _, sched := range []Scheduling{
		SchedInputQueued, SchedFIFO, SchedVOQ, SchedBlocking,
	} {
		t.Run(sched.String(), func(t *testing.T) {
			topo := topology.TwoToOne(topology.DefaultLinkParams())
			cfg := baseConfig(gfcFactory())
			cfg.Scheduling = sched
			n, err := New(topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			f1 := spfFlow(t, topo, 1, "H1", "H3", 0)
			f2 := spfFlow(t, topo, 2, "H2", "H3", 0)
			for _, f := range []*Flow{f1, f2} {
				if err := n.AddFlow(f, 0); err != nil {
					t.Fatal(err)
				}
			}
			const dur = 10 * units.Millisecond
			n.Run(dur)
			if n.Drops() != 0 {
				t.Fatalf("drops = %d", n.Drops())
			}
			total := units.RateOf(f1.Delivered+f2.Delivered, dur)
			if total < 8.5*units.Gbps {
				t.Errorf("aggregate %v under %v, bottleneck underutilised", total, sched)
			}
		})
	}
}

// VOQ keeps per-input fairness: a line-rate input cannot crowd out a slower
// one beyond its fair share at the shared egress.
func TestVOQFairness(t *testing.T) {
	// Three senders into one sink: with VOQ each backlogged input gets
	// 1/3 of the egress.
	p := topology.DefaultLinkParams()
	topo := topology.New("three-to-one")
	s := topo.AddSwitch("S1")
	for _, h := range []string{"H1", "H2", "H3", "R"} {
		topo.AddLink(topo.AddHost(h), s, p.Capacity, p.Delay)
	}
	cfg := baseConfig(pfcFactory())
	cfg.Scheduling = SchedVOQ
	n, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var flows []*Flow
	for i, h := range []string{"H1", "H2", "H3"} {
		f := spfFlow(t, topo, i+1, h, "R", 0)
		if err := n.AddFlow(f, 0); err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
	}
	const dur = 10 * units.Millisecond
	n.Run(dur)
	for _, f := range flows {
		r := units.RateOf(f.Delivered, dur)
		if r < 2.8*units.Gbps || r > 3.9*units.Gbps {
			t.Errorf("flow %d rate %v, want ≈3.33G fair share", f.ID, r)
		}
	}
}

// Input-queued switching exhibits head-of-line blocking: a packet behind a
// blocked head cannot leave even though its own egress is idle.
func TestInputQueuedHOL(t *testing.T) {
	// H1 sends alternating flows to R1 (congested by H2+H3) and R2
	// (idle). Under VOQ the R2 flow gets nearly full rate; under
	// input-queued it is dragged down by HOL behind R1-bound packets.
	p := topology.DefaultLinkParams()
	build := func(sched Scheduling) units.Rate {
		topo := topology.New("hol")
		s := topo.AddSwitch("S1")
		for _, h := range []string{"H1", "R2"} {
			topo.AddLink(topo.AddHost(h), s, p.Capacity, p.Delay)
		}
		// R1 sits behind a slow 1G link: R1-bound packets serialise
		// slowly at S1's egress.
		topo.AddLink(topo.AddHost("R1"), s, units.Gbps, p.Delay)
		cfg := baseConfig(pfcFactory())
		// A huge buffer keeps flow control out of the picture so the
		// measurement isolates the service discipline itself.
		cfg.BufferSize = 1 << 30
		cfg.Scheduling = sched
		n, err := New(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// H1 interleaves packets to the slow R1 and the fast R2.
		fSlow := spfFlow(t, topo, 1, "H1", "R1", 0)
		fFast := spfFlow(t, topo, 2, "H1", "R2", 0)
		for _, f := range []*Flow{fSlow, fFast} {
			if err := n.AddFlow(f, 0); err != nil {
				t.Fatal(err)
			}
		}
		const dur = 10 * units.Millisecond
		n.Run(dur)
		if n.Drops() != 0 {
			t.Fatalf("drops = %d", n.Drops())
		}
		return units.RateOf(fFast.Delivered, dur)
	}
	freeVOQ := build(SchedVOQ)
	freeIQ := build(SchedInputQueued)
	// At S1, H1's ingress FIFO interleaves R1- and R2-bound packets.
	// Under input-queued service only the head may move: every R1-bound
	// packet holds the R2 traffic behind it for a 1G serialisation
	// (12 µs), so the fast flow is dragged far below its VOQ service.
	if freeIQ >= freeVOQ/2 {
		t.Errorf("no HOL penalty: input-queued %v vs VOQ %v", freeIQ, freeVOQ)
	}
}

func TestStopFlow(t *testing.T) {
	topo := topology.Linear(2, topology.DefaultLinkParams())
	n, err := New(topo, baseConfig(pfcFactory()))
	if err != nil {
		t.Fatal(err)
	}
	f := spfFlow(t, topo, 1, "H1", "H2", 0) // unbounded
	if err := n.AddFlow(f, 0); err != nil {
		t.Fatal(err)
	}
	n.StopFlow(f, 2*units.Millisecond)
	n.Run(10 * units.Millisecond)
	if !f.Done() {
		t.Fatal("stopped flow never completed")
	}
	// Delivered ≈ 2ms at line rate ≈ 2.5MB.
	want := units.BytesIn(10*units.Gbps, 2*units.Millisecond)
	if f.Delivered < want*95/100 || f.Delivered > want*105/100 {
		t.Errorf("delivered %v, want ≈%v", f.Delivered, want)
	}
	if f.FCT() <= 0 {
		t.Error("FCT not recorded")
	}
}

func TestFeedbackJitterDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) units.Size {
		topo := topology.TwoToOne(topology.DefaultLinkParams())
		cfg := baseConfig(pfcFactory())
		cfg.FeedbackJitter = 20 * units.Microsecond
		cfg.JitterSeed = seed
		// τ must budget for the jitter or PFC headroom is too small.
		cfg.Tau = 30 * units.Microsecond
		n, err := New(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, src := range []string{"H1", "H2"} {
			if err := n.AddFlow(spfFlow(t, topo, i+1, src, "H3", 0), 0); err != nil {
				t.Fatal(err)
			}
		}
		n.Run(5 * units.Millisecond)
		if n.Drops() != 0 {
			t.Fatalf("drops = %d with jittered feedback", n.Drops())
		}
		return n.TotalDelivered()
	}
	a1, a2 := run(7), run(7)
	if a1 != a2 {
		t.Fatal("same jitter seed produced different results")
	}
	b := run(8)
	if a1 == b {
		t.Log("different seeds coincided (possible but unlikely)")
	}
}

func TestBlockingForwardingStallsSwitch(t *testing.T) {
	// Under SchedBlocking with a paused egress, the whole switch's
	// forwarding for that priority freezes once the TX ring fills —
	// traffic to an unrelated idle port also stops.
	p := topology.DefaultLinkParams()
	topo := topology.New("blocking")
	s := topo.AddSwitch("S1")
	for _, h := range []string{"H1", "H2", "R1", "R2"} {
		topo.AddLink(topo.AddHost(h), s, p.Capacity, p.Delay)
	}
	cfg := baseConfig(pfcFactory())
	cfg.Scheduling = SchedBlocking
	cfg.TxRing = 4
	n, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two flows saturate R1 (PFC will pause S1→R1 only if R1's ingress
	// fills — hosts sink infinitely, so instead make R1's link the
	// bottleneck by sending 2:1).
	f1 := spfFlow(t, topo, 1, "H1", "R1", 0)
	f2 := spfFlow(t, topo, 2, "H2", "R1", 0)
	f3 := spfFlow(t, topo, 3, "H2", "R2", 0)
	for _, f := range []*Flow{f1, f2, f3} {
		if err := n.AddFlow(f, 0); err != nil {
			t.Fatal(err)
		}
	}
	const dur = 10 * units.Millisecond
	n.Run(dur)
	// R2 traffic shares H2's uplink with the R1 flow; with the R1 TX
	// ring full most of the time, switch-wide stalls throttle the
	// R2-bound flow well below its VOQ share. This documents the
	// discipline's coupling; exact numbers are not asserted, only that
	// the run is lossless and makes progress.
	if n.Drops() != 0 {
		t.Fatalf("drops = %d", n.Drops())
	}
	if f3.Delivered == 0 {
		t.Fatal("R2 flow fully starved under blocking forwarding")
	}
}

func TestPriorityWeightsValidation(t *testing.T) {
	topo := topology.Linear(2, topology.DefaultLinkParams())
	cfg := baseConfig(pfcFactory())
	cfg.Priorities = 2
	cfg.PriorityWeights = []int{3} // wrong length
	if _, err := New(topo, cfg); err == nil {
		t.Error("mismatched weights accepted")
	}
	cfg.PriorityWeights = []int{3, 0} // zero weight
	if _, err := New(topo, cfg); err == nil {
		t.Error("zero weight accepted")
	}
}

func TestWeightedPrioritySharing(t *testing.T) {
	// Two saturating flows at different priorities through one
	// bottleneck: a 3:1 weighting must show up in goodput.
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	cfg := baseConfig(gfcFactory())
	cfg.Priorities = 2
	cfg.PriorityWeights = []int{3, 1}
	n, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hi := spfFlow(t, topo, 1, "H1", "H3", 0)
	hi.Priority = 0
	lo := spfFlow(t, topo, 2, "H2", "H3", 0)
	lo.Priority = 1
	for _, f := range []*Flow{hi, lo} {
		if err := n.AddFlow(f, 0); err != nil {
			t.Fatal(err)
		}
	}
	const dur = 10 * units.Millisecond
	n.Run(dur)
	if n.Drops() != 0 {
		t.Fatalf("drops = %d", n.Drops())
	}
	rHi := units.RateOf(hi.Delivered, dur)
	rLo := units.RateOf(lo.Delivered, dur)
	ratio := float64(rHi) / float64(rLo)
	if ratio < 2.3 || ratio > 3.7 {
		t.Errorf("weighted share ratio = %.2f (hi %v, lo %v), want ≈3", ratio, rHi, rLo)
	}
	// Work conservation: the bottleneck stays full.
	if total := rHi + rLo; total < 9*units.Gbps {
		t.Errorf("aggregate %v, want ≈10G", total)
	}
	// The low class is never starved (§7's requirement).
	if rLo < units.Gbps {
		t.Errorf("low class %v, starved", rLo)
	}
}

func TestIntrospectionAccessors(t *testing.T) {
	topo := topology.Linear(2, topology.DefaultLinkParams())
	n, err := New(topo, baseConfig(pfcFactory()))
	if err != nil {
		t.Fatal(err)
	}
	if n.Topology() != topo {
		t.Error("Topology accessor wrong")
	}
	if n.Engine() == nil {
		t.Error("Engine accessor nil")
	}
	f := spfFlow(t, topo, 1, "H1", "H2", 0)
	if err := n.AddFlow(f, 0); err != nil {
		t.Fatal(err)
	}
	if len(n.Flows()) != 1 || n.Flows()[0] != f {
		t.Error("Flows accessor wrong")
	}
	n.Run(units.Millisecond)
	s1 := topo.MustLookup("S1")
	h1 := topo.MustLookup("H1")
	if p := n.PortFor(s1, h1); p < 0 {
		t.Error("PortFor failed")
	}
	if p := n.PortFor(h1, topo.MustLookup("H2")); p >= 0 {
		t.Error("PortFor found nonexistent link")
	}
	if q := n.IngressQueue(s1, n.PortFor(s1, h1), 0); q < 0 {
		t.Error("IngressQueue negative")
	}
	states := n.IngressStates()
	if len(states) == 0 {
		t.Fatal("no ingress states for a switch")
	}
	for _, is := range states {
		if topo.Node(is.Node).Kind != topology.Switch {
			t.Error("ingress state on a host")
		}
		if len(is.WaitsOn) != len(is.WaitRates) {
			t.Error("WaitsOn and WaitRates misaligned")
		}
	}
}

func TestDropIngressHead(t *testing.T) {
	// Congested 2:1 so ingress FIFOs hold packets.
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	n, err := New(topo, baseConfig(pfcFactory()))
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []string{"H1", "H2"} {
		if err := n.AddFlow(spfFlow(t, topo, i+1, src, "H3", 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(5 * units.Millisecond)
	s1 := topo.MustLookup("S1")
	h1 := topo.MustLookup("H1")
	port := n.PortFor(s1, h1)
	before := n.IngressQueue(s1, port, 0)
	if before == 0 {
		t.Fatal("ingress empty; cannot exercise drop")
	}
	if !n.DropIngressHead(s1, port, 0) {
		t.Fatal("DropIngressHead failed on occupied buffer")
	}
	if n.Drops() != 1 {
		t.Fatalf("drops = %d, want 1", n.Drops())
	}
	if after := n.IngressQueue(s1, port, 0); after >= before {
		t.Error("occupancy did not fall")
	}
	// Dropping from a host or out-of-range port fails gracefully.
	if n.DropIngressHead(h1, 0, 0) {
		t.Error("dropped from a host")
	}
	if n.DropIngressHead(s1, 99, 0) {
		t.Error("dropped from nonexistent port")
	}
}

func TestPacketHelpers(t *testing.T) {
	topo := topology.Linear(2, topology.DefaultLinkParams())
	n, err := New(topo, baseConfig(pfcFactory()))
	if err != nil {
		t.Fatal(err)
	}
	var sawLastHop bool
	cfg := baseConfig(pfcFactory())
	n, err = New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Observe(&Trace{
		OnTransmit: func(_ units.Time, _ topology.NodeID, _ int, pkt *Packet) {
			if pkt.CurrentHop().Link == nil {
				t.Error("CurrentHop has nil link")
			}
			if pkt.AtLastHop() {
				sawLastHop = true
			}
		},
	})
	f := spfFlow(t, topo, 1, "H1", "H2", 10*units.KB)
	if err := n.AddFlow(f, 0); err != nil {
		t.Fatal(err)
	}
	n.Run(units.Millisecond)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	if !sawLastHop {
		t.Error("AtLastHop never true on a delivered flow")
	}
}
