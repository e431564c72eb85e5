package netsim

import (
	"testing"

	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

func pfcFactory() flowcontrol.Factory { return flowcontrol.NewPFCDefault() }

func gfcFactory() flowcontrol.Factory { return flowcontrol.NewGFCBuffer(flowcontrol.GFCBufferConfig{}) }

func cbfcFactory() flowcontrol.Factory {
	return flowcontrol.NewCBFC(flowcontrol.CBFCConfig{Period: 10 * units.Microsecond})
}

func gfcTimeFactory() flowcontrol.Factory {
	return flowcontrol.NewGFCTime(flowcontrol.GFCTimeConfig{})
}

func baseConfig(f flowcontrol.Factory) Config {
	return Config{
		BufferSize:  300 * units.KB,
		FlowControl: f,
	}
}

// spfFlow builds a flow routed by SPF.
func spfFlow(t *testing.T, topo *topology.Topology, id int, src, dst string, size units.Size) *Flow {
	t.Helper()
	tab := routing.NewSPF(topo)
	s, d := topo.MustLookup(src), topo.MustLookup(dst)
	path, err := tab.Path(s, d, uint64(id))
	if err != nil {
		t.Fatal(err)
	}
	return &Flow{ID: id, Src: s, Dst: d, Size: size, Path: path}
}

func TestSingleFlowDelivery(t *testing.T) {
	topo := topology.Linear(2, topology.DefaultLinkParams())
	for name, f := range map[string]flowcontrol.Factory{
		"pfc": pfcFactory(), "gfc": gfcFactory(),
		"cbfc": cbfcFactory(), "gfc-time": gfcTimeFactory(),
	} {
		t.Run(name, func(t *testing.T) {
			n, err := New(topo, baseConfig(f))
			if err != nil {
				t.Fatal(err)
			}
			fl := spfFlow(t, topo, 1, "H1", "H2", 150*units.KB)
			if err := n.AddFlow(fl, 0); err != nil {
				t.Fatal(err)
			}
			n.Run(10 * units.Millisecond)
			if !fl.Done() {
				t.Fatalf("flow not done: delivered %v of %v", fl.Delivered, fl.Size)
			}
			if n.Drops() != 0 {
				t.Fatalf("drops = %d", n.Drops())
			}
			// 150KB over 3 links at 10G: ideal ≈ 100 pkts × 1.2µs
			// + pipeline; FCT must be ≥ serialization time of the
			// whole flow on one link and < 10× that.
			ideal := units.TransmissionTime(150*units.KB, 10*units.Gbps)
			if fl.FCT() < ideal {
				t.Fatalf("FCT %v below physical minimum %v", fl.FCT(), ideal)
			}
			if fl.FCT() > 10*ideal {
				t.Fatalf("FCT %v unreasonably slow (ideal %v)", fl.FCT(), ideal)
			}
		})
	}
}

func TestLineRateThroughput(t *testing.T) {
	// A single unbounded flow must achieve ≈ line rate under every FC.
	topo := topology.Linear(2, topology.DefaultLinkParams())
	for name, f := range map[string]flowcontrol.Factory{
		"pfc": pfcFactory(), "gfc": gfcFactory(),
		"cbfc": cbfcFactory(), "gfc-time": gfcTimeFactory(),
	} {
		t.Run(name, func(t *testing.T) {
			n, err := New(topo, baseConfig(f))
			if err != nil {
				t.Fatal(err)
			}
			fl := spfFlow(t, topo, 1, "H1", "H2", 0)
			if err := n.AddFlow(fl, 0); err != nil {
				t.Fatal(err)
			}
			const dur = 10 * units.Millisecond
			n.Run(dur)
			rate := units.RateOf(fl.Delivered, dur)
			if rate < 9.5*units.Gbps {
				t.Fatalf("throughput %v, want ≈10Gbps", rate)
			}
			if n.Drops() != 0 {
				t.Fatalf("drops = %d", n.Drops())
			}
		})
	}
}

func TestTwoToOneFairSharing(t *testing.T) {
	// Figure 5 scenario: two line-rate senders into one receiver. Both
	// must get ≈5G and no packets may be lost.
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	for name, f := range map[string]flowcontrol.Factory{
		"pfc": pfcFactory(), "gfc": gfcFactory(),
		"cbfc": cbfcFactory(), "gfc-time": gfcTimeFactory(),
	} {
		t.Run(name, func(t *testing.T) {
			n, err := New(topo, baseConfig(f))
			if err != nil {
				t.Fatal(err)
			}
			f1 := spfFlow(t, topo, 1, "H1", "H3", 0)
			f2 := spfFlow(t, topo, 2, "H2", "H3", 0)
			if err := n.AddFlow(f1, 0); err != nil {
				t.Fatal(err)
			}
			if err := n.AddFlow(f2, 0); err != nil {
				t.Fatal(err)
			}
			const dur = 20 * units.Millisecond
			n.Run(dur)
			if n.Drops() != 0 {
				t.Fatalf("drops = %d", n.Drops())
			}
			r1 := units.RateOf(f1.Delivered, dur)
			r2 := units.RateOf(f2.Delivered, dur)
			if r1 < 4*units.Gbps || r1 > 6*units.Gbps {
				t.Errorf("f1 rate %v, want ≈5G", r1)
			}
			if r2 < 4*units.Gbps || r2 > 6*units.Gbps {
				t.Errorf("f2 rate %v, want ≈5G", r2)
			}
			total := units.RateOf(f1.Delivered+f2.Delivered, dur)
			if total < 9*units.Gbps {
				t.Errorf("aggregate %v, bottleneck underutilised", total)
			}
		})
	}
}

func TestGFCQueueStabilises(t *testing.T) {
	// Under buffer-based GFC the congested ingress queue must stay
	// strictly below the buffer ceiling and the sender rate must stay
	// positive — hold-and-wait eliminated.
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	cfg := baseConfig(gfcFactory())
	var maxQ units.Size
	n, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Observe(&Trace{
		OnQueue: func(_ units.Time, node topology.NodeID, _, _ int, q units.Size) {
			if topo.Node(node).Kind == topology.Switch && q > maxQ {
				maxQ = q
			}
		},
	})
	for i, src := range []string{"H1", "H2"} {
		if err := n.AddFlow(spfFlow(t, topo, i+1, src, "H3", 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(20 * units.Millisecond)
	if n.Drops() != 0 {
		t.Fatalf("drops = %d", n.Drops())
	}
	if maxQ >= cfg.BufferSize {
		t.Fatalf("queue reached buffer ceiling: %v", maxQ)
	}
	// Upstream host senders must never be at rate 0 now.
	h1 := topo.MustLookup("H1")
	if r := n.SenderRate(h1, 0, 0); r <= 0 {
		t.Fatalf("H1 sender rate %v — hold and wait", r)
	}
}

func TestPFCPausesUpstream(t *testing.T) {
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	cfg := baseConfig(pfcFactory())
	n, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []string{"H1", "H2"} {
		if err := n.AddFlow(spfFlow(t, topo, i+1, src, "H3", 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Run until the queue builds; with a 2:1 overload the ingress
	// queues cross XOFF quickly and hosts get paused at least once.
	sawPause := false
	for i := 0; i < 2000 && !sawPause; i++ {
		n.Run(n.Now() + 10*units.Microsecond)
		h1 := topo.MustLookup("H1")
		if n.SenderRate(h1, 0, 0) == 0 {
			sawPause = true
		}
	}
	if !sawPause {
		t.Fatal("PFC never paused the overloading host")
	}
	if n.Drops() != 0 {
		t.Fatalf("drops = %d", n.Drops())
	}
}

func TestAddFlowValidation(t *testing.T) {
	topo := topology.Linear(2, topology.DefaultLinkParams())
	n, err := New(topo, baseConfig(pfcFactory()))
	if err != nil {
		t.Fatal(err)
	}
	h1 := topo.MustLookup("H1")
	h2 := topo.MustLookup("H2")
	s1 := topo.MustLookup("S1")
	good := spfFlow(t, topo, 1, "H1", "H2", units.KB)

	if err := n.AddFlow(&Flow{Src: h1, Dst: h2}, 0); err == nil {
		t.Error("empty path accepted")
	}
	bad := *good
	bad.Src = h2
	if err := n.AddFlow(&bad, 0); err == nil {
		t.Error("mismatched src accepted")
	}
	bad2 := *good
	bad2.Dst = s1
	if err := n.AddFlow(&bad2, 0); err == nil {
		t.Error("non-host dst accepted")
	}
	bad3 := *good
	bad3.Priority = 7
	if err := n.AddFlow(&bad3, 0); err == nil {
		t.Error("out-of-range priority accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	topo := topology.Linear(2, topology.DefaultLinkParams())
	if _, err := New(topo, Config{FlowControl: pfcFactory()}); err == nil {
		t.Error("zero buffer accepted")
	}
	if _, err := New(topo, Config{BufferSize: units.KB}); err == nil {
		t.Error("nil factory accepted")
	}
	if _, err := New(topo, Config{BufferSize: units.MB, FlowControl: pfcFactory(), Priorities: 9}); err == nil {
		t.Error("9 priorities accepted")
	}
}

func TestECNMarking(t *testing.T) {
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	cfg := baseConfig(gfcFactory())
	cfg.ECNThreshold = 40 * units.KB
	marked := 0
	total := 0
	n, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Observe(&Trace{
		OnDeliver: func(_ units.Time, _ *Flow, pkt *Packet) {
			total++
			if pkt.ECN {
				marked++
			}
		},
	})
	for i, src := range []string{"H1", "H2"} {
		if err := n.AddFlow(spfFlow(t, topo, i+1, src, "H3", 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(10 * units.Millisecond)
	if total == 0 || marked == 0 {
		t.Fatalf("marked %d of %d packets; expected congestion marking", marked, total)
	}
}

type fixedPacer struct {
	rate units.Rate
	next units.Time
}

func (p *fixedPacer) NextAllowed(now units.Time, _ units.Size) units.Time { return p.next }
func (p *fixedPacer) OnRelease(now units.Time, size units.Size) {
	gap := units.TransmissionTime(size, p.rate)
	if p.next < now {
		p.next = now
	}
	p.next += gap
}

func TestPacerLimitsFlow(t *testing.T) {
	topo := topology.Linear(2, topology.DefaultLinkParams())
	n, err := New(topo, baseConfig(pfcFactory()))
	if err != nil {
		t.Fatal(err)
	}
	fl := spfFlow(t, topo, 1, "H1", "H2", 0)
	fl.Pacer = &fixedPacer{rate: 1 * units.Gbps}
	if err := n.AddFlow(fl, 0); err != nil {
		t.Fatal(err)
	}
	const dur = 10 * units.Millisecond
	n.Run(dur)
	rate := units.RateOf(fl.Delivered, dur)
	if rate < 0.9*units.Gbps || rate > 1.1*units.Gbps {
		t.Fatalf("paced rate %v, want ≈1Gbps", rate)
	}
}

func TestFeedbackAccounting(t *testing.T) {
	// Two independent counters of emitted feedback must agree: the
	// network's running total and the registry's per-channel sums.
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	cfg := baseConfig(gfcFactory())
	reg := metrics.New(metrics.Options{})
	cfg.Metrics = reg
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
	if n.FeedbackBytes() == 0 {
		t.Fatal("no feedback recorded under congestion")
	}
	if got := reg.Summary().FeedbackWire; got != n.FeedbackBytes() {
		t.Fatalf("registry %v != network %v", got, n.FeedbackBytes())
	}
	// GFC's overhead must be a tiny fraction of capacity (§4.2: <0.7%).
	frac := float64(n.FeedbackBytes().Bits()) / (10e9 * (5 * units.Millisecond).Seconds())
	// Several channels share the accounting; even summed it stays small.
	if frac > 0.05 {
		t.Fatalf("feedback consumed %.2f%% of one link-interval", frac*100)
	}
}

func TestMultiPriorityIsolation(t *testing.T) {
	// Two priorities on the same bottleneck: each gets its own FC state
	// and both make progress.
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	cfg := baseConfig(gfcFactory())
	cfg.Priorities = 2
	n, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f1 := spfFlow(t, topo, 1, "H1", "H3", 0)
	f1.Priority = 0
	f2 := spfFlow(t, topo, 2, "H2", "H3", 0)
	f2.Priority = 1
	if err := n.AddFlow(f1, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.AddFlow(f2, 0); err != nil {
		t.Fatal(err)
	}
	const dur = 10 * units.Millisecond
	n.Run(dur)
	if n.Drops() != 0 {
		t.Fatalf("drops = %d", n.Drops())
	}
	for _, f := range []*Flow{f1, f2} {
		r := units.RateOf(f.Delivered, dur)
		if r < 3*units.Gbps {
			t.Errorf("flow %d rate %v, want fair share ≈5G", f.ID, r)
		}
	}
}

func TestChannelStates(t *testing.T) {
	topo := topology.Linear(2, topology.DefaultLinkParams())
	n, err := New(topo, baseConfig(pfcFactory()))
	if err != nil {
		t.Fatal(err)
	}
	fl := spfFlow(t, topo, 1, "H1", "H2", 0)
	if err := n.AddFlow(fl, 0); err != nil {
		t.Fatal(err)
	}
	n.Run(units.Millisecond)
	states := n.ChannelStates()
	// linear-2: links H1-S1, H2-S2, S1-S2 → 6 directed channels.
	if len(states) != 6 {
		t.Fatalf("channels = %d, want 6", len(states))
	}
	var progress int
	for _, cs := range states {
		if cs.TxBytes > 0 {
			progress++
		}
	}
	if progress < 3 {
		t.Fatalf("only %d channels progressed; flow path has 3", progress)
	}
	if n.TotalDelivered() == 0 {
		t.Fatal("TotalDelivered zero")
	}
}

func TestStaggeredStart(t *testing.T) {
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	n, err := New(topo, baseConfig(gfcFactory()))
	if err != nil {
		t.Fatal(err)
	}
	f1 := spfFlow(t, topo, 1, "H1", "H3", 0)
	f2 := spfFlow(t, topo, 2, "H2", "H3", 0)
	if err := n.AddFlow(f1, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.AddFlow(f2, 5*units.Millisecond); err != nil {
		t.Fatal(err)
	}
	n.Run(10 * units.Millisecond)
	// f1 alone for 5ms at ~10G then shares: delivered ∈ (7.5G·10ms·avg).
	r1 := units.RateOf(f1.Delivered, 10*units.Millisecond)
	if r1 < 6.5*units.Gbps {
		t.Errorf("f1 average %v, want ≈7.5G (solo then shared)", r1)
	}
	r2 := units.RateOf(f2.Delivered, 5*units.Millisecond)
	if r2 < 4*units.Gbps || r2 > 6*units.Gbps {
		t.Errorf("f2 rate %v over its active 5ms, want ≈5G", r2)
	}
}
