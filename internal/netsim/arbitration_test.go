package netsim_test

import (
	"fmt"
	"testing"

	"github.com/gfcsim/gfc/internal/baselines"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// These tests check the input-queued arbitration bitsets against the linear
// scan they replaced, on every kick of runs that change ingress FIFOs in all
// three places that do so: arrival (Network.arrive), transmission (kick) and
// the recovery drop (DropIngressHead). Tagger's priority escalation and a
// switch with more than 64 ports cover the per-priority sets and the
// multi-word bitsets.

// ringPFC is the deadlocking 3-switch ring of the recovery baseline tests.
func ringPFC(t *testing.T, classes int, esc func(*netsim.Packet, topology.NodeID) int) (*netsim.Network, [][]routing.Hop) {
	t.Helper()
	topo := topology.RingHosts(3, 2, topology.DefaultLinkParams())
	paths := routing.RingHostsClockwisePaths(topo, 3, 2)
	n, err := netsim.New(topo, netsim.Config{
		BufferSize: 1000 * units.KB,
		Tau:        90 * units.Microsecond,
		Priorities: classes,
		FlowControl: flowcontrol.NewPFC(flowcontrol.PFCConfig{
			XOFF: 800 * units.KB, XON: 797 * units.KB}),
		Escalation: esc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, paths
}

func addPathFlows(t *testing.T, n *netsim.Network, paths [][]routing.Hop) {
	t.Helper()
	for i, p := range paths {
		last := p[len(p)-1]
		f := &netsim.Flow{ID: i + 1, Src: p[0].Node, Dst: last.Link.Other(last.Node), Path: p}
		if err := n.AddFlow(f, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func checkArb(t *testing.T, st *netsim.ArbStats) {
	t.Helper()
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	if st.Found == 0 {
		t.Fatalf("no arbitration picked an input in %d checks", st.Checks)
	}
	t.Logf("%d arbitrations checked, %d picked an input (%d escalated, %d wide)",
		st.Checks, st.Found, st.Escalated, st.Wide)
}

func TestArbitrationMatchesScanUnderRecovery(t *testing.T) {
	n, paths := ringPFC(t, 1, nil)
	addPathFlows(t, n, paths)
	st := netsim.CheckArbitration(n)
	rec := baselines.NewRecovery(n)
	rec.Install()
	n.Run(60 * units.Millisecond)
	checkArb(t, st)
	if rec.PacketsDropped == 0 {
		t.Fatal("recovery dropped no ingress head: DropIngressHead was not exercised")
	}
}

func TestArbitrationMatchesScanUnderTagger(t *testing.T) {
	topo := topology.RingHosts(3, 2, topology.DefaultLinkParams())
	tg, err := baselines.NewTagger(topo, routing.RingHostsClockwisePaths(topo, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	n, paths := ringPFC(t, tg.Classes, tg.Escalation())
	addPathFlows(t, n, paths)
	st := netsim.CheckArbitration(n)
	n.Run(10 * units.Millisecond)
	checkArb(t, st)
	if st.Escalated == 0 {
		t.Fatal("no escalated packet reached an arbitration")
	}
}

// TestArbitrationMatchesScanWideSwitch runs a 72-port star: every host
// sends to its neighbour and to one of two hot receivers, so the hot
// egresses arbitrate among inputs on both words of their bitsets while
// head-of-line blocking keeps other inputs' heads bound elsewhere.
func TestArbitrationMatchesScanWideSwitch(t *testing.T) {
	const hosts = 72
	topo := topology.New("star-72")
	sw := topo.AddSwitch("S")
	lp := topology.DefaultLinkParams()
	hs := make([]topology.NodeID, hosts)
	for i := range hs {
		hs[i] = topo.AddHost(fmt.Sprintf("H%d", i))
		topo.AddLink(hs[i], sw, lp.Capacity, lp.Delay)
	}
	n, err := netsim.New(topo, netsim.Config{
		BufferSize:  300 * units.KB,
		FlowControl: flowcontrol.NewPFCDefault(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := routing.NewSPF(topo)
	id := 0
	add := func(src, dst topology.NodeID) {
		id++
		p, err := tab.Path(src, dst, uint64(id))
		if err != nil {
			t.Fatal(err)
		}
		if err := n.AddFlow(&netsim.Flow{ID: id, Src: src, Dst: dst, Path: p}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := range hs {
		add(hs[i], hs[(i+1)%hosts])
		if hot := hs[(i%2)*(hosts-1)]; hot != hs[i] {
			add(hs[i], hot)
		}
	}
	st := netsim.CheckArbitration(n)
	n.Run(2 * units.Millisecond)
	checkArb(t, st)
	if st.Wide == 0 {
		t.Fatal("no arbitration picked an input numbered 64 or higher")
	}
	if n.Drops() != 0 {
		t.Fatalf("drops = %d", n.Drops())
	}
}
