package workload

import (
	"fmt"
	"math/rand"

	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// RackOf groups hosts into racks; flows are only generated between different
// racks (§6.2.3: "each host randomly chooses a destination in different
// racks").
type RackOf func(topology.NodeID) int

// EdgeRacks returns the natural rack function for fat-trees built by
// topology.FatTree: hosts under the same edge switch form a rack. For other
// topologies it falls back to per-host racks (all pairs allowed).
func EdgeRacks(t *topology.Topology) RackOf {
	rack := make(map[topology.NodeID]int)
	for _, h := range t.Hosts() {
		ports := t.Ports(h)
		if len(ports) == 1 {
			rack[h] = int(ports[0].Peer)
		} else {
			rack[h] = -1 - int(h)
		}
	}
	return func(n topology.NodeID) int { return rack[n] }
}

// Generator drives every host of a simulation with back-to-back flows drawn
// from a size distribution toward random inter-rack destinations.
type Generator struct {
	Net   *netsim.Network
	Table *routing.Table
	Dist  *SizeDist
	Racks RackOf
	Rng   *rand.Rand
	// Priority assigned to generated flows.
	Priority int
	// FlowsPerHost is how many flows each host keeps in flight
	// concurrently; default 1 (the paper's workload). Higher values
	// intensify transient convergence — useful to raise the deadlock
	// occurrence rate in budget-limited Table 1 sweeps.
	FlowsPerHost int
	// Think is the idle gap between a flow finishing and the same host
	// launching its successor. The paper's workload chains back-to-back
	// (Think 0); a positive value models application think time and turns
	// the fixed flow population into churn — connections close and reopen
	// instead of saturating, which shifts load from standing queues to
	// flow-arrival transients.
	Think units.Time

	nextID int
	// hosts is the topology's host list, cached on first use: a fabric's
	// node set never changes, and every flow launch draws from it.
	hosts []topology.NodeID
	// Completed accumulates finished flows for analysis.
	Completed []*netsim.Flow
}

// NewGenerator wires a generator; call Start to begin traffic.
func NewGenerator(net *netsim.Network, tab *routing.Table, dist *SizeDist, racks RackOf, seed int64) *Generator {
	return &Generator{
		Net:   net,
		Table: tab,
		Dist:  dist,
		Racks: racks,
		Rng:   rand.New(rand.NewSource(seed)),
	}
}

// validate rejects a generator that would panic or silently misbehave once
// traffic starts: every collaborator must be wired, and the size distribution
// must be well-formed (Uniform(0) and friends produce NaN knots that would
// sample garbage sizes forever).
func (g *Generator) validate() error {
	switch {
	case g.Net == nil:
		return fmt.Errorf("workload: generator: Net is nil")
	case g.Table == nil:
		return fmt.Errorf("workload: generator: Table is nil (build a routing table first)")
	case g.Dist == nil:
		return fmt.Errorf("workload: generator: Dist is nil (pick a size distribution)")
	case g.Racks == nil:
		return fmt.Errorf("workload: generator: Racks is nil (use EdgeRacks)")
	case g.Rng == nil:
		return fmt.Errorf("workload: generator: Rng is nil (construct with NewGenerator)")
	}
	if err := g.Dist.Validate(); err != nil {
		return fmt.Errorf("workload: generator: %w", err)
	}
	return nil
}

// Start launches the first flow on every host at time 0. Each completion
// triggers the next flow from the same host through that flow's OnDone
// callback. FlowsPerHost values <= 0 mean the paper's default of one flow
// in flight per host.
func (g *Generator) Start() error {
	if err := g.validate(); err != nil {
		return err
	}
	k := g.FlowsPerHost
	if k < 1 {
		k = 1
	}
	for _, h := range g.hostList() {
		for i := 0; i < k; i++ {
			if err := g.launch(h, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// launch starts one flow from src at time at and schedules its successor.
func (g *Generator) launch(src topology.NodeID, at units.Time) error {
	dst, ok := g.pickDst(src)
	if !ok {
		return nil // no reachable inter-rack destination: host stays idle
	}
	g.nextID++
	id := g.nextID
	key := uint64(id)*1315423911 ^ uint64(src)<<24 ^ uint64(dst)
	path, err := g.Table.Path(src, dst, key)
	if err != nil {
		return fmt.Errorf("workload: routing flow %d: %w", id, err)
	}
	f := &netsim.Flow{
		ID:       id,
		Src:      src,
		Dst:      dst,
		Size:     g.Dist.Sample(g.Rng),
		Priority: g.Priority,
		Path:     path,
	}
	f.OnDone = func(done *netsim.Flow) {
		g.Completed = append(g.Completed, done)
		// Chain the next flow from the same host after the think gap
		// (§6.2.3: "Once this flow is finished, the host repeats the
		// above process" — back-to-back when Think is 0). Routing
		// failures cannot occur here: the host just proved it can
		// route somewhere.
		_ = g.launch(done.Src, g.Net.Now()+g.Think)
	}
	return g.Net.AddFlow(f, at)
}

// hostList returns the simulated topology's hosts, computing them once.
func (g *Generator) hostList() []topology.NodeID {
	if g.hosts == nil {
		g.hosts = g.Net.Topology().Hosts()
	}
	return g.hosts
}

// pickDst chooses a uniformly random reachable host in a different rack.
func (g *Generator) pickDst(src topology.NodeID) (topology.NodeID, bool) {
	hosts := g.hostList()
	srcRack := g.Racks(src)
	// Rejection-sample a bounded number of times, then scan.
	for try := 0; try < 16; try++ {
		d := hosts[g.Rng.Intn(len(hosts))]
		if d != src && g.Racks(d) != srcRack && g.Table.Reachable(src, d) {
			return d, true
		}
	}
	var candidates []topology.NodeID
	for _, d := range hosts {
		if d != src && g.Racks(d) != srcRack && g.Table.Reachable(src, d) {
			candidates = append(candidates, d)
		}
	}
	if len(candidates) == 0 {
		return topology.None, false
	}
	return candidates[g.Rng.Intn(len(candidates))], true
}
