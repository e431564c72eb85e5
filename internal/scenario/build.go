package scenario

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"github.com/gfcsim/gfc/internal/deadlock"
	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
	"github.com/gfcsim/gfc/internal/workload"
)

// Overrides carry the runtime-only hooks a Spec cannot serialise. All fields
// are optional; the zero value builds the spec exactly as written.
type Overrides struct {
	// Metrics attaches a fresh registry to the simulation.
	Metrics *metrics.Registry
	// Topo supplies a prebuilt topology, skipping the spec's builder
	// (sweeps reuse one topology across repeats).
	Topo *topology.Topology
	// Table supplies a prebuilt routing table, skipping the spec's
	// routing policy.
	Table *routing.Table
	// FaultPlan supplies a compiled fault plan, skipping the spec's
	// faults section; FaultSeed seeds its injector.
	FaultPlan *faults.Plan
	FaultSeed int64
	// OnFlow runs for each declared flow after construction and before
	// AddFlow — the hook congestion-control attachments (DCQCN) need.
	OnFlow func(*netsim.Flow, *netsim.Network) error
	// CBDCyclic, when non-nil, supplies a precomputed cyclic-buffer-
	// dependency verdict for the analytic checker (true: the workload's
	// paths can close a dependency cycle). Sweeps compute the CBD graph
	// once per generated topology and pass the verdict here; nil lets
	// Sim.Predict derive it from the built workload.
	CBDCyclic *bool
}

// Sim is a built, ready-to-run scenario: the network plus handles to every
// subsystem the spec instantiated.
type Sim struct {
	Spec  Spec
	Topo  *topology.Topology
	Table *routing.Table
	Net   *netsim.Network
	// Flows lists the declared flows in add order (pattern or Flows
	// section; generator flows are not included).
	Flows    []*netsim.Flow
	Gen      *workload.Generator
	Detector *deadlock.Detector
	// DCFIT is the in-data-plane detector, installed when Run.Detector is
	// "dcfit" or "both" (for "dcfit" alone, Detector stays nil).
	DCFIT    *deadlock.DCFIT
	Injector *faults.Injector
	Metrics  *metrics.Registry

	// cfg and fp are the resolved simulator configuration and scheme
	// thresholds Build compiled the network from — the analytic
	// predictor's input.
	cfg netsim.Config
	fp  FCParams
	// cbdCyclic caches the dependency-graph verdict (from the override or
	// a lazy computation in Predict).
	cbdCyclic *bool
}

// probe returns the detector driving the run's stop condition and summary
// verdict: the global detector when installed, else DCFIT, else nil.
func (s *Sim) probe() deadlock.Probe {
	if s.Detector != nil {
		return s.Detector
	}
	if s.DCFIT != nil {
		return s.DCFIT
	}
	return nil
}

// Build compiles a Spec (plus optional Overrides) into a runnable Sim. The
// construction order is fixed — topology, routing, config, faults, network,
// flows, generator, detector — because it is the order every hand-written
// driver used, and event determinism (the golden trace hashes) depends on
// subsystems consuming their private random sources in that order.
func Build(spec Spec, ov *Overrides) (*Sim, error) {
	if ov == nil {
		ov = &Overrides{}
	}

	topo := ov.Topo
	if topo == nil {
		if err := spec.Topology.validate(); err != nil {
			return nil, err
		}
		var err error
		if topo, err = buildTopology(spec.Topology); err != nil {
			return nil, err
		}
	}

	tab := ov.Table
	if tab == nil {
		if err := spec.Routing.validate(); err != nil {
			return nil, err
		}
		var err error
		if tab, err = buildRouting(spec, topo); err != nil {
			return nil, err
		}
	}

	if err := spec.Workload.validate(); err != nil {
		return nil, err
	}
	cfg, fp, err := spec.simConfig()
	if err != nil {
		return nil, err
	}
	cfg.Metrics = ov.Metrics
	if spec.Run.Analytic && cfg.Metrics == nil {
		// The analytic checker consumes end-of-run registry aggregates;
		// attach a counters-only registry when the caller brought none.
		// Registries are passive observers, so this cannot change the
		// event sequence.
		cfg.Metrics = metrics.New(metrics.Options{})
	}

	plan := ov.FaultPlan
	faultSeed := ov.FaultSeed
	if plan == nil && spec.Faults != nil {
		if err := spec.Faults.validate(); err != nil {
			return nil, err
		}
		fs := spec.Faults.Inline
		if fs == nil {
			if fs, err = faults.Preset(spec.Faults.Preset); err != nil {
				return nil, err
			}
		}
		if plan, err = fs.Compile(topo); err != nil {
			return nil, fmt.Errorf("scenario: compiling faults: %w", err)
		}
		faultSeed = spec.Faults.Seed
		if faultSeed == 0 {
			faultSeed = spec.Seed
		}
	}
	var inj *faults.Injector
	if plan != nil {
		inj = plan.NewInjector(faultSeed)
		cfg.Faults = inj
	}

	net, err := netsim.New(topo, cfg)
	if err != nil {
		return nil, err
	}
	sim := &Sim{
		Spec: spec, Topo: topo, Table: tab, Net: net,
		Injector: inj, Metrics: cfg.Metrics,
		cfg: cfg, fp: fp, cbdCyclic: ov.CBDCyclic,
	}

	if err := sim.addFlows(ov); err != nil {
		return nil, err
	}
	if g := spec.Workload.Generator; g != nil {
		if tab == nil {
			return nil, fmt.Errorf("scenario: workload generator needs a routing table (set routing policy spf)")
		}
		dist, err := buildDist(g)
		if err != nil {
			return nil, err
		}
		seed := g.Seed
		if seed == 0 {
			seed = spec.Seed
		}
		gen := workload.NewGenerator(net, tab, dist, workload.EdgeRacks(topo), seed)
		gen.FlowsPerHost = g.FlowsPerHost
		gen.Think = g.ThinkNs
		gen.Priority = g.Priority
		if err := gen.Start(); err != nil {
			return nil, err
		}
		sim.Gen = gen
	}
	if spec.Run.DetectDeadlock || spec.Run.StopOnDeadlock {
		global, dcfit := true, false
		switch spec.Run.Detector {
		case "dcfit":
			global, dcfit = false, true
		case "both":
			dcfit = true
		}
		if global {
			det := deadlock.NewDetector(net)
			det.Install()
			sim.Detector = det
		}
		if dcfit {
			d := deadlock.NewDCFIT(net)
			d.Install()
			sim.DCFIT = d
		}
	}
	return sim, nil
}

// Result summarises one Sim.RunBounded.
type Result struct {
	Name         string
	FC           FC
	End          units.Time
	Deadlocked   bool
	DeadlockAt   units.Time
	DeadlockKind deadlock.Kind
	// DCFITDeadlocked / DCFITAt are the in-data-plane detector's verdict
	// when it was installed (Run.Detector "dcfit" or "both"). With "both",
	// the fields above stay the global detector's verdict so the two can
	// be compared.
	DCFITDeadlocked bool
	DCFITAt         units.Time
	Drops           int64
	Delivered       units.Size
	// HighWater is the maximum switch-ingress occupancy the attached
	// registry observed (zero when no registry was attached).
	HighWater units.Size
	// Backend names the simulation backend that produced this result:
	// "packet" (netsim) or "fluid" (the network-of-queues rate model).
	Backend string
	// Violations is the attached registry's invariant-violation count
	// (zero when no registry was attached).
	Violations int64
	FaultStats faults.Stats
	// Stopped is the governor verdict when a RunBounded run was ended by
	// a budget, the stall watchdog or cancellation; nil for a run that
	// reached its declared end. The summary fields above still describe
	// the partial run up to the stop point.
	Stopped *netsim.RunError
	// Analytic carries the network-wide analytic verdict when
	// Run.Analytic was set (nil otherwise). RunBounded fills it after
	// Stopped is known — early-stopped runs drop the progress floor.
	Analytic *AnalyticCheck
}

// RunBounded executes the built scenario to its declared duration under the
// netsim run governor and collects the summary verdict. It is the only way a
// built Sim runs: ctx cancellation, event/wall/heap budgets and the stall
// watchdog all apply, composed from the spec's Limits block overlaid with the
// caller's extra budget (non-zero caller fields win); a zero Budget with no
// Limits runs unbounded. StopOnDeadlock ends the run at the first poll of the
// detector that sees a deadlock. A tripped governor returns the partial
// Result — with Result.Stopped set — alongside the *netsim.RunError.
func (s *Sim) RunBounded(ctx context.Context, extra netsim.Budget) (*Result, error) {
	d := s.Spec.Run.DurationNs
	eng := s.Net.Engine()
	if p := s.probe(); s.Spec.Run.StopOnDeadlock && p != nil {
		// Poll at the detector's own cadence; once it has a report,
		// stop the engine after the in-flight event.
		var watch func()
		watch = func() {
			if p.Deadlocked() != nil {
				eng.Stop()
				return
			}
			eng.After(p.PollInterval(), watch)
		}
		eng.After(p.PollInterval(), watch)
	}
	// A heartbeat pins the horizon so the clock reaches d even if the
	// event queue drains early (deadlock, finished workload).
	eng.Schedule(d, func() {})
	err := s.Net.RunBounded(ctx, d, s.Spec.Limits.Budget().Overlay(extra))
	res := s.summarise()
	var re *netsim.RunError
	if errors.As(err, &re) {
		res.Stopped = re
	}
	return s.finish(res), err
}

// summarise collects the run's verdict from the network and subsystems.
func (s *Sim) summarise() *Result {
	res := &Result{
		Name:      s.Spec.Name,
		FC:        s.Spec.Scheme.FC,
		Backend:   "packet",
		End:       s.Net.Now(),
		Drops:     s.Net.Drops(),
		Delivered: s.Net.TotalDelivered(),
	}
	if p := s.probe(); p != nil {
		if rep := p.Deadlocked(); rep != nil {
			res.Deadlocked = true
			res.DeadlockAt = rep.At
			res.DeadlockKind = rep.Kind
		}
	}
	if s.DCFIT != nil {
		if rep := s.DCFIT.Deadlocked(); rep != nil {
			res.DCFITDeadlocked = true
			res.DCFITAt = rep.At
		}
	}
	if s.Metrics != nil {
		res.Violations = s.Metrics.Summary().Violations
		res.HighWater = s.Metrics.SwitchHighWater()
	}
	if s.Injector != nil {
		res.FaultStats = s.Injector.Stats()
	}
	return res
}

// finish attaches the analytic verdict once res is complete (Stopped set),
// when the spec asked for it and a registry is bound.
func (s *Sim) finish(res *Result) *Result {
	if s.Spec.Run.Analytic && s.Metrics != nil {
		res.Analytic = s.analyticCheck(res)
	}
	return res
}

func buildTopology(t TopologySpec) (*topology.Topology, error) {
	p := topology.DefaultLinkParams()
	if t.CapacityBps != 0 {
		p.Capacity = t.CapacityBps
	}
	if t.DelayNs != 0 {
		p.Delay = t.DelayNs
	}
	var topo *topology.Topology
	switch t.Builder {
	case "ring":
		h := t.HostsPerSwitch
		if h == 0 {
			h = 1
		}
		topo = topology.RingHosts(t.n(), h, p)
	case "fat-tree":
		topo = topology.FatTree(t.K, p)
	case "dumbbell":
		topo = topology.Dumbbell(t.N, p)
	case "linear":
		topo = topology.Linear(t.N, p)
	case "two-to-one":
		topo = topology.TwoToOne(p)
	default:
		return nil, fmt.Errorf("scenario: topology: unknown builder %q", t.Builder)
	}
	for _, pair := range t.FailLinks {
		a, b, err := splitLink(pair)
		if err != nil {
			return nil, err
		}
		na, ok := topo.Lookup(a)
		if !ok {
			return nil, fmt.Errorf("scenario: topology: fail_links %q: no node named %q", pair, a)
		}
		nb, ok := topo.Lookup(b)
		if !ok {
			return nil, fmt.Errorf("scenario: topology: fail_links %q: no node named %q", pair, b)
		}
		if topo.LinkBetween(na, nb) == nil {
			return nil, fmt.Errorf("scenario: topology: no live link %q to fail", pair)
		}
		topo.FailLinkBetween(a, b)
	}
	if fr := t.FailRandom; fr != nil {
		topo.FailRandomLinks(rand.New(rand.NewSource(fr.Seed)), fr.Prob)
	}
	return topo, nil
}

func splitLink(pair string) (string, string, error) {
	for i := 0; i < len(pair); i++ {
		if pair[i] == '-' {
			return pair[:i], pair[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("scenario: topology: fail_links entry %q is not \"A-B\"", pair)
}

func buildRouting(spec Spec, topo *topology.Topology) (*routing.Table, error) {
	switch spec.Routing.Policy {
	case "spf":
		return routing.NewSPF(topo), nil
	case "spf-toward":
		dsts := make([]topology.NodeID, 0, len(spec.Routing.Toward))
		for _, name := range spec.Routing.Toward {
			id, ok := topo.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("scenario: routing: no node named %q", name)
			}
			dsts = append(dsts, id)
		}
		return routing.NewSPFToward(topo, dsts), nil
	case "none":
		return nil, nil
	default: // "auto", "": build SPF only if something needs a table.
		if spec.needsRouting() {
			return routing.NewSPF(topo), nil
		}
		return nil, nil
	}
}

// needsRouting reports whether any workload element resolves paths through a
// routing table.
func (s *Spec) needsRouting() bool {
	if s.Workload.Generator != nil {
		return true
	}
	for _, f := range s.Workload.Flows {
		if len(f.Path) == 0 {
			return true
		}
	}
	return false
}

// simConfig composes the netsim.Config from the scheme preset and Sim
// overrides, resolves the flow-control factory, and returns the resolved
// FCParams alongside (the analytic predictor consumes the same thresholds
// the factories will install).
func (s *Spec) simConfig() (netsim.Config, FCParams, error) {
	if err := s.Scheme.validate(); err != nil {
		return netsim.Config{}, FCParams{}, err
	}
	if err := s.Sim.validate(); err != nil {
		return netsim.Config{}, FCParams{}, err
	}
	var cfg netsim.Config
	var fp FCParams
	switch s.Scheme.Preset {
	case "testbed":
		cfg, fp = TestbedParams()
	case "sim":
		cfg, fp = SimParams()
	}
	fp = fp.merge(s.Scheme.Params)
	m := s.Sim
	if m.BufferBytes != 0 {
		cfg.BufferSize = m.BufferBytes
	}
	if m.MTUBytes != 0 {
		cfg.MTU = m.MTUBytes
	}
	if m.Priorities != 0 {
		cfg.Priorities = m.Priorities
	}
	if m.ProcDelayNs != 0 {
		cfg.ProcDelay = m.ProcDelayNs
	}
	if m.TauNs != 0 {
		cfg.Tau = m.TauNs
	}
	if m.ECNBytes != 0 {
		cfg.ECNThreshold = m.ECNBytes
	}
	if m.HostQueueDepth != 0 {
		cfg.HostQueueDepth = m.HostQueueDepth
	}
	if m.TxRing != 0 {
		cfg.TxRing = m.TxRing
	}
	if m.FeedbackJitterNs != 0 {
		cfg.FeedbackJitter = m.FeedbackJitterNs
		cfg.JitterSeed = m.JitterSeed
	}
	sched, err := parseScheduling(m.Scheduling)
	if err != nil {
		return netsim.Config{}, FCParams{}, err
	}
	cfg.Scheduling = sched
	cfg.FlowControl = fp.Factory(s.Scheme.FC)
	if s.Scheme.FC == BFC {
		// BFC's per-queue pause needs the physical queues to exist in the
		// switch model; FlowQueues > 0 also forces FIFO scheduling.
		q := fp.Queues
		if q <= 0 {
			q = flowcontrol.DefaultBFCQueues
		}
		cfg.FlowQueues = q
	}
	return cfg, fp, nil
}

// resolvedFlow is one declared flow with its resolved path and start time —
// the backend-independent part of workload instantiation. Both backends
// consume the same resolution so their workloads match flow for flow.
type resolvedFlow struct {
	flow  *netsim.Flow
	start units.Time
}

// resolveFlows materialises the pattern or declared-flows section, in add
// order, without touching any simulator.
func resolveFlows(spec Spec, topo *topology.Topology, tab *routing.Table) ([]resolvedFlow, error) {
	w := spec.Workload
	if w.Pattern == "ring-clockwise" {
		t := spec.Topology
		h := t.HostsPerSwitch
		if h == 0 {
			h = 1
		}
		if t.Builder != "ring" {
			return nil, fmt.Errorf("scenario: pattern ring-clockwise needs the ring builder, not %q", t.Builder)
		}
		var out []resolvedFlow
		for i, path := range routing.RingHostsClockwisePaths(topo, t.n(), h) {
			out = append(out, resolvedFlow{flow: &netsim.Flow{
				ID:   i + 1,
				Src:  path[0].Node,
				Dst:  path[len(path)-1].Link.Other(path[len(path)-1].Node),
				Path: path,
			}})
		}
		return out, nil
	}
	var out []resolvedFlow
	for i, fs := range w.Flows {
		id := fs.ID
		if id == 0 {
			id = i + 1
		}
		f := &netsim.Flow{
			ID:       id,
			Size:     fs.SizeBytes,
			Priority: fs.Priority,
		}
		if len(fs.Path) > 0 {
			path, err := routing.ExplicitPath(topo, fs.Path...)
			if err != nil {
				return nil, fmt.Errorf("scenario: flows[%d]: %w", i, err)
			}
			f.Src = path[0].Node
			f.Dst = path[len(path)-1].Link.Other(path[len(path)-1].Node)
			f.Path = path
		} else {
			if tab == nil {
				return nil, fmt.Errorf("scenario: flows[%d]: src/dst flow needs a routing table (set routing policy spf)", i)
			}
			src, ok := topo.Lookup(fs.Src)
			if !ok {
				return nil, fmt.Errorf("scenario: flows[%d]: no node named %q", i, fs.Src)
			}
			dst, ok := topo.Lookup(fs.Dst)
			if !ok {
				return nil, fmt.Errorf("scenario: flows[%d]: no node named %q", i, fs.Dst)
			}
			path, err := tab.Path(src, dst, uint64(id))
			if err != nil {
				return nil, fmt.Errorf("scenario: flows[%d]: %w", i, err)
			}
			f.Src = src
			f.Dst = dst
			f.Path = path
		}
		out = append(out, resolvedFlow{flow: f, start: fs.StartNs})
	}
	return out, nil
}

// addFlows instantiates the pattern or declared flows, in order.
func (s *Sim) addFlows(ov *Overrides) error {
	flows, err := resolveFlows(s.Spec, s.Topo, s.Table)
	if err != nil {
		return err
	}
	for _, rf := range flows {
		if err := s.add(rf.flow, rf.start, ov); err != nil {
			return err
		}
	}
	return nil
}

func (s *Sim) add(f *netsim.Flow, at units.Time, ov *Overrides) error {
	if ov.OnFlow != nil {
		if err := ov.OnFlow(f, s.Net); err != nil {
			return err
		}
	}
	if err := s.Net.AddFlow(f, at); err != nil {
		return err
	}
	s.Flows = append(s.Flows, f)
	return nil
}

func buildDist(g *GeneratorSpec) (*workload.SizeDist, error) {
	switch g.Dist {
	case "", "enterprise":
		return workload.Enterprise(), nil
	case "datamining":
		return workload.DataMining(), nil
	case "uniform":
		return workload.Uniform(g.UniformBytes), nil
	default:
		return nil, fmt.Errorf("scenario: unknown generator dist %q", g.Dist)
	}
}
