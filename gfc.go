// Package gfc is a packet-level simulation library for lossless network
// fabrics, built around Gentle Flow Control (GFC) — the deadlock-avoiding
// hop-by-hop flow control of Qian, Cheng, Zhang and Ren, "Gentle Flow
// Control: Avoiding Deadlock in Lossless Networks", SIGCOMM 2019.
//
// The library provides:
//
//   - the GFC mapping functions, parameter bounds (Theorems 4.1/5.1) and
//     rate-limiter model of the paper, alongside reference implementations
//     of PFC (IEEE 802.1Qbb) and InfiniBand credit-based flow control;
//   - a deterministic discrete-event simulator of input-buffered lossless
//     switches with configurable switching disciplines;
//   - topology builders (rings, fat-trees, dumbbells), shortest-path
//     routing, cyclic-buffer-dependency analysis and a runtime deadlock
//     detector;
//   - a deterministic, seeded fault-injection layer (feedback loss, delay
//     and reordering, link flaps, capacity degradation, arrival
//     perturbations) for robustness studies;
//   - the DCQCN congestion control for interaction studies; and
//   - drivers reproducing every table and figure of the paper's evaluation
//     (see the EXPERIMENTS.md of this repository).
//
// # Quick start
//
//	topo := gfc.Ring(3, gfc.DefaultLinkParams())
//	sim, err := gfc.NewSimulation(topo, gfc.Options{
//	        BufferSize:  1000 * gfc.KB,
//	        FlowControl: gfc.NewGFCBuffer(gfc.GFCBufferConfig{}),
//	})
//	...
//	sim.Run(100 * gfc.Millisecond)
//
// See examples/ for complete programs.
package gfc

import (
	"github.com/gfcsim/gfc/internal/baselines"
	"github.com/gfcsim/gfc/internal/cbd"
	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/dcqcn"
	"github.com/gfcsim/gfc/internal/deadlock"
	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/fluid"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/runner"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
	"github.com/gfcsim/gfc/internal/workload"
)

// Quantities.
type (
	// Time is simulation time in nanoseconds.
	Time = units.Time
	// Size is a data amount in bytes.
	Size = units.Size
	// Rate is a data rate in bits per second.
	Rate = units.Rate
)

// Common constants re-exported for building configurations.
const (
	Nanosecond  = units.Nanosecond
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second

	Byte = units.Byte
	KB   = units.KB
	MB   = units.MB

	Kbps = units.Kbps
	Mbps = units.Mbps
	Gbps = units.Gbps
)

// TransmissionTime reports how long transmitting s at rate r takes.
func TransmissionTime(s Size, r Rate) Time { return units.TransmissionTime(s, r) }

// RateOf reports the average rate delivering s bytes in d.
func RateOf(s Size, d Time) Rate { return units.RateOf(s, d) }

// Topology modelling.
type (
	// Topology is a network graph of hosts, switches and links.
	Topology = topology.Topology
	// NodeID identifies a node in a Topology.
	NodeID = topology.NodeID
	// LinkParams carries link capacity and propagation delay.
	LinkParams = topology.LinkParams
)

// Topology constructors.
var (
	// NewTopology returns an empty topology.
	NewTopology = topology.New
	// Ring builds the paper's Figure 1 deadlock ring (n switches, one
	// host each).
	Ring = topology.Ring
	// RingHosts builds an n-switch ring with h hosts per switch.
	RingHosts = topology.RingHosts
	// FatTree builds a k-ary fat-tree (Al-Fares et al.).
	FatTree = topology.FatTree
	// Dumbbell builds an n-sender incast dumbbell.
	Dumbbell = topology.Dumbbell
	// Linear builds a chain of switches with one host each.
	Linear = topology.Linear
	// DefaultLinkParams is 10 Gb/s with 1 µs propagation delay.
	DefaultLinkParams = topology.DefaultLinkParams
)

// Routing.
type (
	// RoutingTable holds shortest-path-first routes.
	RoutingTable = routing.Table
	// Hop is one forwarding step of a path.
	Hop = routing.Hop
)

// Routing constructors and helpers.
var (
	// NewSPF computes shortest-path routing toward every host.
	NewSPF = routing.NewSPF
	// ExplicitPath pins a route through named nodes.
	ExplicitPath = routing.ExplicitPath
	// RingClockwisePaths is the Figure 1 traffic pattern.
	RingClockwisePaths = routing.RingClockwisePaths
	// PathLatency is the unloaded one-packet latency of a path.
	PathLatency = routing.PathLatency
)

// Flow control.
type (
	// FlowControlFactory builds a controller per channel and priority.
	FlowControlFactory = flowcontrol.Factory
	// PFCConfig holds PFC XOFF/XON thresholds.
	PFCConfig = flowcontrol.PFCConfig
	// CBFCConfig holds the credit-based flow control period.
	CBFCConfig = flowcontrol.CBFCConfig
	// GFCBufferConfig configures buffer-based GFC (§5.1).
	GFCBufferConfig = flowcontrol.GFCBufferConfig
	// GFCTimeConfig configures time-based GFC (§5.2).
	GFCTimeConfig = flowcontrol.GFCTimeConfig
	// GFCConceptualConfig configures the conceptual design (§4.1).
	GFCConceptualConfig = flowcontrol.GFCConceptualConfig
	// RateLimiter is the §5.3 egress rate limiter model.
	RateLimiter = flowcontrol.RateLimiter
)

// Flow-control constructors.
var (
	// NewPFC builds IEEE 802.1Qbb Priority Flow Control.
	NewPFC = flowcontrol.NewPFC
	// NewPFCDefault derives recommended PFC thresholds.
	NewPFCDefault = flowcontrol.NewPFCDefault
	// NewCBFC builds InfiniBand credit-based flow control.
	NewCBFC = flowcontrol.NewCBFC
	// NewGFCBuffer builds buffer-based Gentle Flow Control.
	NewGFCBuffer = flowcontrol.NewGFCBuffer
	// NewGFCTime builds time-based Gentle Flow Control.
	NewGFCTime = flowcontrol.NewGFCTime
	// NewGFCConceptual builds the conceptual (continuous-feedback) GFC.
	NewGFCConceptual = flowcontrol.NewGFCConceptual
	// RecommendedCBFCPeriod is the InfiniBand feedback period for a
	// link rate.
	RecommendedCBFCPeriod = flowcontrol.RecommendedCBFCPeriod
)

// GFC parameter mathematics (package core of the paper).
type (
	// StageTable is the multi-stage mapping function of practical GFC.
	StageTable = core.StageTable
	// ContinuousMapping is the conceptual linear mapping function.
	ContinuousMapping = core.ContinuousMapping
	// OverheadModel quantifies feedback bandwidth (§4.2).
	OverheadModel = core.OverheadModel
)

// Parameter helpers.
var (
	// Tau bounds the feedback latency per equation (6).
	Tau = core.Tau
	// ConceptualB0Bound is the Theorem 4.1 threshold bound.
	ConceptualB0Bound = core.ConceptualB0Bound
	// TimeBasedB0Bound is the Theorem 5.1 threshold bound.
	TimeBasedB0Bound = core.TimeBasedB0Bound
	// BufferBasedB1Bound is the §5.4 first-stage bound B_m − 2Cτ.
	BufferBasedB1Bound = core.BufferBasedB1Bound
	// NewStageTable constructs a stage table.
	NewStageTable = core.NewStageTable
	// NewSafeStageTable constructs a stage table enforcing the bound.
	NewSafeStageTable = core.NewSafeStageTable
)

// Simulation.
type (
	// Options configures a simulation (buffer sizes, flow control,
	// switching discipline, metrics, faults, ...).
	Options = netsim.Config
	// Simulation is a runnable network instance.
	Simulation = netsim.Network
	// Flow is one transfer between hosts.
	Flow = netsim.Flow
	// Packet is one frame in flight.
	Packet = netsim.Packet
	// Trace carries observation hooks; subscribe one with
	// Simulation.Observe.
	Trace = netsim.Trace
	// Scheduling selects the switching discipline.
	Scheduling = netsim.Scheduling
	// Pacer rate-limits a flow at its source.
	Pacer = netsim.Pacer
)

// Switching disciplines.
const (
	// SchedInputQueued is the default: per-input FIFOs with round-robin
	// service and head-of-line blocking, as in the paper's testbed.
	SchedInputQueued = netsim.SchedInputQueued
	// SchedFIFO is a simple output-queued switch.
	SchedFIFO = netsim.SchedFIFO
	// SchedVOQ is per-input virtual output queueing.
	SchedVOQ = netsim.SchedVOQ
	// SchedBlocking models a software switch whose forwarding core
	// stalls on a full egress ring.
	SchedBlocking = netsim.SchedBlocking
)

// NewSimulation builds a simulation of topo under the given options.
func NewSimulation(topo *Topology, opt Options) (*Simulation, error) {
	return netsim.New(topo, opt)
}

// Run governor: Simulation.RunBounded runs under a Budget (event/wall
// limits, livelock watchdog, ctx cancellation) and reports a tripped run as
// a *RunError carrying a flight-recorder Snapshot.
type (
	// Budget bounds one RunBounded call; the zero value only honours ctx.
	Budget = netsim.Budget
	// RunError is the structured verdict of a tripped governor.
	RunError = netsim.RunError
	// RunSnapshot is the flight-recorder state attached to a RunError.
	RunSnapshot = netsim.Snapshot
	// StopReason says why the governor ended a run.
	StopReason = netsim.StopReason
	// CheckpointStore is the sweep checkpoint/resume store (JSONL of
	// completed cells, torn-line tolerant).
	CheckpointStore = runner.Store
)

// Governor stop reasons.
const (
	StopCancelled   = netsim.StopCancelled
	StopEventBudget = netsim.StopEventBudget
	StopWallBudget  = netsim.StopWallBudget
	StopStalled     = netsim.StopStalled
	StopHeapBudget  = netsim.StopHeapBudget
)

// OpenCheckpoint opens (creating if absent) a sweep checkpoint for
// resume-and-append; key identifies the sweep configuration.
func OpenCheckpoint(path, key string) (*CheckpointStore, error) {
	return runner.OpenStore(path, key)
}

// Observability: per-channel counters, occupancy series and runtime
// invariant checking (internal/metrics). Attach a fresh registry via
// Options.Metrics; the simulator keeps it updated at zero cost when nil.
type (
	// MetricsRegistry accumulates per-channel counters for one simulation.
	MetricsRegistry = metrics.Registry
	// MetricsOptions configures a MetricsRegistry.
	MetricsOptions = metrics.Options
	// MetricsReport is a full point-in-time export of a registry.
	MetricsReport = metrics.Report
	// MetricsSummary is the compact roll-up sweeps aggregate.
	MetricsSummary = metrics.Summary
	// InvariantViolation is one recorded invariant failure.
	InvariantViolation = metrics.Violation
	// InvariantError is the structured failure report of a violated run.
	InvariantError = metrics.InvariantError
)

// Observability constructors.
var (
	// NewMetricsRegistry returns an unbound registry to pass via
	// Options.Metrics.
	NewMetricsRegistry = metrics.New
	// ValidateStageTable statically checks a stage table's monotonicity.
	ValidateStageTable = metrics.ValidateStageTable
)

// Deadlock analysis.
type (
	// DeadlockDetector polls a simulation for circular standstill.
	DeadlockDetector = deadlock.Detector
	// DeadlockReport describes a detected deadlock.
	DeadlockReport = deadlock.Report
	// DeadlockKind distinguishes the detector's verdicts.
	DeadlockKind = deadlock.Kind
	// CBDGraph is the static cyclic-buffer-dependency graph.
	CBDGraph = cbd.Graph
)

// Deadlock verdicts.
const (
	// DeadlockCircularWait is the classic cycle of mutually waiting
	// buffers (§2.1).
	DeadlockCircularWait = deadlock.CircularWait
	// DeadlockWedgedChannel is a fault-induced permanent stall: a lost
	// release signal (PFC RESUME, CBFC credit) holding a channel shut.
	DeadlockWedgedChannel = deadlock.WedgedChannel
)

// Deadlock and CBD constructors.
var (
	// NewDeadlockDetector watches a simulation for deadlock.
	NewDeadlockDetector = deadlock.NewDetector
	// NewCBDGraph builds an empty buffer-dependency graph.
	NewCBDGraph = cbd.NewGraph
	// CBDFromAllPairs builds the dependency graph of all host pairs.
	CBDFromAllPairs = cbd.FromAllPairs
)

// Fault injection (deterministic, seeded fault scenarios). Compile a
// FaultSpec against a topology once, then bind one FaultInjector per
// simulation via Options.Faults: the same (plan, seed) pair replays
// bit-identically regardless of what else runs in the process.
type (
	// FaultSpec is a declarative fault scenario (JSON-serialisable).
	FaultSpec = faults.Spec
	// LinkFault is the fault plan of one link pattern.
	LinkFault = faults.LinkFault
	// FeedbackFault drops, delays or reorders flow-control messages.
	FeedbackFault = faults.FeedbackFault
	// LinkFlap takes a link administratively down and back up.
	LinkFlap = faults.Flap
	// LinkDegrade runs a link at a fraction of its capacity for a window.
	LinkDegrade = faults.Degrade
	// HostFault perturbs a host's arrivals (bursts, delayed flow onsets).
	HostFault = faults.HostFault
	// FaultPlan is a spec compiled against one topology (immutable,
	// shareable across runs).
	FaultPlan = faults.Plan
	// FaultInjector executes a plan for one simulation (Options.Faults).
	FaultInjector = faults.Injector
	// FaultStats counts what an injector actually did.
	FaultStats = faults.Stats
)

// Fault-injection constructors.
var (
	// ParseFaultSpec decodes a JSON scenario.
	ParseFaultSpec = faults.Parse
	// LoadFaultSpec reads a JSON scenario file.
	LoadFaultSpec = faults.Load
	// FaultPreset returns a named built-in scenario (see FaultPresetNames).
	FaultPreset = faults.Preset
	// FaultPresetNames lists the built-in scenario names.
	FaultPresetNames = faults.PresetNames
)

// Declarative scenarios: one JSON-serialisable Scenario declares topology,
// routing, workload, scheme, faults and stop conditions, and BuildScenario
// compiles it into a ready-to-run simulation. The registry carries every
// paper figure's canonical setup plus the Clos-scale clos128-* scenarios.
type (
	// Scenario is a complete declarative experiment description.
	Scenario = scenario.Spec
	// ScenarioOverrides carries the runtime-only inputs (prebuilt
	// topologies, per-flow hooks, metrics, fault plans) a serialised
	// Scenario cannot express. Observe a built scenario through
	// ScenarioSim.Net.Observe.
	ScenarioOverrides = scenario.Overrides
	// ScenarioSim is a built, ready-to-run scenario.
	ScenarioSim = scenario.Sim
	// ScenarioResult summarises one ScenarioSim.RunBounded.
	ScenarioResult = scenario.Result
	// FC names a flow-control scheme in a Scenario.
	FC = scenario.FC
	// FCParams carries per-scheme parameters (thresholds, periods).
	FCParams = scenario.FCParams
)

// The paper's flow-control schemes, as Scenario scheme names.
const (
	PFC           = scenario.PFC
	CBFC          = scenario.CBFC
	GFCBuffer     = scenario.GFCBuf
	GFCTime       = scenario.GFCTime
	GFCConceptual = scenario.GFCConceptual
)

// Scenario functions.
var (
	// BuildScenario compiles a Scenario (+ optional overrides) into a
	// runnable simulation.
	BuildScenario = scenario.Build
	// ParseScenario decodes a JSON Scenario, rejecting unknown fields.
	ParseScenario = scenario.Parse
	// LoadScenario reads a Scenario from a JSON file.
	LoadScenario = scenario.Load
	// GetScenario returns a registered scenario by name.
	GetScenario = scenario.Get
	// ScenarioNames lists the registered scenarios.
	ScenarioNames = scenario.Names
	// RegisterScenario adds a Scenario to the registry.
	RegisterScenario = scenario.Register
	// AllFCs lists the paper's four schemes in presentation order.
	AllFCs = scenario.AllFCs
)

// Workloads.
type (
	// SizeDist is a flow-size distribution.
	SizeDist = workload.SizeDist
	// TrafficGenerator drives hosts with random inter-rack flows.
	TrafficGenerator = workload.Generator
)

// Workload constructors.
var (
	// EnterpriseWorkload is the paper's Figure 15 flow-size mix.
	EnterpriseWorkload = workload.Enterprise
	// DataMiningWorkload is a heavier-tailed alternative.
	DataMiningWorkload = workload.DataMining
	// NewTrafficGenerator wires a generator to a simulation.
	NewTrafficGenerator = workload.NewGenerator
	// EdgeRacks groups fat-tree hosts into racks by edge switch.
	EdgeRacks = workload.EdgeRacks
)

// Congestion control.
type (
	// DCQCNConfig holds the DCQCN constants.
	DCQCNConfig = dcqcn.Config
	// DCQCNReactionPoint is a per-flow DCQCN sender state machine.
	DCQCNReactionPoint = dcqcn.RP
)

// DCQCN constructors.
var (
	// AttachDCQCN installs DCQCN on a flow.
	AttachDCQCN = dcqcn.Attach
	// DefaultDCQCNConfig is the paper's Figure 20 parameterisation.
	DefaultDCQCNConfig = dcqcn.DefaultConfig
)

// Related-work baselines (§8 of the paper).
type (
	// UpDownRouting is Autonet-style CBD-free Up*/Down* routing.
	UpDownRouting = baselines.UpDown
	// DeadlockRecovery is the reactive detect-and-drop family.
	DeadlockRecovery = baselines.Recovery
	// Tagger is the static priority-escalation scheme of Hu et al.
	Tagger = baselines.Tagger
)

// Baseline constructors.
var (
	// NewUpDown orients a topology for Up*/Down* routing.
	NewUpDown = baselines.NewUpDown
	// DatelineEscalation builds the ring virtual-channel hook.
	DatelineEscalation = baselines.Dateline
	// NewDeadlockRecovery builds a detect-and-drop recovery agent.
	NewDeadlockRecovery = baselines.NewRecovery
	// NewTagger derives priority-escalation rules breaking all CBDs of
	// the given routes.
	NewTagger = baselines.NewTagger
)

// Fluid modelling (the continuous dynamics behind Figures 4–6 and the
// theorems).
type (
	// FluidConfig parameterises a fluid-model run.
	FluidConfig = fluid.Config
	// FluidResult carries the integrated trajectories.
	FluidResult = fluid.Result
)

// Fluid-model helpers.
var (
	// RunFluid integrates one controlled-queue trajectory.
	RunFluid = fluid.Run
	// FluidConstantDrain builds a constant draining rate.
	FluidConstantDrain = fluid.ConstantDrain
	// FluidStepDrain builds a two-phase draining rate.
	FluidStepDrain = fluid.StepDrain
	// RequiredBuffer compares the Theorem 4.1 headroom with an
	// empirical bisection on the fluid model.
	RequiredBuffer = fluid.RequiredBuffer
)
