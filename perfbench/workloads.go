package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/gfcsim/gfc/internal/experiments"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/runner"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// defaultSeed is the seed the recorded outcomes belong to: the registered
// scenarios' own seed and DefaultSweep's.
const defaultSeed = 1

// iteration is what one child process measures: one pass of a workload from
// its generated inputs to a verified result.
type iteration struct {
	Traced     bool    `json:"traced"`
	SetupS     float64 `json:"setup_s"`
	RunS       float64 `json:"run_s"`
	WallS      float64 `json:"wall_s"`
	HeapPeakMB float64 `json:"heap_peak_mb"`
	// CalS are the calibration rounds timed after an untraced
	// iteration (see calibrate).
	CalS      []float64 `json:"cal_s,omitempty"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// Problems lists the output checks that failed.
	Problems []string `json:"problems,omitempty"`
	// Layer holds the per-layer metrics of a traced iteration, and
	// CPUNanos its profiled CPU time per layer.
	Layer    map[string]float64 `json:"layer,omitempty"`
	CPUNanos map[string]int64   `json:"cpu_ns,omitempty"`
}

// workload is one benchmark input set. run measures a single iteration;
// tmp is a scratch directory the iteration may write to.
type workload interface {
	run(ctx context.Context, seed int64, tr *tracer, tmp string) (*iteration, error)
}

// workloads are the benchmark's named workloads at their measured sizes.
var workloads = map[string]workload{
	"clos1024-gfcbuf": packetWorkload{
		scenario: "clos1024-gfcbuf",
		horizon:  300 * units.Microsecond,
		want:     &packetOutcome{Delivered: 104535367, Drops: 0, FlowsCompleted: 3533, Deadlocked: false},
	},
	"clos3456-gfctime": packetWorkload{
		scenario: "clos3456-gfctime",
		horizon:  50 * units.Microsecond,
		want:     &packetOutcome{Delivered: 39642319, Drops: 0, FlowsCompleted: 4333, Deadlocked: false},
	},
	"table1-k4-auto": sweepWorkload{
		// Twelve short cells rather than fewer long ones: the cost of a
		// cell varies with its network and traffic, and averaging over
		// more cells keeps one seed's sweep close to another's.
		cells:    12,
		duration: 3 * units.Millisecond,
		// Every PFC repeat escalates on the cyclic CBD, all but two
		// GFC-buffer repeats at the envelope band, and every GFC-time
		// repeat resolves on the fluid solver.
		want: map[experiments.FC]sweepOutcome{
			experiments.PFC:     {CBDProne: 12, DeadlockCases: 0, AnalyticChecked: 24, FluidRepeats: 0, PacketRepeats: 24},
			experiments.GFCBuf:  {CBDProne: 12, DeadlockCases: 0, AnalyticChecked: 24, FluidRepeats: 2, PacketRepeats: 22},
			experiments.GFCTime: {CBDProne: 12, DeadlockCases: 0, AnalyticChecked: 24, FluidRepeats: 24, PacketRepeats: 0},
		},
	},
}

// packetWorkload runs one registered scenario on the packet backend over a
// shortened horizon, governed by the scenario's own Limits.
type packetWorkload struct {
	scenario string
	horizon  units.Time
	// want is the outcome recorded at defaultSeed; nil checks only what
	// holds for every seed.
	want *packetOutcome
}

// packetOutcome is the simulated result the output check compares.
type packetOutcome struct {
	Delivered      units.Size
	Drops          int64
	FlowsCompleted int
	Deadlocked     bool
}

func (w packetWorkload) run(ctx context.Context, seed int64, tr *tracer, _ string) (*iteration, error) {
	spec, ok := scenario.Get(w.scenario)
	if !ok {
		return nil, fmt.Errorf("scenario %q is not registered", w.scenario)
	}
	spec.Seed = seed
	spec.Run.DurationNs = w.horizon
	ts := spec.Topology
	if ts.Builder != "fat-tree" || len(ts.FailLinks) > 0 || ts.FailRandom != nil {
		return nil, fmt.Errorf("scenario %q: want an unfailed fat-tree, got builder %q", w.scenario, ts.Builder)
	}
	links := topology.DefaultLinkParams()
	if ts.CapacityBps != 0 {
		links.Capacity = ts.CapacityBps
	}
	if ts.DelayNs != 0 {
		links.Delay = ts.DelayNs
	}

	start := time.Now()
	end := tr.span("setup")
	endTopo := tr.span("topology.FatTree")
	topo := topology.FatTree(ts.K, links)
	endTopo()
	endSPF := tr.span("routing.NewSPF")
	tab := routing.NewSPF(topo)
	endSPF()
	endBuild := tr.span("scenario.Build")
	sim, err := scenario.Build(spec, &scenario.Overrides{Topo: topo, Table: tab})
	endBuild()
	end()
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", w.scenario, err)
	}
	setup := time.Since(start)

	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	runStart := time.Now()
	end = tr.span("Sim.RunBounded")
	res, runErr := sim.RunBounded(ctx, netsim.Budget{})
	end()
	run := time.Since(runStart)
	if tr != nil {
		runtime.ReadMemStats(&after)
	}

	end = tr.span("check")
	got := packetOutcome{
		Delivered:      res.Delivered,
		Drops:          res.Drops,
		FlowsCompleted: len(sim.Gen.Completed),
		Deadlocked:     res.Deadlocked,
	}
	var want *packetOutcome
	if seed == defaultSeed {
		want = w.want
	}
	problems := checkPacket(spec, res, runErr, got, want)
	end()
	it := &iteration{
		SetupS: setup.Seconds(), RunS: run.Seconds(), WallS: time.Since(start).Seconds(),
		Attempted: 1, Failed: packetFailed(problems), Problems: problems,
	}

	if tr != nil {
		events := float64(sim.Net.Engine().Fired())
		tr.set("topology.build_s", tr.total("topology.FatTree"))
		tr.set("routing.spf_s", tr.total("routing.NewSPF"))
		tr.set("scenario.build_s", tr.total("scenario.Build"))
		tr.set("eventsim.events", events)
		tr.set("eventsim.events_per_s", events/run.Seconds())
		if events > 0 {
			tr.set("netsim.allocs_per_event", float64(after.Mallocs-before.Mallocs)/events)
			tr.set("netsim.bytes_per_event", float64(after.TotalAlloc-before.TotalAlloc)/events)
		}
		tr.set("workload.flows_completed", float64(got.FlowsCompleted))
	}
	return it, nil
}

// checkPacket applies the output check of a packet run: the checks that
// hold on every seed, plus a comparison with want when it is non-nil.
func checkPacket(spec scenario.Spec, res *scenario.Result, runErr error, got packetOutcome, want *packetOutcome) []string {
	var p []string
	if runErr != nil {
		p = append(p, fmt.Sprintf("governed run stopped: %v", runErr))
	}
	if res.End != spec.Run.DurationNs {
		p = append(p, fmt.Sprintf("run ended at %v, want %v", res.End, spec.Run.DurationNs))
	}
	if got.Delivered <= 0 || got.FlowsCompleted <= 0 {
		p = append(p, fmt.Sprintf("no progress: delivered %v, %d flows completed", got.Delivered, got.FlowsCompleted))
	}
	if got.Drops != 0 {
		p = append(p, fmt.Sprintf("%d drops on the healthy fabric", got.Drops))
	}
	if spec.Scheme.FC.IsGFC() && got.Deadlocked {
		p = append(p, fmt.Sprintf("%s deadlocked on the healthy fabric", spec.Scheme.FC))
	}
	if want != nil && got != *want {
		p = append(p, fmt.Sprintf("outcome %+v differs from the recorded %+v", got, *want))
	}
	return p
}

// packetFailed is the failed-operation count of a packet iteration: the run
// is its one operation, and it fails on a governor trip or a failed check.
func packetFailed(problems []string) int {
	if len(problems) > 0 {
		return 1
	}
	return 0
}

// sweepSchemes are the schemes table1-k4-auto sweeps, in run order.
var sweepSchemes = []experiments.FC{experiments.PFC, experiments.GFCBuf, experiments.GFCTime}

// sweepWorkload runs the Table 1 sweep at k=4 under the auto backend with
// the analytic check on, checkpointing every scheme to its own file.
type sweepWorkload struct {
	// cells is how many CBD-prone networks each scheme simulates. The
	// seed picks the networks; the sweep covers the shortest prefix of
	// them holding exactly this many CBD-prone ones, so every seed
	// simulates the same number of cells.
	cells    int
	duration units.Time
	// want holds the per-scheme outcome recorded at defaultSeed; nil
	// checks only what holds for every seed.
	want map[experiments.FC]sweepOutcome
}

// sweepOutcome is what the output check compares for one scheme.
type sweepOutcome struct {
	CBDProne        int
	DeadlockCases   int
	AnalyticChecked int
	FluidRepeats    int
	PacketRepeats   int
}

// provenance is one scheme's per-repeat backend history, read back from
// its checkpoint.
type provenance struct {
	fluid, packet int
	// escalations counts packet re-runs by reason; wasted counts those
	// that came after a fluid pass.
	escalations map[string]int
	wasted      int
}

// escalationReasons maps the prefix of an auto-mode escalation reason to
// the short name reported per layer, and whether a fluid pass ran first.
// The last entry catches reasons this list does not know.
var escalationReasons = []struct {
	prefix, name string
	fluidPass    bool
}{
	{"fluid-unsupported scheme", "unsupported", false},
	{"deadlock-capable scheme on cyclic CBD", "cyclic", false},
	{"fluid run failed", "failed", true},
	{"fluid deadlock contradicts", "deadlock", true},
	{"fluid loss contradicts", "loss", true},
	{"occupancy within tolerance band", "boundary", true},
	{"", "other", false},
}

// config returns the sweep configuration for seed: DefaultSweep(4) at the
// workload's horizon with the auto backend and the analytic check, on one
// worker: a single worker's time does not depend on how two workers share
// the host's cores, and it loads the host as the calibration does (see
// calibrate). Finding the network count generates every candidate network,
// which makes it most of the sweep's set-up time.
func (w sweepWorkload) config(tr *tracer, seed int64) (experiments.SweepConfig, error) {
	defer tr.span("experiments.GenerateScenario")()
	cfg := experiments.DefaultSweep(4)
	cfg.Seed = seed
	cfg.Duration = w.duration
	cfg.Backend = "auto"
	cfg.Analytic = true
	cfg.Workers = 1
	const maxNetworks = 100_000
	prone := 0
	for n := 0; n < maxNetworks; n++ {
		if _, _, cyclic := experiments.GenerateScenario(cfg.K, cfg.FailureProb, seed+int64(n)); cyclic {
			prone++
		}
		if prone == w.cells {
			cfg.Networks = n + 1
			return cfg, nil
		}
	}
	return cfg, fmt.Errorf("seed %d: fewer than %d CBD-prone networks among the first %d", seed, w.cells, maxNetworks)
}

func (w sweepWorkload) run(ctx context.Context, seed int64, tr *tracer, tmp string) (*iteration, error) {
	// Set-up takes only tens of milliseconds, so it is repeated, each time
	// into fresh checkpoint files, and the median trial is reported. The
	// sweep runs on the last trial's files, and wall_s counts that trial.
	const setupTrials = 5
	var (
		cfg    experiments.SweepConfig
		dir    string
		start  time.Time
		setups = make([]float64, setupTrials)
	)
	ckpt := func(fc experiments.FC) string {
		return filepath.Join(dir, strings.ToLower(string(fc))+".ckpt")
	}
	for t := range setups {
		dir = filepath.Join(tmp, fmt.Sprint("setup-", t))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		start = time.Now()
		end := tr.span("setup")
		var err error
		cfg, err = w.config(tr, seed)
		if err == nil {
			err = sweepSetup(tr, cfg, ckpt)
		}
		end()
		if err != nil {
			return nil, err
		}
		setups[t] = time.Since(start).Seconds()
	}

	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	runStart := time.Now()
	results := make(map[experiments.FC]*experiments.SweepResult, len(sweepSchemes))
	for _, fc := range sweepSchemes {
		c := cfg
		c.Checkpoint = ckpt(fc)
		end := tr.span("experiments.RunSweep/" + string(fc))
		res, err := experiments.RunSweep(ctx, fc, c)
		end()
		if err != nil {
			return nil, fmt.Errorf("%s sweep: %w", fc, err)
		}
		results[fc] = res
	}
	run := time.Since(runStart)
	if tr != nil {
		runtime.ReadMemStats(&after)
	}

	end := tr.span("check")
	it := &iteration{Attempted: cfg.Networks * len(sweepSchemes)}
	provs := make(map[experiments.FC]*provenance, len(sweepSchemes))
	for _, fc := range sweepSchemes {
		endP := tr.span("runner.Lookup/" + string(fc))
		prov, err := readProvenance(ckpt(fc), experiments.SweepKey(fc, cfg), cfg.Networks)
		endP()
		if err != nil {
			return nil, err
		}
		provs[fc] = prov
		var want *sweepOutcome
		if seed == defaultSeed && w.want != nil {
			o := w.want[fc]
			want = &o
		}
		problems := checkSweep(fc, cfg, results[fc], prov, w.cells, want)
		it.Problems = append(it.Problems, problems...)
		it.Failed += sweepFailed(cfg.Networks, len(results[fc].Failures), len(problems) == 0)
	}
	end()
	it.SetupS, it.RunS, it.WallS = median(setups), run.Seconds(), time.Since(start).Seconds()

	if tr != nil {
		if err := traceSweep(ctx, tr, cfg, ckpt, results, provs); err != nil {
			return nil, err
		}
		repeats := float64(len(sweepSchemes) * w.cells * cfg.Repeats)
		tr.set("experiments.allocs_per_repeat", float64(after.Mallocs-before.Mallocs)/repeats)
		tr.set("experiments.bytes_per_repeat", float64(after.TotalAlloc-before.TotalAlloc)/repeats)
	}
	return it, nil
}

// sweepSetup is the sweep's set-up: validating the configuration and
// opening (creating) each scheme's checkpoint.
func sweepSetup(tr *tracer, cfg experiments.SweepConfig, ckpt func(experiments.FC) string) error {
	for _, fc := range sweepSchemes {
		endV := tr.span("experiments.SweepConfig.Validate")
		err := cfg.Validate()
		endV()
		if err != nil {
			return err
		}
		endOpen := tr.span("runner.OpenStore")
		st, err := runner.OpenStore(ckpt(fc), experiments.SweepKey(fc, cfg))
		if err == nil {
			err = st.Close()
		}
		endOpen()
		if err != nil {
			return fmt.Errorf("opening checkpoint: %w", err)
		}
	}
	return nil
}

// traceSweep derives the sweep's per-layer metrics from its results and
// checkpoint provenance, and times a replay pass over the complete
// checkpoints.
func traceSweep(ctx context.Context, tr *tracer, cfg experiments.SweepConfig, ckpt func(experiments.FC) string,
	results map[experiments.FC]*experiments.SweepResult, provs map[experiments.FC]*provenance) error {
	var cells, quarantined, retried, degraded, checked, fluid, packet, wasted, bytes int
	escalations := map[string]int{}
	for _, fc := range sweepSchemes {
		res, prov := results[fc], provs[fc]
		cells += cfg.Networks
		quarantined += len(res.Failures)
		retried += len(res.Retried)
		degraded += len(res.Degraded)
		checked += res.AnalyticChecked
		fluid += prov.fluid
		packet += prov.packet
		wasted += prov.wasted
		for name, n := range prov.escalations {
			escalations[name] += n
		}
		fi, err := os.Stat(ckpt(fc))
		if err != nil {
			return err
		}
		bytes += int(fi.Size())
		tr.set("experiments.sweep_s."+slug(fc), tr.total("experiments.RunSweep/"+string(fc)))
	}
	tr.set("runner.cells", float64(cells))
	tr.set("runner.quarantined", float64(quarantined))
	tr.set("runner.retried", float64(retried))
	tr.set("runner.degraded", float64(degraded))
	tr.set("analytic.checked", float64(checked))
	tr.set("fluid.repeats", float64(fluid))
	tr.set("netsim.repeats", float64(packet))
	tr.set("experiments.escalations", float64(packet))
	for _, r := range escalationReasons {
		tr.set("experiments.escalations."+r.name, float64(escalations[r.name]))
	}
	if passes := fluid + wasted; passes > 0 {
		tr.set("fluid.triage_useful_frac", float64(fluid)/float64(passes))
	}
	tr.set("runner.ckpt_bytes", float64(bytes))

	end := tr.span("replay")
	for _, fc := range sweepSchemes {
		c := cfg
		c.Checkpoint = ckpt(fc)
		endR := tr.span("experiments.RunSweep.replay/" + string(fc))
		res, err := experiments.RunSweep(ctx, fc, c)
		endR()
		if err != nil {
			end()
			return fmt.Errorf("%s replay: %w", fc, err)
		}
		if res.CBDProne != results[fc].CBDProne || res.DeadlockCases != results[fc].DeadlockCases {
			end()
			return fmt.Errorf("%s replay disagrees with the run: %d/%d CBD-prone/deadlock cases, want %d/%d",
				fc, res.CBDProne, res.DeadlockCases, results[fc].CBDProne, results[fc].DeadlockCases)
		}
	}
	end()
	tr.set("runner.replay_s", tr.total("replay"))
	return nil
}

// readProvenance reopens a complete checkpoint and tallies the backend and
// escalation reason of every recorded repeat.
func readProvenance(path, key string, networks int) (*provenance, error) {
	st, err := runner.OpenStore(path, key)
	if err != nil {
		return nil, fmt.Errorf("reopening checkpoint: %w", err)
	}
	defer st.Close()
	if st.Done() != networks {
		return nil, fmt.Errorf("checkpoint %s holds %d of %d cells", filepath.Base(path), st.Done(), networks)
	}
	p := &provenance{escalations: map[string]int{}}
	for job := 0; job < networks; job++ {
		e, _ := st.Lookup(job)
		if e.Err != "" {
			continue // quarantined: the output check reports it
		}
		var cell *struct {
			Repeats []struct {
				Backend    string `json:"backend"`
				Escalation string `json:"escalation"`
			} `json:"repeats"`
		}
		if err := json.Unmarshal(e.Value, &cell); err != nil {
			return nil, fmt.Errorf("checkpoint cell %d: %w", job, err)
		}
		if cell == nil {
			continue // not CBD-prone: never simulated
		}
		for _, r := range cell.Repeats {
			if r.Backend == "fluid" {
				p.fluid++
				continue
			}
			p.packet++
			for _, er := range escalationReasons {
				if strings.HasPrefix(r.Escalation, er.prefix) {
					p.escalations[er.name]++
					if er.fluidPass {
						p.wasted++
					}
					break
				}
			}
		}
	}
	return p, nil
}

// checkSweep applies the output check of one scheme's sweep: the checks
// that hold on every seed, plus a comparison with want when it is non-nil.
func checkSweep(fc experiments.FC, cfg experiments.SweepConfig, res *experiments.SweepResult, prov *provenance, cells int, want *sweepOutcome) []string {
	var p []string
	fail := func(format string, args ...any) {
		p = append(p, fmt.Sprintf("%s: ", fc)+fmt.Sprintf(format, args...))
	}
	if n := len(res.Failures); n > 0 {
		fail("%d cells quarantined, first: %s", n, res.Failures[0].Err)
	}
	repeats := cells * cfg.Repeats
	if res.CBDProne != cells {
		fail("%d CBD-prone networks, want %d", res.CBDProne, cells)
	}
	if res.AnalyticChecked != repeats {
		fail("%d repeats passed the analytic check, want %d", res.AnalyticChecked, repeats)
	}
	if prov.fluid+prov.packet != repeats {
		fail("checkpoint records %d fluid + %d packet repeats, want %d", prov.fluid, prov.packet, repeats)
	}
	if res.Drops != 0 {
		fail("%d drops", res.Drops)
	}
	if fc.IsGFC() && res.DeadlockCases != 0 {
		fail("%d deadlock cases", res.DeadlockCases)
	}
	if fc == experiments.PFC && prov.fluid != 0 {
		fail("%d repeats resolved on the fluid solver; PFC on a cyclic CBD must escalate", prov.fluid)
	}
	if want != nil {
		got := sweepOutcome{
			CBDProne: res.CBDProne, DeadlockCases: res.DeadlockCases, AnalyticChecked: res.AnalyticChecked,
			FluidRepeats: prov.fluid, PacketRepeats: prov.packet,
		}
		if got != *want {
			fail("outcome %+v differs from the recorded %+v", got, *want)
		}
	}
	return p
}

// sweepFailed is the failed-operation count of one scheme's sweep, whose
// operations are its cells: the quarantined cells, or every cell when the
// scheme's output check failed, since then no cell's result can be trusted.
func sweepFailed(cells, quarantined int, checked bool) int {
	if !checked {
		return cells
	}
	return quarantined
}

func slug(fc experiments.FC) string {
	return strings.ToLower(strings.ReplaceAll(string(fc), "-", ""))
}
