package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/experiments"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/units"
)

func TestAttribute(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"github.com/gfcsim/gfc/internal/netsim.(*Network).deliver", "main.main"}, "netsim"},
		// Standard-library frames roll up into their repo caller.
		{[]string{"encoding/json.Marshal", "hash/crc32.ChecksumIEEE", "github.com/gfcsim/gfc/internal/runner.(*Store).Record"}, "runner"},
		{[]string{"runtime.mallocgc", "github.com/gfcsim/gfc/internal/eventsim.(*Engine).Schedule", "github.com/gfcsim/gfc/internal/netsim.(*Network).Run"}, "eventsim"},
		// Generic instantiations and closures keep their package.
		{[]string{"github.com/gfcsim/gfc/internal/runner.RunWith[...].func1"}, "runner"},
		{[]string{"github.com/gfcsim/gfc/internal/experiments.RunSweep.func2.1"}, "experiments"},
		// Internal packages without their own metric count as other.
		{[]string{"github.com/gfcsim/gfc/internal/viz.Render"}, "other"},
		// No repo frame: the GC, the scheduler, the benchmark itself.
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime.gc"},
		{[]string{"main.(*heapSampler).read", "runtime/metrics.Read"}, "runtime.gc"},
		{nil, "runtime.gc"},
		// Only this module's internal packages count.
		{[]string{"github.com/gfcsim/gfc/perfbench.helper", "github.com/other/internal/netsim.X"}, "runtime.gc"},
	}
	for _, c := range cases {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestCPUSharesSumToOne(t *testing.T) {
	shares, err := cpuShares([]map[string]int64{
		{"netsim": 600, "eventsim": 200, "runtime.gc": 100},
		{"netsim": 60, "fluid": 30, "other": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if got, want := shares["netsim"], 660.0/1000; got != want {
		t.Errorf("netsim share %v, want %v", got, want)
	}
	for _, l := range append(cpuLayers, "other", "runtime.gc") {
		if _, ok := shares[l]; !ok {
			t.Errorf("layer %q missing from the shares", l)
		}
	}
	if _, err := cpuShares([]map[string]int64{{}}); err == nil {
		t.Error("an empty profile gave shares instead of an error")
	}
}

func TestFailedFraction(t *testing.T) {
	cases := []struct {
		failed, attempted int
		want              float64
	}{
		{0, 10, 0},
		{1, 4, 0.25},
		{3, 3, 1},
		// Nothing attempted is a broken workload, never a clean one.
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := failedFraction(c.failed, c.attempted); got != c.want {
			t.Errorf("failedFraction(%d, %d) = %v, want %v", c.failed, c.attempted, got, c.want)
		}
	}
	if got := packetFailed(nil); got != 0 {
		t.Errorf("packetFailed(nil) = %d, want 0", got)
	}
	if got := packetFailed([]string{"drops"}); got != 1 {
		t.Errorf("packetFailed(one problem) = %d, want 1", got)
	}
	if got := sweepFailed(100, 2, true); got != 2 {
		t.Errorf("sweepFailed(checked) = %d, want the 2 quarantined cells", got)
	}
	if got := sweepFailed(100, 2, false); got != 100 {
		t.Errorf("sweepFailed(check failed) = %d, want all 100 cells", got)
	}
}

func TestSummariseOpsFailedFrac(t *testing.T) {
	its := []*iteration{
		{SetupS: 1, RunS: 4, WallS: 5, HeapPeakMB: 10, Attempted: 3, Failed: 0, CalS: []float64{2 * calRefS}},
		{SetupS: 3, RunS: 2, WallS: 5, HeapPeakMB: 30, Attempted: 3, Failed: 1, Problems: []string{"x"}, CalS: []float64{2 * calRefS}},
		{SetupS: 2, RunS: 3, WallS: 6, HeapPeakMB: 20, Attempted: 2, Failed: 1, Problems: []string{"y"}, CalS: []float64{9 * calRefS, calRefS, 5 * calRefS}},
	}
	r, err := summarise("w", its, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.correct || r.attempted != 8 || r.failed != 2 {
		t.Fatalf("report correct=%v attempted=%d failed=%d, want false/8/2", r.correct, r.attempted, r.failed)
	}
	// Every metric takes the median iteration. Each iteration's median
	// calibration round is twice the reference host's or more, so its
	// timings scale to half or less: set-up 0.5, 1.5 and 0.4, run 2, 1 and
	// 0.6, wall 2.5, 2.5 and 1.2.
	want := map[string]float64{"setup_s": 0.5, "run_ref_s": 1, "wall_ref_s": 2.5, "heap_peak_mb": 20, "ops_ok_frac": 0.75}
	for _, m := range r.metrics {
		if m.value != want[m.name] {
			t.Errorf("%s = %v, want %v", m.name, m.value, want[m.name])
		}
	}
}

func TestCalibrate(t *testing.T) {
	rounds := calibrate()
	if len(rounds) != calRounds {
		t.Fatalf("%d calibration rounds, want %d", len(rounds), calRounds)
	}
	for _, r := range rounds {
		if r <= 0 || r > 100*calRefS {
			t.Errorf("calibration round took %v s, reference host %v s", r, calRefS)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// TestBenchmarkJSON pins the metric and workload lists of BENCHMARK.json to
// what the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark has %s", got, want)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark prints %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), benchmark prints %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestPrebuiltTopologyMatchesBuild checks that building the fabric and its
// routes outside scenario.Build, as the packet workloads do to time each
// layer, simulates exactly what the registered spec does on its own.
func TestPrebuiltTopologyMatchesBuild(t *testing.T) {
	w := workloads["clos1024-gfcbuf"].(packetWorkload)
	w.horizon = 10 * units.Microsecond
	w.want = nil
	tr := newTracer()
	it, err := w.run(context.Background(), 3, tr, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := scenario.Get(w.scenario)
	spec.Seed = 3
	spec.Run.DurationNs = w.horizon
	sim, err := scenario.Build(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunBounded(context.Background(), netsim.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.layer["eventsim.events"], float64(sim.Net.Engine().Fired()); got != want {
		t.Errorf("prebuilt run fired %v events, spec-built run %v", got, want)
	}
	if got, want := tr.layer["workload.flows_completed"], float64(len(sim.Gen.Completed)); got != want {
		t.Errorf("prebuilt run completed %v flows, spec-built run %v", got, want)
	}
	if len(it.Problems) != 0 || res.Drops != 0 {
		t.Errorf("problems %v, drops %d", it.Problems, res.Drops)
	}
}

// TestProfileAttributesSimulation decodes a real CPU profile of a short
// packet run and checks that the simulation core gets the time.
func TestProfileAttributesSimulation(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation dominates the profile")
	}
	w := workloads["clos1024-gfcbuf"].(packetWorkload)
	w.horizon, w.want = 100*units.Microsecond, nil
	it, err := runIteration(w, "clos1024-gfcbuf", 1, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range it.CPUNanos {
		total += ns
	}
	if total == 0 {
		t.Fatal("profile holds no samples")
	}
	if sim := it.CPUNanos["netsim"] + it.CPUNanos["eventsim"]; float64(sim) < 0.3*float64(total) {
		t.Errorf("netsim+eventsim got %d of %d profiled ns; want most of a packet run", sim, total)
	}
	if it.CPUNanos["fluid"] != 0 {
		t.Errorf("fluid got %d ns in a packet run", it.CPUNanos["fluid"])
	}
}

// tinyWorkloads are the benchmark's workloads shrunk to a smoke-test size.
// Their recorded outcomes do not apply at these sizes.
func tinyWorkloads() map[string]workload {
	c1024 := workloads["clos1024-gfcbuf"].(packetWorkload)
	c1024.horizon, c1024.want = 20*units.Microsecond, nil
	c3456 := workloads["clos3456-gfctime"].(packetWorkload)
	c3456.horizon, c3456.want = 10*units.Microsecond, nil
	sweep := workloads["table1-k4-auto"].(sweepWorkload)
	sweep.cells, sweep.duration, sweep.want = 1, 2*units.Millisecond, nil
	return map[string]workload{
		"clos1024-gfcbuf": c1024, "clos3456-gfctime": c3456, "table1-k4-auto": sweep,
	}
}

// TestWorkloadSmoke runs every workload path, traced and untraced, at a tiny
// size and checks that each layer it drives reports non-zero work.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a k=24 fat-tree")
	}
	nonZero := map[string][]string{
		"clos1024-gfcbuf":  {"topology.build_s", "routing.spf_s", "scenario.build_s", "eventsim.events", "eventsim.events_per_s", "netsim.bytes_per_event", "workload.flows_completed"},
		"clos3456-gfctime": {"topology.build_s", "routing.spf_s", "scenario.build_s", "eventsim.events", "eventsim.events_per_s", "netsim.bytes_per_event", "workload.flows_completed"},
		"table1-k4-auto": {"runner.cells", "analytic.checked", "fluid.repeats", "netsim.repeats", "experiments.escalations",
			"experiments.escalations.cyclic", "fluid.triage_useful_frac", "runner.ckpt_bytes", "runner.replay_s", "experiments.allocs_per_repeat"},
	}
	for name, w := range tinyWorkloads() {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				it, err := runIteration(w, name, 7, traced, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if len(it.Problems) != 0 || it.Failed != 0 || it.Attempted < 1 {
					t.Fatalf("traced=%v: %d/%d failed: %v", traced, it.Failed, it.Attempted, it.Problems)
				}
				if it.SetupS <= 0 || it.RunS <= 0 || it.WallS < it.SetupS+it.RunS || it.HeapPeakMB <= 0 {
					t.Errorf("traced=%v: implausible timings %+v", traced, it)
				}
				if traced == (len(it.CalS) == 2*calRounds) {
					t.Errorf("traced=%v: %d calibration rounds", traced, len(it.CalS))
				}
				if it.Traced != traced {
					t.Errorf("iteration traced=%v, want %v", it.Traced, traced)
				}
				if !traced {
					continue
				}
				for _, m := range nonZero[name] {
					if it.Layer[m] <= 0 {
						t.Errorf("per-layer %s = %v, want > 0", m, it.Layer[m])
					}
				}
			}
		})
	}
}

// TestOutputCheckCatchesDrift runs a tiny packet workload against a wrong
// recorded outcome and checks a sweep outcome against a wrong record: both
// must fail their operations rather than pass silently.
func TestOutputCheckCatchesDrift(t *testing.T) {
	w := tinyWorkloads()["clos1024-gfcbuf"].(packetWorkload)
	w.want = &packetOutcome{Delivered: 1, FlowsCompleted: 1}
	it, err := w.run(context.Background(), defaultSeed, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if it.Failed != 1 || len(it.Problems) != 1 {
		t.Errorf("wrong recorded outcome: failed %d, problems %v", it.Failed, it.Problems)
	}
	// On another seed only the seed-independent checks apply.
	if it, err = w.run(context.Background(), defaultSeed+1, nil, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if it.Failed != 0 {
		t.Errorf("seed %d compared against the default seed's record: %v", defaultSeed+1, it.Problems)
	}

	cfg := experiments.DefaultSweep(4)
	res := &experiments.SweepResult{FC: experiments.GFCBuf, CBDProne: 2, AnalyticChecked: 4, DeadlockCases: 1,
		Failures: []experiments.CellFailure{{Job: 3, Err: "stall"}}}
	prov := &provenance{fluid: 1, packet: 3}
	problems := checkSweep(experiments.GFCBuf, cfg, res, prov, 2, &sweepOutcome{CBDProne: 2, AnalyticChecked: 4, PacketRepeats: 4})
	for _, want := range []string{"quarantined", "deadlock cases", "differs from the recorded"} {
		found := false
		for _, p := range problems {
			found = found || strings.Contains(p, want)
		}
		if !found {
			t.Errorf("no %q problem in %q", want, problems)
		}
	}
}
