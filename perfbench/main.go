// Command perfbench is the repository's whole-run benchmark. It times the
// simulator end to end on three workloads (two fat-tree packet runs and an
// auto-backend Table 1 sweep) and, in a separate traced run, per layer.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload clos1024-gfcbuf --seed 1 --seconds 40 --trace 0
//
// run.py builds this package and runs it with the same flags. The process
// measures by starting one child process per iteration (so heap and GC
// state never carry over), repeating until --seconds have passed, and
// prints a table followed by one JSON line: the end-to-end metrics with
// --trace 0 (medians over the iterations, timings scaled to a reference
// host by a calibration timed in the same process), or the
// per-layer metrics with --trace 1.
// --workload all runs every workload in turn.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, as listed in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_ref_s", "s"},
	{"wall_ref_s", "s"},
	{"heap_peak_mb", "MiB"},
	{"ops_ok_frac", "ratio"},
}

// perLayer are the metrics of a traced run, as listed in BENCHMARK.json. A
// metric whose layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"topology.build_s", "s"},
		{"routing.spf_s", "s"},
		{"scenario.build_s", "s"},
		{"eventsim.events", "count"},
		{"eventsim.events_per_s", "1/s"},
		{"netsim.allocs_per_event", "count"},
		{"netsim.bytes_per_event", "B"},
		{"workload.flows_completed", "count"},
		{"experiments.allocs_per_repeat", "count"},
		{"experiments.bytes_per_repeat", "B"},
		{"experiments.sweep_s.pfc", "s"},
		{"experiments.sweep_s.gfcbuffer", "s"},
		{"experiments.sweep_s.gfctime", "s"},
		{"fluid.repeats", "count"},
		{"netsim.repeats", "count"},
		{"experiments.escalations", "count"},
	}
	for _, r := range escalationReasons {
		defs = append(defs, metricDef{"experiments.escalations." + r.name, "count"})
	}
	defs = append(defs,
		metricDef{"fluid.triage_useful_frac", "ratio"},
		metricDef{"runner.cells", "count"},
		metricDef{"runner.quarantined", "count"},
		metricDef{"runner.retried", "count"},
		metricDef{"runner.degraded", "count"},
		metricDef{"analytic.checked", "count"},
		metricDef{"runner.ckpt_bytes", "B"},
		metricDef{"runner.replay_s", "s"},
	)
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_frac", "ratio"})
	}
	return append(defs,
		metricDef{"other.cpu_frac", "ratio"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"ops_failed_frac", "ratio"},
	)
}()

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 40, "measuring time per workload")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and scratch files")
	child := fs.Bool("child", false, "run one iteration and print it as JSON (internal)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if *child {
		w, ok := workloads[*name]
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		it, err := runIteration(w, *name, *seed, *trace == 1, *out)
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(it)
	}

	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			return fmt.Errorf("unknown workload %q (have %v or all)", n, workloadNames())
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var reports []report
	for _, n := range names {
		its, err := measure(self, n, *seed, *seconds, *trace == 1, *out)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		r, err := summarise(n, its, *trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		r.print(stdout)
		reports = append(reports, r)
	}
	return json.NewEncoder(stdout).Encode(combine(reports))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measure runs child iterations of one workload until the measuring window
// is spent: untraced ones only, or untraced and traced ones alternately for
// the traced run (which needs both for the tracing overhead).
func measure(self, name string, seed int64, seconds float64, traced bool, out string) ([]*iteration, error) {
	start := time.Now()
	var its []*iteration
	for {
		tr := traced && len(its)%2 == 1
		it, err := spawn(self, name, seed, tr, out)
		if err != nil {
			return nil, err
		}
		its = append(its, it)
		minIters := 1
		if traced {
			minIters = 2
		}
		// Start another iteration only if one of average length still
		// ends inside the window.
		elapsed := time.Since(start).Seconds()
		if len(its) >= minIters && elapsed*float64(len(its)+1)/float64(len(its)) > seconds {
			return its, nil
		}
	}
}

// spawn runs one iteration in a fresh child process and decodes its result.
func spawn(self, name string, seed int64, traced bool, out string) (*iteration, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-child", "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-trace", trace, "-out", out)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("iteration: %w", err)
	}
	var it iteration
	if err := json.Unmarshal(stdout.Bytes(), &it); err != nil {
		return nil, fmt.Errorf("iteration output: %w", err)
	}
	return &it, nil
}

// runIteration measures one iteration of w in this process. A traced
// iteration also records spans (written to out), a CPU profile attributed
// per layer, and the workload's per-layer counts.
func runIteration(w workload, name string, seed int64, traced bool, out string) (*iteration, error) {
	tmp, err := os.MkdirTemp(out, "iter-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// An untraced iteration is calibrated before and after the workload
	// (see calibrate).
	var cal []float64
	if !traced {
		cal = calibrate()
	}
	var tr *tracer
	var prof bytes.Buffer
	if traced {
		tr = newTracer()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	heap := startHeapSampler(2 * time.Millisecond)
	it, err := w.run(context.Background(), seed, tr, tmp)
	peak := heap.Stop()
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	it.HeapPeakMB = float64(peak) / (1 << 20)
	if !traced {
		it.CalS = append(cal, calibrate()...)
		return it, nil
	}
	it.Traced = true
	if it.CPUNanos, err = cpuByLayer(prof.Bytes()); err != nil {
		return nil, err
	}
	it.Layer = tr.layer
	spans, err := json.Marshal(tr.spans)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d-%d.json", name, seed, os.Getpid()))
	return it, os.WriteFile(path, spans, 0o644)
}

// report is one workload's summary over its iterations.
type report struct {
	workload  string
	traced    bool
	runs      int
	correct   bool
	problems  []string
	attempted int
	failed    int
	metrics   []metricValue
	// calS is the median over an untraced run's iterations of their
	// median calibration round.
	calS float64
}

type metricValue struct {
	metricDef
	value float64
	// samples are the per-iteration values value was taken from, when
	// it is an end-to-end metric; for a reference-host timing, the
	// measured ones before scaling.
	samples []float64
}

// summarise folds a workload's iterations into one report. Untraced: the
// end-to-end metrics over every iteration, with timings scaled by each
// iteration's calibration. Traced: medians of the per-layer
// metrics over the traced iterations, CPU shares over all their profiles,
// and the tracing overhead as the median traced wall time over the median
// untraced one.
func summarise(name string, its []*iteration, traced bool) (report, error) {
	r := report{workload: name, traced: traced, runs: len(its)}
	var plain, withTrace []*iteration
	for _, it := range its {
		r.attempted += it.Attempted
		r.failed += it.Failed
		r.problems = append(r.problems, it.Problems...)
		if it.Traced {
			withTrace = append(withTrace, it)
		} else {
			plain = append(plain, it)
		}
	}
	r.correct = len(r.problems) == 0
	samples := func(set []*iteration, f func(*iteration) float64) []float64 {
		vs := make([]float64, len(set))
		for i, it := range set {
			vs[i] = f(it)
		}
		return vs
	}
	field := func(set []*iteration, f func(*iteration) float64) float64 {
		return median(samples(set, f))
	}
	failedFrac := failedFraction(r.failed, r.attempted)
	if !traced {
		// A timing is the median iteration's, each scaled to the
		// reference host by the calibration timed around it, the median
		// of its rounds.
		cal := samples(plain, func(it *iteration) float64 { return median(it.CalS) })
		r.calS = median(cal)
		ref := func(f func(*iteration) float64) float64 {
			vs := make([]float64, len(plain))
			for i, it := range plain {
				vs[i] = f(it) * calRefS / cal[i]
			}
			return median(vs)
		}
		for _, d := range endToEnd {
			m := metricValue{metricDef: d}
			switch d.name {
			case "setup_s":
				m.samples = samples(plain, func(it *iteration) float64 { return it.SetupS })
				m.value = ref(func(it *iteration) float64 { return it.SetupS })
			case "run_ref_s":
				m.samples = samples(plain, func(it *iteration) float64 { return it.RunS })
				m.value = ref(func(it *iteration) float64 { return it.RunS })
			case "wall_ref_s":
				m.samples = samples(plain, func(it *iteration) float64 { return it.WallS })
				m.value = ref(func(it *iteration) float64 { return it.WallS })
			case "heap_peak_mb":
				m.samples = samples(plain, func(it *iteration) float64 { return it.HeapPeakMB })
				m.value = median(m.samples)
			case "ops_ok_frac":
				m.value = 1 - failedFrac
			}
			r.metrics = append(r.metrics, m)
		}
		return r, nil
	}
	profiles := make([]map[string]int64, len(withTrace))
	for i, it := range withTrace {
		profiles[i] = it.CPUNanos
	}
	shares, err := cpuShares(profiles)
	if err != nil {
		return report{}, err
	}
	for _, d := range perLayer {
		var v float64
		switch layer, isCPU := strings.CutSuffix(d.name, ".cpu_frac"); {
		case isCPU:
			v = shares[layer]
		case d.name == "runtime.gc_cpu_frac":
			v = shares["runtime.gc"]
		case d.name == "trace.overhead_frac":
			v = field(withTrace, func(it *iteration) float64 { return it.WallS })/
				field(plain, func(it *iteration) float64 { return it.WallS }) - 1
		case d.name == "ops_failed_frac":
			v = failedFrac
		default:
			v = field(withTrace, func(it *iteration) float64 { return it.Layer[d.name] })
		}
		r.metrics = append(r.metrics, metricValue{metricDef: d, value: v})
	}
	return r, nil
}

// failedFraction is failed operations over attempted ones. A run that
// attempted nothing counts as wholly failed, so a broken workload cannot
// read as a clean one.
func failedFraction(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// median of vs; NaN for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (r report) print(w io.Writer) {
	mode := "trace off"
	if r.traced {
		mode = "traced and untraced alternating"
	}
	fmt.Fprintf(w, "%s: %d iterations (%s), %d/%d operations failed, output check %s\n",
		r.workload, r.runs, mode, r.failed, r.attempted, passFail(r.correct))
	for _, p := range r.problems {
		fmt.Fprintf(w, "  check failed: %s\n", p)
	}
	if !r.traced {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", "ops_failed_frac", failedFraction(r.failed, r.attempted), "ratio")
		fmt.Fprintf(w, "  %-32s %14.6g s  (reference host %.6g s)\n", "calibration round", r.calS, calRefS)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-32s %14.6g %s", m.name, m.value, m.unit)
		if len(m.samples) > 0 {
			fmt.Fprintf(w, "  (measured min %.6g, median %.6g, max %.6g over %d)",
				slices.Min(m.samples), median(m.samples), slices.Max(m.samples), len(m.samples))
		}
		fmt.Fprintln(w)
	}
}

func passFail(ok bool) string {
	if ok {
		return "passed"
	}
	return "FAILED"
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// combine builds the final JSON line. With one workload the metrics keep
// their names; with several they are prefixed "<workload>/".
func combine(reports []report) result {
	res := result{Correct: true, Metrics: map[string]metricJSON{}}
	for _, r := range reports {
		res.Correct = res.Correct && r.correct
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, m := range r.metrics {
			key := m.name
			if len(reports) > 1 {
				key = r.workload + "/" + key
			}
			res.Metrics[key] = metricJSON{Value: m.value, Unit: m.unit}
		}
	}
	return res
}
