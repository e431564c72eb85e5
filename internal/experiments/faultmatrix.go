package experiments

import (
	"context"
	"fmt"

	"github.com/gfcsim/gfc/internal/deadlock"
	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/runner"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/units"
)

// CleanScenario is the fault-matrix column with no injected faults.
const CleanScenario = "clean"

// FaultScenarios lists the canonical matrix columns: a clean baseline plus
// every built-in fault preset.
func FaultScenarios() []string {
	return append([]string{CleanScenario}, faults.PresetNames()...)
}

// MatrixSchemes lists the default fault-matrix rows: the paper's four
// schemes plus BFC, the per-flow-queue challenger raced against them.
func MatrixSchemes() []FC {
	return append(AllFCs(), BFC)
}

// FaultCell is one (scheme, scenario) cell of the fault matrix: the §6.1
// ring run under an injected fault scenario, with the deadlock verdict,
// invariant outcome and progress measures the robustness comparison needs.
type FaultCell struct {
	FC       FC
	Scenario string

	Deadlocked   bool
	DeadlockAt   units.Time
	DeadlockKind deadlock.Kind
	// DCFITDeadlocked / DCFITAt report the in-data-plane detector, which
	// runs alongside the global one in every cell. It only sees pause
	// edges, so it stays silent for CBFC/GFC by design. A wedge is not
	// itself a cycle, but when its backpressure cascades class pauses all
	// the way around the ring (PFC under resume-loss) the edges do close
	// and DCFIT convicts; BFC's queue-scoped wedge never closes one, so
	// that cell stays silent — the disagreements are the comparison.
	DCFITDeadlocked bool
	DCFITAt         units.Time
	Drops           int64
	Violations      int64

	// FaultsInjected counts actuated timeline events plus feedback
	// perturbations; FeedbackDropped/Delayed break out the message-level
	// share.
	FaultsInjected  int64
	FeedbackDropped int64
	FeedbackDelayed int64

	// Delivered is the total goodput; MinFlow the worst-served flow's
	// share. A positive MinFlow means every port kept progressing.
	Delivered  units.Size
	MinFlow    units.Size
	SteadyRate units.Rate

	// Retries counts transient failures absorbed before this cell's run
	// completed (0 for a clean first attempt). Not a printed column:
	// FaultMatrixRows' output is golden-pinned.
	Retries int
}

// FaultMatrixConfig parameterises RunFaultMatrix.
type FaultMatrixConfig struct {
	Schemes   []FC       // default AllFCs()
	Scenarios []string   // default FaultScenarios()
	Duration  units.Time // default 60 ms
	// HostsPerSwitch defaults to 1: the critically loaded ring where every
	// scheme is clean without faults, so any deadlock in a faulted column
	// is attributable to the injected scenario.
	HostsPerSwitch int
	// Seed seeds each cell's injector (per-cell injectors keep cells
	// independent and individually replayable). Default 1.
	Seed int64
	// Refresh is applied to buffer-based GFC in every faulted cell (loss
	// repair; see GFCBufferConfig.Refresh). The clean column always runs
	// with Refresh 0 so it matches the golden fig9 traces. Default τ
	// (90 µs), bounding feedback staleness at roughly one reaction budget.
	Refresh units.Time
	// Ctx and Budget govern each cell's run (see RingConfig): a nil Ctx
	// means context.Background() and a zero Budget imposes no bounds.
	Ctx    context.Context
	Budget netsim.Budget
	// Retry is the transient-failure retry policy applied per cell under
	// the sweep classification (wall/heap trips retry with seed-derived
	// backoff; deterministic failures and deadlock verdicts do not). The
	// zero value disables retrying.
	Retry runner.Retry
}

// RunFaultMatrix runs the scheme × scenario robustness matrix on the fig9
// ring. The headline contrast: "resume-loss" permanently pauses a hop the
// moment one RESUME frame is lost, so PFC — and BFC, whose per-queue
// QRESUME is just as losable — wedge shut (the detector fires) while both
// GFC variants, whose rates never reach zero, keep every flow progressing
// under every scenario with no losses and no invariant violations. Every
// cell also runs the in-data-plane DCFIT detector alongside the global one;
// its columns expose what delivery-time pause tracking can and cannot see.
func RunFaultMatrix(cfg FaultMatrixConfig) ([]FaultCell, error) {
	if cfg.Schemes == nil {
		cfg.Schemes = MatrixSchemes()
	}
	if cfg.Scenarios == nil {
		cfg.Scenarios = FaultScenarios()
	}
	if cfg.Duration == 0 {
		cfg.Duration = 60 * units.Millisecond
	}
	if cfg.HostsPerSwitch == 0 {
		cfg.HostsPerSwitch = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Refresh == 0 {
		cfg.Refresh = 90 * units.Microsecond
	}
	topo := RingTopology(cfg.HostsPerSwitch)

	var cells []FaultCell
	for _, scenario := range cfg.Scenarios {
		var plan *faults.Plan
		if scenario != CleanScenario {
			spec, err := faults.Preset(scenario)
			if err != nil {
				return nil, err
			}
			plan, err = spec.Compile(topo)
			if err != nil {
				return nil, fmt.Errorf("experiments: compiling %q: %w", scenario, err)
			}
		}
		for si, fc := range cfg.Schemes {
			ctx := cfg.Ctx
			if ctx == nil {
				ctx = context.Background()
			}
			// Each attempt rebuilds its registry and simulation from
			// scratch, so a retried cell is bit-identical to a clean
			// first run; the backoff seed is the cell's position, making
			// retry sequencing reproducible across runs.
			var reg *metrics.Registry
			cellSeed := cfg.Seed*1000 + int64(len(cells))*10 + int64(si)
			res, prov, err := runner.Supervise(ctx, cellSeed, cfg.Retry, ClassifyCellFailure,
				func(ctx context.Context) (*RingResult, error) {
					reg = metrics.New(metrics.Options{})
					ring := RingConfig{
						FC:             fc,
						Duration:       cfg.Duration,
						HostsPerSwitch: cfg.HostsPerSwitch,
						Metrics:        reg,
						Faults:         plan,
						FaultSeed:      cfg.Seed,
						// Both detectors report in every cell; the global
						// verdict is the row's, DCFIT's fills its own columns.
						Detector: "both",
						Ctx:      ctx,
						Budget:   cfg.Budget,
					}
					if fc == GFCBuf && plan != nil {
						ring.Refresh = cfg.Refresh
					}
					return RunRing(ring)
				})
			if err != nil {
				return nil, fmt.Errorf("experiments: %s under %q: %w", fc, scenario, err)
			}
			cell := FaultCell{
				FC: fc, Scenario: scenario,
				Deadlocked: res.Deadlocked, DeadlockAt: res.DeadlockAt,
				DeadlockKind:    res.DeadlockKind,
				DCFITDeadlocked: res.DCFITDeadlocked,
				DCFITAt:         res.DCFITAt,
				Drops:           res.Drops,
				Violations:      reg.Summary().Violations,
				Delivered:       res.Delivered, MinFlow: res.MinFlow,
				SteadyRate: res.SteadyRate,
			}
			cell.FaultsInjected = reg.FaultsInjected()
			cell.FeedbackDropped = res.FaultStats.FeedbackDropped
			cell.FeedbackDelayed = res.FaultStats.FeedbackDelayed
			if prov != nil {
				cell.Retries = len(prov.Retries)
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// FaultMatrixRows renders the matrix as a printable table, one row per
// (scheme, scenario) cell.
func FaultMatrixRows(cells []FaultCell) *stats.Table {
	t := &stats.Table{Header: []string{
		"Scheme", "Scenario", "Deadlock", "DCFIT", "Drops", "Violations",
		"Faults", "Min flow", "Steady rate",
	}}
	for _, c := range cells {
		verdict := "no"
		if c.Deadlocked {
			verdict = fmt.Sprintf("%v at %v", c.DeadlockKind, c.DeadlockAt)
		}
		dcfit := "silent"
		if c.DCFITDeadlocked {
			dcfit = fmt.Sprintf("at %v", c.DCFITAt)
		}
		t.AddRow(string(c.FC), c.Scenario, verdict, dcfit,
			fmt.Sprintf("%d", c.Drops),
			fmt.Sprintf("%d", c.Violations),
			fmt.Sprintf("%d", c.FaultsInjected),
			c.MinFlow.String(),
			c.SteadyRate.String())
	}
	return t
}
