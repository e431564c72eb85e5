package scenario

import (
	"github.com/gfcsim/gfc/internal/analytic"
	"github.com/gfcsim/gfc/internal/cbd"
	"github.com/gfcsim/gfc/internal/workload"
)

// AnalyticCheck is the network-wide analytic verdict attached to a Result
// when Run.Analytic is set.
type AnalyticCheck struct {
	// Prediction is the per-topology analytic prediction the run was
	// checked against (nil when the scenario could not be analysed).
	Prediction *analytic.Prediction
	// Err is nil when every asserted bound held. Otherwise it is either
	// the *metrics.InvariantError listing the violated network-wide
	// bounds, or the analysis error when the prediction itself failed.
	Err error
}

// Predict computes the analytic prediction for this built scenario
// (internal/analytic, DESIGN.md §3.8). The cyclic-buffer-dependency verdict
// comes from Overrides.CBDCyclic when supplied (sweeps precompute it per
// topology); otherwise it is derived once from the built workload — declared
// flow paths, plus the all-inter-rack-pairs union when a generator is
// attached — and cached on the Sim.
func (s *Sim) Predict() (*analytic.Prediction, error) {
	known, cyclic := s.cbdVerdict()
	return analytic.Predict(analytic.Input{
		Topo:   s.Topo,
		Scheme: analytic.Scheme(s.Spec.Scheme.FC),
		Cfg:    s.cfg,
		Params: analytic.Params{
			XOFF:   s.fp.XOFF,
			XON:    s.fp.XON,
			B1:     s.fp.B1,
			Bm:     s.fp.Bm,
			B0:     s.fp.B0,
			Period: s.fp.Period,
		},
		CBDKnown:  known,
		CBDCyclic: cyclic,
		Faulted:   s.Injector != nil,
		Duration:  s.Spec.Run.DurationNs,
	})
}

// cbdVerdict resolves (and caches) the dependency-graph verdict.
func (s *Sim) cbdVerdict() (known, cyclic bool) {
	if s.cbdCyclic != nil {
		return true, *s.cbdCyclic
	}
	if len(s.Flows) == 0 && s.Gen == nil {
		return false, false // nothing to derive from: treated as cyclic
	}
	if s.Gen != nil && s.Table == nil {
		return false, false
	}
	g := cbd.NewGraph(s.Topo)
	for _, f := range s.Flows {
		g.AddPath(f.Path)
	}
	if s.Gen != nil {
		// A generator can start a flow between any inter-rack host pair,
		// so fold in the union of all such paths — the conservative
		// superset of what the run may route.
		union := cbd.FromAllPairs(s.Topo, s.Table, workload.EdgeRacks(s.Topo))
		c := g.HasCycle() || union.HasCycle()
		s.cbdCyclic = &c
		return true, c
	}
	c := g.HasCycle()
	s.cbdCyclic = &c
	return true, c
}

// analyticCheck checks res against this scenario's analytic prediction. The
// verdict is nil when every network-wide bound held, a
// *metrics.InvariantError otherwise. A governed run that was stopped early
// (res.Stopped != nil) drops the progress floor — the horizon the floor
// reasons about was never reached.
func (s *Sim) analyticCheck(res *Result) *AnalyticCheck {
	pred, err := s.Predict()
	if err != nil {
		return &AnalyticCheck{Err: err}
	}
	b := pred.Bounds()
	if res.Stopped != nil {
		b.MinDelivered = 0
	}
	if ierr := s.Metrics.CheckNetwork(b, res.End, res.Delivered, res.Deadlocked); ierr != nil {
		return &AnalyticCheck{Prediction: pred, Err: ierr}
	}
	return &AnalyticCheck{Prediction: pred}
}
