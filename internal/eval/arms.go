package eval

import (
	"fmt"
	"math"
	"math/rand"

	"gpsdl/internal/clock"
	"gpsdl/internal/core"
	"gpsdl/internal/scenario"
)

// ArmSpec is one algorithm configuration in a multi-arm comparison (the
// ablation studies A1-A4). Each arm owns its solver; if Predictor is
// non-nil, the runner feeds it the NR-derived clock fixes every epoch, the
// same protocol the main sweep uses.
type ArmSpec struct {
	Name      string
	Solver    core.Solver
	Predictor clock.Predictor
}

// ArmStats aggregates one arm's performance.
type ArmStats struct {
	Name      string
	MeanError float64
	RMSError  float64
	// MedianError and P95Error are streaming CEP50/CEP95 estimates.
	MedianError float64
	P95Error    float64
	MaxError    float64
	MeanNanos   float64
	MedianNanos float64 // P² median per-epoch solve time
	Fixes       int
	Failures    int
	// MeanIterations is the average solver iteration count (1 for direct
	// methods; interesting for NR arms).
	MeanIterations float64
	// Errors is the per-epoch error series (NaN = failed solve), present
	// only when ArmOptions.CollectErrors is set.
	Errors []float64
}

// ArmOptions configures a RunArms comparison.
type ArmOptions struct {
	// M is the number of satellites per epoch (required, >= 4).
	M int
	// MaxEpochs caps processed epochs (0 = all after calibration).
	MaxEpochs int
	// InitEpochs is the clock-calibration window (0 = 60).
	InitEpochs int
	// Selection picks the m satellites (zero value = SelectStratified).
	Selection SelectionMode
	// Seed drives random selection.
	Seed int64
	// TimingReps amortizes timer overhead (0 = 4).
	TimingReps int
	// MaxGDOP screens out bad-geometry epochs (0 = 20; negative disables).
	MaxGDOP float64
	// CollectErrors retains each arm's per-epoch error series in
	// ArmStats.Errors (NaN for failed solves), aligned across arms so
	// paired statistics (BootstrapRatioCI) can be computed.
	CollectErrors bool
}

// RunArms runs each arm over the dataset under identical per-epoch
// satellite selections and returns per-arm statistics. An internal NR
// solver supplies the clock fixes that calibrate and maintain every arm's
// predictor (Section 5.2.2 protocol).
func RunArms(ds *scenario.Dataset, specs []ArmSpec, opt ArmOptions) ([]ArmStats, error) {
	if ds == nil {
		return nil, fmt.Errorf("eval: RunArms dataset is nil")
	}
	if opt.M < 4 {
		return nil, fmt.Errorf("eval: RunArms needs M >= 4, got %d", opt.M)
	}
	initEpochs := opt.InitEpochs
	if initEpochs <= 0 {
		initEpochs = 60
	}
	reps := opt.TimingReps
	if reps <= 0 {
		reps = 4
	}
	sel := opt.Selection
	if sel == 0 {
		sel = SelectStratified
	}
	maxGDOP := opt.MaxGDOP
	if maxGDOP == 0 {
		maxGDOP = 20
	}
	var nr core.NRSolver
	truth := ds.Station.Pos
	rng := rand.New(rand.NewSource(opt.Seed ^ int64(opt.M)))
	// feed reports whether the epoch's NR fix was plausible and fed.
	feed := func(t float64, obs []core.Observation) bool {
		sol, err := nr.Solve(t, obs)
		if err != nil || !plausibleFix(sol) {
			return false
		}
		fix := clock.Fix{T: t, Bias: sol.ClockBias / speedOfLight}
		for _, spec := range specs {
			if spec.Predictor != nil {
				spec.Predictor.Observe(fix)
			}
		}
		return true
	}

	// Calibration pass: like Sweep, it counts only plausible NR fixes.
	calibrated := 0
	for i := 0; i < len(ds.Epochs) && calibrated < initEpochs; i++ {
		obs := selectObs(ds.Epochs[i].Obs, opt.M, sel, rng, truth)
		if obs == nil {
			continue
		}
		if feed(ds.Epochs[i].T, obs) {
			calibrated++
		}
	}

	stats := make([]ArmStats, len(specs))
	sumIter := make([]float64, len(specs))
	sumSq := make([]float64, len(specs))
	quants := newArmQuantiles(len(specs))
	for i, spec := range specs {
		stats[i].Name = spec.Name
	}
	indices := sampleIndices(len(ds.Epochs), initEpochs, opt.MaxEpochs)
	obsBuf := make([]core.Observation, 0, 16)
	for _, idx := range indices {
		e := &ds.Epochs[idx]
		obs := selectObsInto(obsBuf, e.Obs, opt.M, sel, rng, truth)
		if obs == nil {
			continue
		}
		if maxGDOP > 0 && !geometryOK(truth, obs, maxGDOP) {
			continue
		}
		feed(e.T, obs)
		for i, spec := range specs {
			sol, nanos, err := timedSolve(spec.Solver, e.T, obs, reps)
			if err != nil || !plausibleFix(sol) {
				stats[i].Failures++
				if opt.CollectErrors {
					stats[i].Errors = append(stats[i].Errors, math.NaN())
				}
				continue
			}
			d := AbsoluteError(sol, truth)
			s := &stats[i]
			if opt.CollectErrors {
				s.Errors = append(s.Errors, d)
			}
			n := float64(s.Fixes)
			s.MeanError = (s.MeanError*n + d) / (n + 1)
			s.MeanNanos = (s.MeanNanos*n + nanos) / (n + 1)
			if d > s.MaxError {
				s.MaxError = d
			}
			sumSq[i] += d * d
			sumIter[i] += float64(sol.Iterations)
			quants[i].add(d, nanos)
			s.Fixes++
		}
	}
	for i := range stats {
		if stats[i].Fixes > 0 {
			stats[i].RMSError = sqrtNonNeg(sumSq[i] / float64(stats[i].Fixes))
			stats[i].MeanIterations = sumIter[i] / float64(stats[i].Fixes)
			stats[i].MedianError = quants[i].median.Value()
			stats[i].P95Error = quants[i].p95.Value()
			stats[i].MedianNanos = quants[i].nanos.Value()
		}
	}
	return stats, nil
}

func sqrtNonNeg(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
