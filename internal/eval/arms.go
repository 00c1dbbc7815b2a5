package eval

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"gpsdl/internal/clock"
	"gpsdl/internal/core"
	"gpsdl/internal/geo"
	"gpsdl/internal/scenario"
)

// The measurement protocol's fixed constants.
const (
	// initEpochs is the clock-calibration window: the paper derives the
	// predictor's D and r from NR solutions over an initial data span
	// (Section 5.2.2), here the first 60 plausible NR fixes.
	initEpochs = 60
	// timingReps repeats each timed solve to amortize timer overhead
	// (sub-microsecond solves vs ~30 ns timer reads).
	timingReps = 4
	// maxGDOP screens out epochs whose selected-subset geometry exceeds
	// this GDOP, identically for every arm (real receivers reject such
	// fixes): with few satellites, occasional near-degenerate geometries
	// would otherwise dominate every algorithm's mean error.
	maxGDOP = 20
)

// Options configures RunArms, PaperRow and Sweep.
type Options struct {
	// M is the number of satellites per epoch (>= 4). Sweep sets it per
	// row.
	M int
	// MaxEpochs caps the measured epochs (0 = all after calibration).
	// Epochs are subsampled evenly, not truncated.
	MaxEpochs int
	// Selection picks the m satellites; the zero value means
	// SelectStratified.
	Selection SelectionMode
	// Seed drives random satellite selection.
	Seed int64
}

// ArmSpec is one algorithm configuration in a multi-arm comparison. Each
// arm owns its solver; if Predictor is non-nil, the runner feeds it the
// NR-derived clock fixes every epoch (Section 5.2.2 protocol). Arms may
// share a predictor: each distinct predictor is fed once per epoch.
type ArmSpec struct {
	Name      string
	Solver    core.Solver
	Predictor clock.Predictor
}

// ArmStats aggregates one arm's performance.
type ArmStats struct {
	Name      string
	MeanError float64 // meters
	RMSError  float64
	// MedianError and P95Error are the exact nearest-rank CEP50/CEP95.
	MedianError float64
	P95Error    float64
	MaxError    float64
	MeanNanos   float64
	MedianNanos float64 // nearest-rank median per-epoch solve time
	Fixes       int
	Failures    int
	// MeanIterations is the average solver iteration count (1 for direct
	// methods; interesting for NR arms).
	MeanIterations float64
	// Errors is the per-epoch error series (NaN = failed solve), aligned
	// across arms so paired statistics (BootstrapRatioCI) can be
	// computed.
	Errors []float64
}

// Census counts the measurement epochs a run considered: every sampled
// epoch lands in exactly one of its fields.
type Census struct {
	// Epochs counts the epochs every arm solved.
	Epochs int
	// SkippedDOP counts epochs excluded by the GDOP screen.
	SkippedDOP int
	// SkippedSats counts epochs dropped because fewer than m satellites
	// were in view. Without it the availability denominator would shrink
	// silently: a receiver that sees m satellites only 10% of the time
	// would report the same availability as one that sees them always.
	SkippedSats int
}

// Candidates returns how many measurement epochs were considered —
// solved, geometry-screened, or short of satellites. It is the
// denominator every availability figure must use.
func (c Census) Candidates() int { return c.Epochs + c.SkippedDOP + c.SkippedSats }

// Availability returns the percentage of candidate epochs for which the
// arm produced an accepted fix. Epochs without m satellites in view and
// epochs rejected by the GDOP screen count against availability, exactly
// as they would for a real receiver.
func (c Census) Availability(a ArmStats) float64 {
	n := c.Candidates()
	if n == 0 {
		return 0
	}
	return 100 * float64(a.Fixes) / float64(n)
}

// RunArms runs each arm over the dataset under identical per-epoch
// satellite selections and returns per-arm statistics and the epoch
// census. An internal NR solver supplies the clock fixes that calibrate
// and maintain every arm's predictor (Section 5.2.2 protocol).
//
// Every arm's fix passes the same plausibility check real receivers
// apply (RAIM-style): a solution far from the Earth's surface is a
// divergence and counts as a failure, not as an error sample. NR with 4
// poorly-placed satellites occasionally converges to a spurious root;
// without the gate a handful of 100 km outliers dominate a day's mean
// error.
func RunArms(ds *scenario.Dataset, specs []ArmSpec, opt Options) ([]ArmStats, Census, error) {
	var census Census
	if ds == nil {
		return nil, census, fmt.Errorf("eval: RunArms dataset is nil")
	}
	if opt.M < 4 {
		return nil, census, fmt.Errorf("eval: RunArms needs M >= 4, got %d", opt.M)
	}
	sel := opt.Selection
	if sel == 0 {
		sel = SelectStratified
	}
	var preds []clock.Predictor
	for _, spec := range specs {
		if spec.Predictor != nil && !slices.Contains(preds, spec.Predictor) {
			preds = append(preds, spec.Predictor)
		}
	}
	nr := core.NRSolver{Scratch: &core.Scratch{}}
	truth := ds.Station.Pos
	rng := rand.New(rand.NewSource(opt.Seed ^ int64(opt.M)))
	// feed reports whether the epoch's NR fix was plausible and fed.
	feed := func(t float64, obs []core.Observation) bool {
		sol, err := nr.Solve(t, obs)
		if err != nil || !plausibleFix(sol) {
			return false
		}
		fix := clock.Fix{T: t, Bias: sol.ClockBias / geo.SpeedOfLight}
		for _, p := range preds {
			p.Observe(fix)
		}
		return true
	}

	// Calibration pass: it counts only plausible NR fixes, so epochs
	// short of m satellites or with a spurious NR root stretch it past
	// index initEpochs. Measurement starts after its last epoch: no
	// epoch is both calibrated on and measured, and the predictor sees
	// every fix in time order.
	start, calibrated := 0, 0
	for ; start < len(ds.Epochs) && calibrated < initEpochs; start++ {
		obs := selectObs(ds.Epochs[start].Obs, opt.M, sel, rng, truth)
		if obs == nil {
			continue
		}
		if feed(ds.Epochs[start].T, obs) {
			calibrated++
		}
	}

	stats := make([]ArmStats, len(specs))
	sumIter := make([]float64, len(specs))
	sumSq := make([]float64, len(specs))
	indices := sampleIndices(len(ds.Epochs), start, opt.MaxEpochs)
	// Sized up front so appending never allocates between timed solves.
	nanosByArm := make([][]float64, len(specs))
	for i, spec := range specs {
		stats[i].Name = spec.Name
		stats[i].Errors = make([]float64, 0, len(indices))
		nanosByArm[i] = make([]float64, 0, len(indices))
	}
	obsBuf := make([]core.Observation, 0, 16)
	for _, idx := range indices {
		e := &ds.Epochs[idx]
		obs := selectObsInto(obsBuf, e.Obs, opt.M, sel, rng, truth)
		if obs == nil {
			census.SkippedSats++
			continue
		}
		if !geometryOK(truth, obs) {
			census.SkippedDOP++
			continue
		}
		census.Epochs++
		feed(e.T, obs)
		for i, spec := range specs {
			sol, nanos, err := timedSolve(spec.Solver, e.T, obs)
			if err != nil || !plausibleFix(sol) {
				stats[i].Failures++
				stats[i].Errors = append(stats[i].Errors, math.NaN())
				continue
			}
			d := AbsoluteError(sol, truth)
			s := &stats[i]
			s.Errors = append(s.Errors, d)
			n := float64(s.Fixes)
			s.MeanError = (s.MeanError*n + d) / (n + 1)
			s.MeanNanos = (s.MeanNanos*n + nanos) / (n + 1)
			if d > s.MaxError {
				s.MaxError = d
			}
			sumSq[i] += d * d
			sumIter[i] += float64(sol.Iterations)
			nanosByArm[i] = append(nanosByArm[i], nanos)
			s.Fixes++
		}
	}
	for i := range stats {
		if stats[i].Fixes > 0 {
			stats[i].RMSError = math.Sqrt(sumSq[i] / float64(stats[i].Fixes))
			stats[i].MeanIterations = sumIter[i] / float64(stats[i].Fixes)
			stats[i].MedianError, stats[i].P95Error = medianP95(stats[i].Errors)
			stats[i].MedianNanos, _ = medianP95(nanosByArm[i])
		}
	}
	return stats, census, nil
}
