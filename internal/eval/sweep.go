package eval

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"gpsdl/internal/clock"
	"gpsdl/internal/core"
	"gpsdl/internal/geo"
	"gpsdl/internal/mat"
	"gpsdl/internal/scenario"
	"gpsdl/internal/telemetry"
)

// SelectionMode chooses which m satellites are used when an epoch has more
// than m in view.
type SelectionMode int

// Selection modes.
const (
	// SelectStratified takes m satellites spread evenly across the
	// elevation-ranked list, keeping geometry quality comparable as m
	// varies (the default; the paper does not state its policy).
	SelectStratified SelectionMode = iota + 1
	// SelectTop takes the m highest-elevation satellites.
	SelectTop
	// SelectRandom draws m satellites uniformly per epoch (seeded).
	SelectRandom
	// SelectBestDOP greedily builds the subset minimizing GDOP: seed
	// with the highest-elevation satellite, then repeatedly add the
	// candidate that maximizes det(GᵀG) of the geometry matrix — the
	// subset-selection policy receivers with limited channels use.
	SelectBestDOP
)

// Sweep runs the three paper algorithms over a dataset for each satellite
// count, reproducing one (dataset, figure) pair of Fig. 5.1/5.2.
type Sweep struct {
	// Dataset is the observation set to process (required).
	Dataset *scenario.Dataset
	// SatCounts lists the m values to sweep; nil means 4…10 (the x-axis
	// of Fig. 5.1/5.2).
	SatCounts []int
	// MaxEpochs caps how many epochs are processed per m (0 = all).
	// Epochs are subsampled evenly, not truncated.
	MaxEpochs int
	// InitEpochs is the clock-calibration window: the paper derives the
	// predictor's D and r from NR solutions over an initial data span
	// (Section 5.2.2). 0 means 60 epochs.
	InitEpochs int
	// Selection picks which m satellites to use; zero value means
	// SelectStratified.
	Selection SelectionMode
	// Seed drives random satellite selection.
	Seed int64
	// Base overrides the DLO/DLG base-satellite selector (nil = first).
	Base core.BaseSelector
	// NewPredictor constructs the clock predictor for each m-run; nil
	// installs the paper's linear predictor configured for the dataset's
	// clock type (drift floor for steering, jump detection for
	// threshold).
	NewPredictor func() clock.Predictor
	// TimingReps repeats each timed solve to amortize timer overhead
	// (sub-microsecond solves vs ~30 ns timer reads). 0 means 4.
	TimingReps int
	// MaxGDOP screens out epochs whose selected-subset geometry exceeds
	// this GDOP (applied identically to every algorithm; real receivers
	// reject such fixes). 0 means the default of 20; negative disables.
	MaxGDOP float64
	// Registry, when non-nil, mirrors every arm's solves into the
	// standard telemetry instruments (gps_solve_seconds{solver=...},
	// failures, iteration counts, clock calibrations/resets). Latency is
	// observed from the already-measured per-solve nanos, outside the
	// timed region, so instrumentation cannot skew the η/θ figures.
	Registry *telemetry.Registry
}

// ArmResult aggregates one algorithm's performance at one satellite count.
type ArmResult struct {
	MeanError float64 // meters
	RMSError  float64
	// MedianError and P95Error are the exact nearest-rank CEP50/CEP95
	// of the per-epoch error distribution.
	MedianError float64
	P95Error    float64
	MeanNanos   float64
	MedianNanos float64 // nearest-rank median per-epoch solve time
	Fixes       int
	Failures    int
}

// Row is one satellite-count row of a sweep: everything needed to plot
// both Fig. 5.1 (time rates) and Fig. 5.2 (accuracy rates) at this m.
type Row struct {
	M      int
	Epochs int
	// SkippedDOP counts epochs excluded by the GDOP screen (see
	// MaxGDOP): with few satellites, occasional near-degenerate
	// geometries would otherwise dominate every algorithm's mean error.
	SkippedDOP int
	// SkippedSats counts epochs dropped because fewer than m satellites
	// were in view. These epochs used to vanish without a trace, which
	// silently shrank the availability denominator: a receiver that sees
	// m satellites only 10% of the time reported the same availability
	// as one that sees them always.
	SkippedSats int
	NR          ArmResult
	DLO         ArmResult
	DLG         ArmResult
}

// Candidates returns how many measurement epochs were considered at this
// m — solved, geometry-screened, or short of satellites. It is the
// denominator every availability figure must use.
func (r Row) Candidates() int { return r.Epochs + r.SkippedDOP + r.SkippedSats }

// Availability returns the percentage of candidate epochs for which the
// given arm (one of r.NR, r.DLO, r.DLG) produced an accepted fix. Epochs
// without m satellites in view and epochs rejected by the GDOP screen
// count against availability, exactly as they would for a real receiver.
func (r Row) Availability(a ArmResult) float64 {
	c := r.Candidates()
	if c == 0 {
		return 0
	}
	return 100 * float64(a.Fixes) / float64(c)
}

// AccuracyRateDLO returns η_DLO (eq. 5-2) for this row.
func (r Row) AccuracyRateDLO() float64 { return AccuracyRate(r.DLO.MeanError, r.NR.MeanError) }

// AccuracyRateDLG returns η_DLG for this row.
func (r Row) AccuracyRateDLG() float64 { return AccuracyRate(r.DLG.MeanError, r.NR.MeanError) }

// TimeRateDLO returns θ_DLO (eq. 5-3) for this row.
func (r Row) TimeRateDLO() float64 { return TimeRate(r.DLO.MeanNanos, r.NR.MeanNanos) }

// TimeRateDLG returns θ_DLG for this row.
func (r Row) TimeRateDLG() float64 { return TimeRate(r.DLG.MeanNanos, r.NR.MeanNanos) }

// Result is a full sweep over satellite counts for one dataset.
type Result struct {
	Station scenario.Station
	Rows    []Row
}

// Run executes the sweep.
func (s *Sweep) Run() (*Result, error) {
	if s.Dataset == nil {
		return nil, fmt.Errorf("eval: Sweep.Dataset is nil")
	}
	satCounts := s.SatCounts
	if len(satCounts) == 0 {
		satCounts = []int{4, 5, 6, 7, 8, 9, 10}
	}
	initEpochs := s.InitEpochs
	if initEpochs <= 0 {
		initEpochs = 60
	}
	reps := s.TimingReps
	if reps <= 0 {
		reps = 4
	}
	sel := s.Selection
	if sel == 0 {
		sel = SelectStratified
	}
	maxGDOP := s.MaxGDOP
	if maxGDOP == 0 {
		maxGDOP = 20
	}
	res := &Result{Station: s.Dataset.Station, Rows: make([]Row, 0, len(satCounts))}
	for _, m := range satCounts {
		row, err := s.runOne(m, initEpochs, reps, sel, maxGDOP)
		if err != nil {
			return nil, fmt.Errorf("eval: sweep m=%d: %w", m, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runOne processes the dataset at a fixed satellite count.
func (s *Sweep) runOne(m, initEpochs, reps int, sel SelectionMode, maxGDOP float64) (Row, error) {
	epochs := s.Dataset.Epochs
	row := Row{M: m}
	pred := s.makePredictor()
	// One Scratch serves all three arms (they solve in turn), so no
	// timed region allocates and GC cost lands on none of them.
	sc := &core.Scratch{}
	nr := core.NRSolver{Scratch: sc}
	dlo := &core.DLOSolver{Predictor: pred, Base: s.Base, Scratch: sc}
	dlg := &core.DLGSolver{Predictor: pred, Base: s.Base, Scratch: sc}
	nrM := core.NewSolverMetrics(s.Registry, "NR")
	dloM := core.NewSolverMetrics(s.Registry, "DLO")
	dlgM := core.NewSolverMetrics(s.Registry, "DLG")
	dlg.Metrics = core.NewGLSMetrics(s.Registry)
	if lp, ok := pred.(*clock.LinearPredictor); ok {
		lp.Metrics = clock.NewMetrics(s.Registry)
	}
	truth := s.Dataset.Station.Pos
	rng := rand.New(rand.NewSource(s.Seed ^ int64(m)))

	// Calibration pass (Section 5.2.2): NR fixes over the initial window
	// feed the predictor. These epochs are excluded from the metrics.
	calibrated := 0
	for i := 0; i < len(epochs) && calibrated < initEpochs; i++ {
		obs := selectObs(epochs[i].Obs, m, sel, rng, truth)
		if obs == nil {
			continue
		}
		sol, err := nr.Solve(epochs[i].T, obs)
		if err != nil || !plausibleFix(sol) {
			continue
		}
		pred.Observe(clock.Fix{T: epochs[i].T, Bias: sol.ClockBias / speedOfLight})
		calibrated++
	}

	// Measurement pass.
	indices := sampleIndices(len(epochs), initEpochs, s.MaxEpochs)
	// Per-epoch error and solve-time series of the accepted fixes (NR,
	// DLO, DLG), for the exact quantiles. Sized up front so appending
	// never allocates between timed solves.
	var errs, nanos [3][]float64
	for i := range errs {
		errs[i] = make([]float64, 0, len(indices))
		nanos[i] = make([]float64, 0, len(indices))
	}
	obsBuf := make([]core.Observation, 0, 16)
	for _, i := range indices {
		e := &epochs[i]
		obs := selectObsInto(obsBuf, e.Obs, m, sel, rng, truth)
		if obs == nil {
			row.SkippedSats++
			continue
		}
		if maxGDOP > 0 && !geometryOK(truth, obs, maxGDOP) {
			row.SkippedDOP++
			continue
		}
		row.Epochs++
		// NR (baseline) — also supplies the clock fix that keeps the
		// predictor tracking threshold-clock resets.
		// Every solver's fix passes the same plausibility acceptance
		// check real receivers apply (RAIM-style): a solution far from
		// the Earth's surface is a divergence and counts as a failure,
		// not as an error sample. NR with 4 poorly-placed satellites
		// occasionally converges to a spurious root; without the gate a
		// handful of 100 km outliers dominate a day's mean error.
		nrSol, nrNanos, nrErr := timedSolve(&nr, e.T, obs, reps)
		recordArm(nrM, nrNanos, nrSol.Iterations, nrErr != nil || !plausibleFix(nrSol))
		if nrErr != nil || !plausibleFix(nrSol) {
			row.addFailure(&row.NR)
		} else {
			nrD := AbsoluteError(nrSol, truth)
			row.addFix(&row.NR, nrD, nrNanos)
			errs[0], nanos[0] = append(errs[0], nrD), append(nanos[0], nrNanos)
			pred.Observe(clock.Fix{T: e.T, Bias: nrSol.ClockBias / speedOfLight})
		}
		dloSol, dloNanos, dloErr := timedSolve(dlo, e.T, obs, reps)
		recordArm(dloM, dloNanos, dloSol.Iterations, dloErr != nil || !plausibleFix(dloSol))
		if dloErr != nil || !plausibleFix(dloSol) {
			row.addFailure(&row.DLO)
		} else {
			dloD := AbsoluteError(dloSol, truth)
			row.addFix(&row.DLO, dloD, dloNanos)
			errs[1], nanos[1] = append(errs[1], dloD), append(nanos[1], dloNanos)
		}
		dlgSol, dlgNanos, dlgErr := timedSolve(dlg, e.T, obs, reps)
		recordArm(dlgM, dlgNanos, dlgSol.Iterations, dlgErr != nil || !plausibleFix(dlgSol))
		if dlgErr != nil || !plausibleFix(dlgSol) {
			row.addFailure(&row.DLG)
		} else {
			dlgD := AbsoluteError(dlgSol, truth)
			row.addFix(&row.DLG, dlgD, dlgNanos)
			errs[2], nanos[2] = append(errs[2], dlgD), append(nanos[2], dlgNanos)
		}
	}
	for i, a := range []*ArmResult{&row.NR, &row.DLO, &row.DLG} {
		a.MedianError, a.P95Error = medianP95(errs[i])
		a.MedianNanos, _ = medianP95(nanos[i])
	}
	return row, nil
}

const speedOfLight = 299792458.0

// geometryOK reports whether the selected subset's GDOP is below the
// ceiling. The DOP is a pure geometry property, so evaluating it at the
// station's surveyed position is equivalent to a receiver evaluating it at
// its last fix.
func geometryOK(recv geo.ECEF, obs []core.Observation, maxGDOP float64) bool {
	sats := make([]geo.ECEF, len(obs))
	for i, o := range obs {
		sats[i] = o.Pos
	}
	dop, err := core.ComputeDOP(recv, sats)
	if err != nil {
		return false
	}
	return dop.GDOP <= maxGDOP
}

// plausibleFix reports whether an NR solution is sane enough to feed the
// clock predictor: a terrestrial (or low-altitude airborne) receiver whose
// position NR placed far from the Earth's surface has converged to a
// spurious solution, and its clock term would poison the running fit.
func plausibleFix(sol core.Solution) bool {
	r := sol.Pos.Norm()
	return r > 5.4e6 && r < 7.4e6
}

// makePredictor builds the clock predictor for one m-run.
func (s *Sweep) makePredictor() clock.Predictor {
	if s.NewPredictor != nil {
		return s.NewPredictor()
	}
	return DefaultPredictor(s.Dataset.Station.Clock)
}

// DefaultPredictor returns the paper's linear predictor configured for a
// clock-correction type: steering clocks get a drift floor (no secular
// drift to model), threshold clocks get reset detection at 100 µs. Both
// keep refining the fit from the NR biases the harness feeds each epoch
// (Section 4.2's second approach: "use the clock bias calculated by the NR
// method … when external providers are not available") — a short frozen
// calibration window would let drift-fit noise extrapolate to tens of
// meters of range error within hours.
func DefaultPredictor(ct scenario.ClockType) clock.Predictor {
	switch ct {
	case scenario.ClockThreshold:
		p := clock.NewLinearPredictor(60, 1e-4)
		p.Refit = true
		p.RoundJumpTo = 1e-3 // receivers slew by exactly the threshold
		p.OutlierTol = 1e-6  // drop spurious sub-jump NR fixes
		return p
	default:
		p := clock.NewLinearPredictor(60, 0)
		p.DriftFloor = 1e-9
		p.Refit = true
		p.OutlierTol = 1e-6
		return p
	}
}

// recordArm mirrors one timed solve into the optional registry. Latency
// comes from the measurement the sweep already made, so the metrics add
// no clock reads to the timed region.
func recordArm(m *core.SolverMetrics, nanos float64, iters int, failed bool) {
	if m == nil {
		return
	}
	if failed {
		m.Failures.Inc()
		return
	}
	m.SolveSeconds.Observe(nanos * 1e-9)
	if iters > 0 {
		m.Iterations.Add(uint64(iters))
		m.NRIterations.Add(uint64(iters))
	}
}

// timedSolve runs the solver reps times and returns the last solution and
// the per-solve time in nanoseconds.
func timedSolve(solver core.Solver, t float64, obs []core.Observation, reps int) (core.Solution, float64, error) {
	var sol core.Solution
	var err error
	start := time.Now()
	for r := 0; r < reps; r++ {
		sol, err = solver.Solve(t, obs)
		if err != nil {
			return core.Solution{}, 0, err
		}
	}
	elapsed := time.Since(start)
	return sol, float64(elapsed.Nanoseconds()) / float64(reps), nil
}

// accumulating helpers (Row keeps plain sums so it stays copyable).

func (r *Row) addFix(a *ArmResult, d, nanos float64) {
	// Streaming mean via incremental update.
	n := float64(a.Fixes)
	a.MeanError = (a.MeanError*n + d) / (n + 1)
	a.RMSError = math.Sqrt((a.RMSError*a.RMSError*n + d*d) / (n + 1))
	a.MeanNanos = (a.MeanNanos*n + nanos) / (n + 1)
	a.Fixes++
}

func (r *Row) addFailure(a *ArmResult) { a.Failures++ }

// selectObs picks m observations from an epoch per the selection mode,
// returning nil when fewer than m are available. recv anchors the
// geometry computations of SelectBestDOP.
func selectObs(obs []scenario.SatObs, m int, sel SelectionMode, rng *rand.Rand, recv geo.ECEF) []core.Observation {
	return selectObsInto(nil, obs, m, sel, rng, recv)
}

// selectObsInto is selectObs with a reusable buffer.
func selectObsInto(buf []core.Observation, obs []scenario.SatObs, m int, sel SelectionMode, rng *rand.Rand, recv geo.ECEF) []core.Observation {
	n := len(obs)
	if n < m {
		return nil
	}
	out := buf[:0]
	switch sel {
	case SelectTop:
		for i := 0; i < m; i++ {
			out = append(out, toCoreObs(obs[i]))
		}
	case SelectRandom:
		perm := rng.Perm(n)
		for _, idx := range perm[:m] {
			out = append(out, toCoreObs(obs[idx]))
		}
	case SelectBestDOP:
		for _, idx := range greedyDOPSubset(obs, m, recv) {
			out = append(out, toCoreObs(obs[idx]))
		}
	default: // SelectStratified
		// Prefer satellites above 15° elevation when enough are in view:
		// receivers avoid horizon-scraping satellites, and always
		// including one (as naive stratification over the full list
		// does) ruins the m = 4 geometry.
		pool := n
		const elevFloor = 15 * math.Pi / 180
		for pool > m && obs[pool-1].Elevation < elevFloor {
			pool--
		}
		if m == 1 {
			out = append(out, toCoreObs(obs[0]))
			break
		}
		for i := 0; i < m; i++ {
			idx := i * (pool - 1) / (m - 1)
			out = append(out, toCoreObs(obs[idx]))
		}
	}
	return out
}

// toCoreObs adapts a scenario observation to the solver type.
func toCoreObs(o scenario.SatObs) core.Observation {
	return core.Observation{Pos: o.Pos, Pseudorange: o.Pseudorange, Elevation: o.Elevation}
}

// greedyDOPSubset returns the indices of a near-GDOP-optimal m-subset:
// seed with index 0 (the highest-elevation satellite — obs arrive sorted)
// and grow by the candidate maximizing det(GᵀG), where G's rows are the
// unit line-of-sight vectors augmented with the clock column.
func greedyDOPSubset(obs []scenario.SatObs, m int, recv geo.ECEF) []int {
	n := len(obs)
	units := make([][4]float64, n)
	for i, o := range obs {
		los := o.Pos.Sub(recv)
		r := los.Norm()
		if r == 0 {
			r = 1
		}
		units[i] = [4]float64{los.X / r, los.Y / r, los.Z / r, 1}
	}
	selected := make([]int, 0, m)
	used := make([]bool, n)
	selected = append(selected, 0)
	used[0] = true
	rows := make([][4]float64, 0, m)
	rows = append(rows, units[0])
	for len(selected) < m {
		bestIdx, bestDet := -1, -1.0
		for c := 0; c < n; c++ {
			if used[c] {
				continue
			}
			trial := append(rows, units[c])
			ata, _ := mat.NormalEq4(trial, make([]float64, len(trial)))
			det := det4(ata)
			if det > bestDet {
				bestDet = det
				bestIdx = c
			}
		}
		if bestIdx < 0 {
			break
		}
		used[bestIdx] = true
		selected = append(selected, bestIdx)
		rows = append(rows, units[bestIdx])
	}
	return selected
}

// det4 computes the determinant of a row-major 4×4 matrix by cofactor
// expansion on 3×3 minors.
func det4(a [16]float64) float64 {
	minor := func(r0, r1, r2, c0, c1, c2 int) float64 {
		return a[r0*4+c0]*(a[r1*4+c1]*a[r2*4+c2]-a[r1*4+c2]*a[r2*4+c1]) -
			a[r0*4+c1]*(a[r1*4+c0]*a[r2*4+c2]-a[r1*4+c2]*a[r2*4+c0]) +
			a[r0*4+c2]*(a[r1*4+c0]*a[r2*4+c1]-a[r1*4+c1]*a[r2*4+c0])
	}
	return a[0]*minor(1, 2, 3, 1, 2, 3) -
		a[1]*minor(1, 2, 3, 0, 2, 3) +
		a[2]*minor(1, 2, 3, 0, 1, 3) -
		a[3]*minor(1, 2, 3, 0, 1, 2)
}

// sampleIndices returns up to maxEpochs epoch indices in [start, n), spread
// evenly; all of them when maxEpochs is 0.
func sampleIndices(n, start, maxEpochs int) []int {
	if start >= n {
		return nil
	}
	total := n - start
	if maxEpochs <= 0 || maxEpochs >= total {
		out := make([]int, total)
		for i := range out {
			out[i] = start + i
		}
		return out
	}
	out := make([]int, maxEpochs)
	for i := range out {
		out[i] = start + i*total/maxEpochs
	}
	return out
}
