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

// Row is one satellite-count row of a sweep: everything needed to plot
// both Fig. 5.1 (time rates) and Fig. 5.2 (accuracy rates) at this m.
type Row struct {
	M int
	Census
	NR  ArmStats
	DLO ArmStats
	DLG ArmStats
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

// Sweep runs PaperRow for every satellite count of Fig. 5.1/5.2's x-axis
// (m = 4…10), reproducing one (dataset, figure) pair; it sets opt.M per
// row.
func Sweep(ds *scenario.Dataset, opt Options) (*Result, error) {
	if ds == nil {
		return nil, fmt.Errorf("eval: Sweep dataset is nil")
	}
	res := &Result{Station: ds.Station}
	for m := 4; m <= 10; m++ {
		opt.M = m
		row, err := PaperRow(ds, opt)
		if err != nil {
			return nil, fmt.Errorf("eval: sweep m=%d: %w", m, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// PaperRow runs the paper's three algorithms — NR, DLO and DLG — through
// RunArms at opt.M satellites: one row of Fig. 5.1/5.2. DLO and DLG share
// the paper's linear predictor for the dataset's clock type.
func PaperRow(ds *scenario.Dataset, opt Options) (Row, error) {
	if ds == nil {
		return Row{}, fmt.Errorf("eval: PaperRow dataset is nil")
	}
	pred := DefaultPredictor(ds.Station.Clock)
	// One Scratch serves all three arms (they solve in turn), so no
	// timed region allocates and GC cost lands on none of them.
	sc := &core.Scratch{}
	stats, census, err := RunArms(ds, []ArmSpec{
		{Name: "NR", Solver: &core.NRSolver{Scratch: sc}},
		{Name: "DLO", Solver: &core.DLOSolver{Predictor: pred, Scratch: sc}, Predictor: pred},
		{Name: "DLG", Solver: &core.DLGSolver{Predictor: pred, Scratch: sc}, Predictor: pred},
	}, opt)
	if err != nil {
		return Row{}, err
	}
	return Row{M: opt.M, Census: census, NR: stats[0], DLO: stats[1], DLG: stats[2]}, nil
}

// geometryOK reports whether the selected subset's GDOP is within
// maxGDOP. The DOP is a pure geometry property, so evaluating it at the
// station's surveyed position is equivalent to a receiver evaluating it at
// its last fix.
func geometryOK(recv geo.ECEF, obs []core.Observation) bool {
	dop, err := core.DOPFromObs(recv, obs)
	return err == nil && dop.GDOP <= maxGDOP
}

// plausibleFix reports whether an NR solution is sane enough to feed the
// clock predictor: a terrestrial (or low-altitude airborne) receiver whose
// position NR placed far from the Earth's surface has converged to a
// spurious solution, and its clock term would poison the running fit.
func plausibleFix(sol core.Solution) bool {
	r := sol.Pos.Norm()
	return r > 5.4e6 && r < 7.4e6
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

// timedSolve runs the solver timingReps times and returns the last
// solution and the per-solve time in nanoseconds.
func timedSolve(solver core.Solver, t float64, obs []core.Observation) (core.Solution, float64, error) {
	var sol core.Solution
	var err error
	start := time.Now()
	for r := 0; r < timingReps; r++ {
		sol, err = solver.Solve(t, obs)
		if err != nil {
			return core.Solution{}, 0, err
		}
	}
	elapsed := time.Since(start)
	return sol, float64(elapsed.Nanoseconds()) / float64(timingReps), nil
}

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
