package core

import (
	"fmt"
	"math"
)

// RAIM (Receiver Autonomous Integrity Monitoring) detects and excludes a
// faulty pseudo-range using the least-squares residuals of an
// over-determined fix. It is the integrity layer real receivers run on
// top of any positioning algorithm — including the paper's direct
// methods, whose closed-form solutions make re-solving after an exclusion
// especially cheap.
//
// Detection uses the standard chi-square-style test on the residual sum
// of squares; identification re-solves with each satellite excluded and
// picks the exclusion that best normalizes the residuals.

// RAIMResult describes the outcome of an integrity check.
type RAIMResult struct {
	// Solution is the final (possibly post-exclusion) fix.
	Solution Solution
	// ExcludedPRN is the index (into the original observation slice) of
	// the excluded satellite, or -1 when no exclusion was needed.
	Excluded int
	// TestStatistic is the final normalized residual statistic
	// sqrt(RSS/(m−4)).
	TestStatistic float64
}

// RAIM wraps a solver with residual-based fault detection and single-
// fault exclusion.
type RAIM struct {
	// Solver produces the fixes (required). Direct methods make the
	// m+1 solves of an exclusion pass cheap.
	Solver Solver
	// Threshold is the detection limit on sqrt(RSS/(m−4)); a healthy
	// epoch's statistic sits near the pseudo-range noise sigma. Residuals
	// are normalized by each observation's Sigma where set (unset weighs
	// as σ=1), so on unweighted input the statistic is in meters, and on
	// honestly-weighted input it is a robust z-score — a down-weighted
	// satellite's inflated σ absorbs its residual instead of condemning a
	// fix the weighted solvers already discounted. 0 means the default
	// of 15.
	Threshold float64
	// Metrics, when non-nil, counts checks, detected faults, and
	// exclusions (see NewRAIMMetrics). Nil records nothing.
	Metrics *RAIMMetrics
}

// defaultRAIMThreshold balances missed detection against false alarms
// for the few-meter noise this repository simulates.
const defaultRAIMThreshold = 15.0

// Check solves the epoch, tests the residuals, and — if the test fails
// and enough satellites remain — excludes the most suspicious satellite
// and re-solves. At least 6 satellites are required to both detect (5)
// and exclude (6) with confidence.
func (r *RAIM) Check(t float64, obs []Observation) (RAIMResult, error) {
	if r.Solver == nil {
		return RAIMResult{}, fmt.Errorf("core: RAIM with nil solver")
	}
	if err := checkMinObs("RAIM", obs, 5); err != nil {
		return RAIMResult{}, err
	}
	threshold := r.Threshold
	if threshold <= 0 {
		threshold = defaultRAIMThreshold
	}
	sol, err := r.Solver.Solve(t, obs)
	if err != nil {
		return RAIMResult{}, fmt.Errorf("core: RAIM initial solve: %w", err)
	}
	r.Metrics.countCheck()
	stat := residualStat(sol, obs)
	if stat <= threshold {
		return RAIMResult{Solution: sol, Excluded: -1, TestStatistic: stat}, nil
	}
	r.Metrics.countFault()
	if len(obs) < 6 {
		return RAIMResult{Solution: sol, Excluded: -1, TestStatistic: stat},
			fmt.Errorf("core: RAIM detected fault (stat %.1f m) but cannot exclude with %d satellites: %w",
				stat, len(obs), ErrDegenerateGeometry)
	}
	// Identification: try excluding each satellite; keep the exclusion
	// with the smallest post-fit statistic.
	best := RAIMResult{Excluded: -1, TestStatistic: stat, Solution: sol}
	reduced := make([]Observation, 0, len(obs)-1)
	for excl := range obs {
		reduced = reduced[:0]
		for i, o := range obs {
			if i != excl {
				reduced = append(reduced, o)
			}
		}
		cand, err := r.Solver.Solve(t, reduced)
		if err != nil {
			continue
		}
		if s := residualStat(cand, reduced); s < best.TestStatistic {
			best = RAIMResult{Solution: cand, Excluded: excl, TestStatistic: s}
		}
	}
	if best.Excluded == -1 {
		return best, fmt.Errorf("core: RAIM could not isolate the fault (stat %.1f m): %w",
			stat, ErrDegenerateGeometry)
	}
	if best.TestStatistic > threshold {
		return best, fmt.Errorf("core: RAIM exclusion left stat %.1f m above threshold: %w",
			best.TestStatistic, ErrDegenerateGeometry)
	}
	r.Metrics.countExclusion()
	return best, nil
}

// residualStat returns sqrt(RSS/(m−4)): the RMS of the pseudo-range
// residuals normalized by the redundancy, using the solution's position
// and clock bias. Each residual is divided by the observation's
// weighting σ (obsSigma: Sigma when set, else exactly 1, leaving
// unweighted input bit-identical), so the integrity test judges every
// satellite against its own advertised noise level.
func residualStat(sol Solution, obs []Observation) float64 {
	dof := len(obs) - 4
	if dof < 1 {
		dof = 1
	}
	var rss float64
	for _, o := range obs {
		pred := sol.Pos.DistanceTo(o.Pos) + sol.ClockBias
		v := (o.Pseudorange - pred) / obsSigma(o)
		rss += v * v
	}
	return math.Sqrt(rss / float64(dof))
}
