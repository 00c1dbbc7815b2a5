package core

import "math"

// Per-fix solution-quality extraction. A fix can be geometrically clean
// and still be quietly wrong: the paper's whole argument is accuracy per
// unit cost (η, eq. 5-2), yet a serving system that only watches
// latency and solver failures never notices a session drifting toward
// the accuracy floor. FixQuality is the cheap, allocation-free evidence
// bundle the quality windows (internal/quality) aggregate: the post-fit
// residual RMS and a chi-square consistency test of the residual sum of
// squares against the measurement-noise model — the residual-based
// evidence "PDOP: a Bayesian point of view" argues must be fused with
// DOP before solution uncertainty means anything.

// FixQuality is the per-fix quality evidence extracted from one solve.
type FixQuality struct {
	// DOF is the residual degrees of freedom m−4. With DOF < 1 the
	// residuals are identically zero and carry no information; RMSValid
	// and Chi2Valid are false.
	DOF int
	// ResidualRMS is sqrt(RSS/DOF) in meters: the post-fit pseudo-range
	// residual RMS normalized by the redundancy.
	ResidualRMS float64
	// RMSValid reports whether ResidualRMS is meaningful (DOF ≥ 1).
	RMSValid bool
	// Chi2 is RSS/σ², which under a correct fix and N(0,σ²) measurement
	// noise follows a chi-square distribution with DOF degrees of
	// freedom.
	Chi2 float64
	// Chi2Limit is the 99th-percentile chi-square bound for DOF: a
	// healthy fix exceeds it 1% of the time by chance.
	Chi2Limit float64
	// Chi2Pass is Chi2 ≤ Chi2Limit — the consistency verdict.
	Chi2Pass bool
	// Chi2Valid reports whether the test ran (DOF ≥ 1 and σ > 0).
	Chi2Valid bool
}

// AssessFixExcluding computes the fix-quality evidence for sol against
// the observations that produced it, skipping the observation at index
// excluded (the satellite RAIM removed before re-solving; −1 skips
// none). sigma is the assumed 1σ measurement noise in meters for the
// chi-square test (≤ 0 disables the test but still reports the residual
// RMS). The residuals must be evaluated against the observation set the
// solver actually used, or one excluded fault would dominate the
// statistic of an otherwise clean fix. Allocation-free.
func AssessFixExcluding(sol Solution, obs []Observation, excluded int, sigma float64) FixQuality {
	m := len(obs)
	if excluded >= 0 && excluded < m {
		m--
	}
	q := FixQuality{DOF: m - 4}
	if q.DOF < 1 {
		return q
	}
	var rss float64
	for i := range obs {
		if i == excluded {
			continue
		}
		o := &obs[i]
		pred := sol.Pos.DistanceTo(o.Pos) + sol.ClockBias
		v := o.Pseudorange - pred
		rss += v * v
	}
	q.ResidualRMS = math.Sqrt(rss / float64(q.DOF))
	q.RMSValid = true
	if sigma > 0 {
		q.Chi2 = rss / (sigma * sigma)
		q.Chi2Limit = ChiSquareLimit99(q.DOF)
		q.Chi2Pass = q.Chi2 <= q.Chi2Limit
		q.Chi2Valid = true
	}
	return q
}

// z99 is the standard-normal 99th percentile.
const z99 = 2.3263478740408408

// ChiSquareLimit99 returns the 99th-percentile of the chi-square
// distribution with dof degrees of freedom via the Wilson–Hilferty
// approximation χ²_p ≈ k·(1 − 2/(9k) + z_p·sqrt(2/(9k)))³ — accurate to
// well under 1% for every dof this repository sees (1…~50), closed-form
// and branch-free so it can sit on the per-fix hot path. dof < 1
// returns +Inf (no test possible, nothing fails it).
func ChiSquareLimit99(dof int) float64 {
	if dof < 1 {
		return math.Inf(1)
	}
	k := float64(dof)
	a := 2.0 / (9.0 * k)
	t := 1 - a + z99*math.Sqrt(a)
	return k * t * t * t
}
