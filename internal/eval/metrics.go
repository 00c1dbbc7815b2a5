// Package eval is the experiment harness: it runs the positioning
// algorithms over generated datasets and computes the paper's metrics —
// absolute error d_O (eq. 5-1), accuracy rate η (eq. 5-2) and execution
// time rate θ (eq. 5-3) — swept over the number of satellites, exactly the
// axes of Fig. 5.1 and Fig. 5.2.
package eval

import (
	"gpsdl/internal/core"
	"gpsdl/internal/geo"
)

// AbsoluteError returns d_O of eq. 5-1: the Euclidean distance between the
// estimated and true receiver positions.
func AbsoluteError(sol core.Solution, truth geo.ECEF) float64 {
	return sol.Pos.DistanceTo(truth)
}

// AccuracyRate returns η of eq. 5-2 in percent: 100·d_O/d_NR. Values above
// 100 mean algorithm O is less accurate than NR.
func AccuracyRate(dO, dNR float64) float64 {
	if dNR == 0 {
		if dO == 0 {
			return 100
		}
		return 0 // NR was exact; rate undefined, report sentinel
	}
	return 100 * dO / dNR
}

// TimeRate returns θ of eq. 5-3 in percent: 100·τ_O/τ_NR. Values below 100
// mean algorithm O is faster than NR.
func TimeRate(tauO, tauNR float64) float64 {
	if tauNR == 0 {
		return 0
	}
	return 100 * tauO / tauNR
}
