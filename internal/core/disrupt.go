package core

import "math"

// DisruptionDetector scores each satellite's pseudo-range innovation
// against a reference fix (typically the previous good solution with
// the clock model's predicted bias) and inflates the Sigma of outliers
// so the weighted solvers pull them toward irrelevance instead of
// waiting for RAIM to exclude them. Down-weighting degrades gracefully
// where exclusion is brittle: RAIM's single-fault identification loop
// cannot resolve two simultaneously biased satellites, but robust
// scoring flags each independently and the weighted solve proceeds
// with all measurements, suspect ones contributing ~nothing.
//
// The statistics are median/MAD based, so up to roughly half the
// constellation can be disrupted before the reference scale itself is
// polluted. The zero value is ready to use; a detector reuses internal
// buffers between calls and is not safe for concurrent use.
type DisruptionDetector struct {
	// Threshold is the robust z-score (|rᵢ − median| / (1.4826·MAD))
	// above which a satellite is suspect; 0 means the default 3.5.
	Threshold float64
	// MinResidualM floors the absolute centered innovation (meters) a
	// suspect must show, so a quiet epoch's tiny MAD cannot turn noise
	// into suspects; 0 means the default 8 m.
	MinResidualM float64
	// Inflate multiplies a suspect's σ (unknown σ counts as 1);
	// 0 means the default 32, a ~1000× weight reduction.
	Inflate float64
	// Metrics, when non-nil, counts scored epochs and down-weighted
	// satellites. Nil records nothing.
	Metrics *DisruptionMetrics

	resid []float64
	order []float64
}

// minDisruptObs is the smallest constellation the detector scores:
// below 6 satellites the median/MAD statistics have too little
// redundancy to separate a disrupted satellite from reference error.
const minDisruptObs = 6

// Downweight scores obs against ref and inflates Sigma on suspects in
// place, returning how many satellites were down-weighted. ref should
// be the best available prior — the innovation is
// rᵢ = ρᵢ − (‖satᵢ − ref.Pos‖ + ref.ClockBias) — so a stale or wrong
// reference shifts every residual equally and the median centering
// absorbs it. Epochs with fewer than 6 satellites, or non-finite
// inputs, are left untouched.
func (d *DisruptionDetector) Downweight(ref Solution, obs []Observation) int {
	m := len(obs)
	if m < minDisruptObs || !finite(ref.ClockBias) ||
		!finite(ref.Pos.X) || !finite(ref.Pos.Y) || !finite(ref.Pos.Z) {
		return 0
	}
	if cap(d.resid) < m {
		d.resid = make([]float64, m)
		d.order = make([]float64, m)
	}
	resid := d.resid[:m]
	order := d.order[:m]
	for i, o := range obs {
		r := o.Pos.DistanceTo(ref.Pos) + ref.ClockBias
		resid[i] = o.Pseudorange - r
		if !finite(resid[i]) {
			return 0
		}
	}
	copy(order, resid)
	sortShort(order)
	med := median(order)
	for i, r := range resid {
		order[i] = math.Abs(r - med)
	}
	sortShort(order)
	mad := median(order)

	threshold := d.Threshold
	if threshold <= 0 {
		threshold = 3.5
	}
	floor := d.MinResidualM
	if floor <= 0 {
		floor = 8
	}
	inflate := d.Inflate
	if inflate <= 0 {
		inflate = 32
	}
	// 1.4826·MAD estimates σ for Gaussian residuals; the floor keeps the
	// cut meaningful when a clean epoch's MAD is millimetric.
	scale := 1.4826 * mad
	d.Metrics.countCheck()
	suspects := 0
	for i, r := range resid {
		dev := math.Abs(r - med)
		if dev <= floor || dev <= threshold*scale {
			continue
		}
		obs[i].Sigma = obsSigma(obs[i]) * inflate
		suspects++
	}
	d.Metrics.countDownweights(suspects)
	return suspects
}

// sortShort sorts a ascending in place by insertion. The detector sorts
// one sky's worth of finite residuals (≤ 16 or so), where this beats
// sort.Float64s; equal values may land in any order, which no median
// can tell apart.
func sortShort(a []float64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i
		for ; j > 0 && a[j-1] > v; j-- {
			a[j] = a[j-1]
		}
		a[j] = v
	}
}

// median of a sorted non-empty slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return 0.5 * (sorted[n/2-1] + sorted[n/2])
}
