package eval

import (
	"math"
	"slices"
)

// medianP95 returns the nearest-rank median and 95th percentile of the
// non-NaN values in xs: sorted[min(⌊p·n⌋, n−1)] for p = 0.5 and 0.95, and
// (0, 0) when there are none. xs itself is left untouched, so an
// epoch-aligned series (NaN = failed solve) can be passed as is.
func medianP95(xs []float64) (median, p95 float64) {
	sorted := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			sorted = append(sorted, x)
		}
	}
	if len(sorted) == 0 {
		return 0, 0
	}
	slices.Sort(sorted)
	at := func(p float64) float64 {
		return sorted[min(int(p*float64(len(sorted))), len(sorted)-1)]
	}
	return at(0.5), at(0.95)
}
