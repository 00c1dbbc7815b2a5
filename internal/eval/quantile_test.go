package eval

import (
	"math"
	"testing"
)

func TestMedianP95NearestRank(t *testing.T) {
	// 1..20 shuffled, plus failed-solve NaNs that must be skipped:
	// n = 20, median = sorted[10] = 11, p95 = sorted[19] = 20.
	xs := []float64{7, 20, 3, math.NaN(), 15, 1, 12, 9, 18, 5, 11, 2, 19, 14, math.NaN(), 6, 17, 4, 10, 16, 8, 13}
	orig := append([]float64(nil), xs...)
	med, p95 := medianP95(xs)
	if med != 11 || p95 != 20 {
		t.Errorf("medianP95 = (%v, %v), want (11, 20)", med, p95)
	}
	for i := range xs {
		if xs[i] != orig[i] && !(math.IsNaN(xs[i]) && math.IsNaN(orig[i])) {
			t.Fatalf("medianP95 modified its input at %d: %v → %v", i, orig[i], xs[i])
		}
	}

	tests := []struct {
		name     string
		xs       []float64
		med, p95 float64
	}{
		{"empty", nil, 0, 0},
		{"all failed", []float64{math.NaN(), math.NaN()}, 0, 0},
		{"one", []float64{4}, 4, 4},
		{"three", []float64{3, 1, 2}, 2, 3},
		// n = 100: median = sorted[50], p95 = sorted[95].
		{"hundred", ramp(100), 50, 95},
	}
	for _, tt := range tests {
		if med, p95 := medianP95(tt.xs); med != tt.med || p95 != tt.p95 {
			t.Errorf("%s: medianP95 = (%v, %v), want (%v, %v)", tt.name, med, p95, tt.med, tt.p95)
		}
	}
}

// ramp returns 0, 1, …, n−1 in descending order.
func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - 1 - i)
	}
	return out
}
