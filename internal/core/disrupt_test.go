package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"gpsdl/internal/geo"
)

// randomResiduals draws n values with frequent ties: half come from a
// handful of small integers (±0 included), half are continuous.
func randomResiduals(r *rand.Rand, n int) []float64 {
	a := make([]float64, n)
	for i := range a {
		switch r.Intn(4) {
		case 0:
			a[i] = float64(r.Intn(5) - 2)
		case 1:
			a[i] = math.Copysign(0, -1)
		default:
			a[i] = r.NormFloat64() * 10
		}
	}
	return a
}

// TestSortShortMatchesSortFloat64s: the detector's insertion sort orders
// every residual set of a sky's size exactly as sort.Float64s does.
func TestSortShortMatchesSortFloat64s(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20000; trial++ {
		got := randomResiduals(r, 6+r.Intn(11))
		want := append([]float64(nil), got...)
		sortShort(got)
		sort.Float64s(want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: sortShort %v, sort.Float64s %v", trial, got, want)
			}
		}
	}
}

// downweightSortRef is Downweight's median/MAD scoring with
// sort.Float64s and the default thresholds: the suspects' indices.
func downweightSortRef(ref Solution, obs []Observation) []int {
	resid := make([]float64, len(obs))
	for i, o := range obs {
		resid[i] = o.Pseudorange - (o.Pos.DistanceTo(ref.Pos) + ref.ClockBias)
	}
	order := append([]float64(nil), resid...)
	sort.Float64s(order)
	med := median(order)
	for i, r := range resid {
		order[i] = math.Abs(r - med)
	}
	sort.Float64s(order)
	scale := 1.4826 * median(order)
	var suspects []int
	for i, r := range resid {
		if dev := math.Abs(r - med); dev > 8 && dev > 3.5*scale {
			suspects = append(suspects, i)
		}
	}
	return suspects
}

// TestDownweightMatchesSortReference: on random 6–16 satellite epochs
// with tied residuals and biased satellites, Downweight flags the
// suspects the sort.Float64s form flags and inflates exactly their σ.
func TestDownweightMatchesSortReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	recv := yyr1()
	ref := Solution{Pos: recv, ClockBias: 40}
	var det DisruptionDetector
	flagged := 0
	for trial := 0; trial < 5000; trial++ {
		m := 6 + r.Intn(11)
		noise := randomResiduals(r, m)
		obs := make([]Observation, m)
		for i := range obs {
			sat := geo.ECEF{X: 2e7 * (r.Float64() - 0.5), Y: 2e7 * (r.Float64() - 0.5), Z: 2.2e7}
			bias := noise[i]
			if r.Intn(6) == 0 {
				bias += 30 + 50*r.Float64()
			}
			obs[i] = Observation{Pos: sat, Pseudorange: recv.DistanceTo(sat) + ref.ClockBias + bias, Sigma: 0.5 + r.Float64()}
		}
		want := downweightSortRef(ref, obs)
		before := append([]Observation(nil), obs...)
		if n := det.Downweight(ref, obs); n != len(want) {
			t.Fatalf("trial %d: %d suspects, sort reference %d", trial, n, len(want))
		}
		flagged += len(want)
		for i := range obs {
			wantSigma := before[i].Sigma
			for _, k := range want {
				if k == i {
					wantSigma *= 32
				}
			}
			if math.Float64bits(obs[i].Sigma) != math.Float64bits(wantSigma) {
				t.Fatalf("trial %d obs %d: σ %v, want %v", trial, i, obs[i].Sigma, wantSigma)
			}
		}
	}
	if flagged == 0 {
		t.Fatal("no trial flagged a suspect; the comparison saw only quiet epochs")
	}
}
