package fault

import (
	"math"
	"testing"

	"gpsdl/internal/geo"
	"gpsdl/internal/scenario"
)

// noiseEpoch is an epoch with one observation per PRN 1..32.
func noiseEpoch() []scenario.SatObs {
	obs := make([]scenario.SatObs, 32)
	for i := range obs {
		obs[i] = scenario.SatObs{PRN: i + 1, Pos: geo.ECEF{X: 2e7}, Pseudorange: 2.2e7, CN0: 44}
	}
	return obs
}

// noiseDeltas runs a single-clause program over n epochs of noiseEpoch
// and returns every event's delta in (epoch, PRN) order.
func noiseDeltas(t *testing.T, kind Kind, sigma float64, seed int64, epochs int) []float64 {
	t.Helper()
	in := NewInjector(Program{{Kind: kind, Sigma: sigma, From: 0, Until: math.Inf(1)}}, seed)
	obs := noiseEpoch()
	var dst []scenario.SatObs
	var ev []Event
	out := make([]float64, 0, epochs*len(obs))
	for e := 0; e < epochs; e++ {
		dst, ev = in.Apply(100+float64(e)*0.5, obs, dst[:0], ev[:0])
		if len(ev) != len(obs) {
			t.Fatalf("%v epoch %d: %d events, want %d", kind, e, len(ev), len(obs))
		}
		for _, x := range ev {
			out = append(out, x.Delta)
		}
	}
	return out
}

// TestNoiseDrawDistribution: burst and jam deltas are zero-mean Gaussian
// draws with standard deviation Sigma — the statistical contract the
// noise stream must keep whatever generator backs it.
func TestNoiseDrawDistribution(t *testing.T) {
	const sigma = 12.0
	for _, kind := range []Kind{KindBurst, KindJam} {
		d := noiseDeltas(t, kind, sigma, 5, 500)
		n := float64(len(d))
		var sum, sq float64
		for _, v := range d {
			sum += v
		}
		mean := sum / n
		for _, v := range d {
			sq += (v - mean) * (v - mean)
		}
		std := math.Sqrt(sq / (n - 1))
		if lim := 4 * sigma / math.Sqrt(n); math.Abs(mean) > lim {
			t.Errorf("%v: mean %.4f over %d draws, want |mean| < %.4f", kind, mean, len(d), lim)
		}
		if math.Abs(std/sigma-1) > 0.03 {
			t.Errorf("%v: std %.4f, want within 3%% of %g", kind, std, sigma)
		}
	}
}

// TestBurstJamUncorrelated: at the same (seed, PRN, t) the burst and jam
// streams are independent, so overlapping clauses add noise power.
func TestBurstJamUncorrelated(t *testing.T) {
	b := noiseDeltas(t, KindBurst, 1, 9, 400)
	j := noiseDeltas(t, KindJam, 1, 9, 400)
	var sb, sj, sbb, sjj, sbj float64
	for i := range b {
		sb += b[i]
		sj += j[i]
		sbb += b[i] * b[i]
		sjj += j[i] * j[i]
		sbj += b[i] * j[i]
	}
	n := float64(len(b))
	cov := sbj/n - (sb/n)*(sj/n)
	r := cov / math.Sqrt((sbb/n-(sb/n)*(sb/n))*(sjj/n-(sj/n)*(sj/n)))
	if math.Abs(r) >= 0.03 {
		t.Errorf("burst/jam correlation %.4f over %d pairs, want |r| < 0.03", r, len(b))
	}
}

// TestApplyBurstZeroAlloc: inside an active burst window Apply draws
// its noise without allocating (a math/rand source per observation used
// to cost ~4.9 KB each).
func TestApplyBurstZeroAlloc(t *testing.T) {
	in := NewInjector(Program{
		{Kind: KindStep, PRN: 3, Bias: 60, From: 0, Until: 1000},
		{Kind: KindBurst, Sigma: 12, From: 0, Until: 1000},
		{Kind: KindJam, Sigma: 4, From: 0, Until: 1000},
	}, 1)
	obs := noiseEpoch()
	dst := make([]scenario.SatObs, 0, len(obs))
	ev := make([]Event, 0, 4*len(obs))
	allocs := testing.AllocsPerRun(100, func() {
		dst, ev = in.Apply(500, obs, dst[:0], ev[:0])
	})
	if allocs != 0 {
		t.Errorf("Apply in a burst window makes %v allocations, want 0", allocs)
	}
}
