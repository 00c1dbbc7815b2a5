package rng

import (
	"math"
	"testing"
)

// TestStreamDeterminism: identical seeds give identical sequences; the
// stream is a value, so a copy forks it.
func TestStreamDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Errorf("adjacent seeds shared %d of 100 draws", same)
	}
}

// TestFloat64Range: uniform draws stay in [0, 1) and fill the unit
// interval roughly evenly.
func TestFloat64Range(t *testing.T) {
	s := New(7)
	var buckets [10]int
	const n = 100000
	for i := 0; i < n; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		buckets[int(f*10)]++
	}
	for i, c := range buckets {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Errorf("bucket %d has %d draws, want ~%d", i, c, n/10)
		}
	}
}

// TestNormFloat64Moments: the polar-method normal has mean ~0, variance
// ~1, and near-Gaussian tail mass.
func TestNormFloat64Moments(t *testing.T) {
	s := New(2009)
	const n = 200000
	var sum, sumSq float64
	tail := 0
	for i := 0; i < n; i++ {
		x := s.NormFloat64()
		sum += x
		sumSq += x * x
		if math.Abs(x) > 1.959964 {
			tail++
		}
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("variance = %v, want ~1", variance)
	}
	// P(|Z| > 1.96) = 5%.
	frac := float64(tail) / n
	if frac < 0.045 || frac > 0.055 {
		t.Errorf("two-sided 1.96-sigma tail mass = %v, want ~0.05", frac)
	}
}

// TestMix64Aliasing pins the property the engine's session seeds rely
// on: mixing breaks the additive aliasing (s, r) ~ (s-1, r+1).
func TestMix64Aliasing(t *testing.T) {
	if Mix64(7) == Mix64(6)+1 {
		t.Error("Mix64 preserved additive structure")
	}
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 50; seed++ {
		for r := uint64(0); r < 50; r++ {
			v := Mix64(Mix64(seed) + r)
			if seen[v] {
				t.Fatalf("collision at seed=%d r=%d", seed, r)
			}
			seen[v] = true
		}
	}
}

func BenchmarkStreamSeedAndDraw(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		s := New(int64(i))
		sink += s.NormFloat64()
	}
	_ = sink
}
