package atmosphere

import (
	"math"
	"math/rand"
	"testing"
)

// samePow10 reports whether pow10(y) and math.Pow(10, y) are the same
// float64, bit for bit (any NaN matches any NaN).
func samePow10(y float64) (got, want float64, ok bool) {
	got, want = pow10(y), math.Pow(10, y)
	if math.IsNaN(got) && math.IsNaN(want) {
		return got, want, true
	}
	return got, want, math.Float64bits(got) == math.Float64bits(want)
}

// TestPow10MatchesPow: the C/N0 weight's pow10 is math.Pow(10, ·) bit for
// bit over the C/N0 range, over ±300, on random finite bit patterns and
// on the special and boundary exponents.
func TestPow10MatchesPow(t *testing.T) {
	check := func(set string, y float64) {
		t.Helper()
		if got, want, ok := samePow10(y); !ok {
			t.Fatalf("%s: pow10(%v) = %v (%#x), math.Pow = %v (%#x)",
				set, y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	const n = 200000
	for k := 0; k <= n; k++ {
		// SigmaFromCN0's exponent for C/N0 over (0, 100] dB-Hz.
		cn0 := 100 * float64(k+1) / (n + 1)
		check("C/N0 range", (CN0RefDBHz-cn0)/20)
		check("±300", -300+600*float64(k)/n)
	}
	r := rand.New(rand.NewSource(1))
	for k := 0; k < n; {
		y := math.Float64frombits(r.Uint64())
		if math.IsNaN(y) || math.IsInf(y, 0) {
			continue
		}
		check("random bits", y)
		k++
	}
	for _, y := range []float64{0, math.Copysign(0, -1), 0.5, -0.5, 1, -1, 22, -22,
		308, -308, 400, -400, math.Inf(1), math.Inf(-1), math.NaN(),
		0x1p63, -0x1p63, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64} {
		check("special", y)
	}
}

// FuzzPow10 checks pow10 against math.Pow(10, y) on arbitrary exponents.
func FuzzPow10(f *testing.F) {
	for _, y := range []float64{0, 0.5, -0.5, 1, -1.35, 22, -308, 400, 0x1p63} {
		f.Add(y)
	}
	f.Fuzz(func(t *testing.T, y float64) {
		if got, want, ok := samePow10(y); !ok {
			t.Fatalf("pow10(%v) = %v, math.Pow = %v", y, got, want)
		}
	})
}

// BenchmarkSigmaFromCN0 is the per-observation C/N0 weight of the
// weighted solve paths.
func BenchmarkSigmaFromCN0(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += SigmaFromCN0(30 + float64(i&15))
	}
	sigmaSink = sink
}

var sigmaSink float64
