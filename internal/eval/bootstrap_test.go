package eval

import (
	"math"
	"math/rand"
	"testing"
)

func TestBootstrapRatioCIValidation(t *testing.T) {
	if _, _, err := BootstrapRatioCI([]float64{1}, []float64{1, 2}, 100, 0.95, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := BootstrapRatioCI(make([]float64, 20), make([]float64, 20), 100, 1.5, 1); err == nil {
		t.Error("bad confidence accepted")
	}
	nan := make([]float64, 20)
	for i := range nan {
		nan[i] = math.NaN()
	}
	if _, _, err := BootstrapRatioCI(nan, nan, 100, 0.95, 1); err == nil {
		t.Error("all-NaN pairs accepted")
	}
}

func TestBootstrapRatioCICoversTruth(t *testing.T) {
	// y ~ |N(0,1)|+1, x = 1.2·y + tiny noise: true ratio 120%.
	rng := rand.New(rand.NewSource(6))
	n := 2000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = 1 + math.Abs(rng.NormFloat64())
		x[i] = 1.2*y[i] + 0.01*rng.NormFloat64()
	}
	lo, hi, err := BootstrapRatioCI(x, y, 2000, 0.95, 7)
	if err != nil {
		t.Fatal(err)
	}
	if lo > 120 || hi < 120 {
		t.Errorf("CI [%.2f, %.2f] does not cover 120", lo, hi)
	}
	if hi-lo > 5 {
		t.Errorf("CI [%.2f, %.2f] implausibly wide for paired data", lo, hi)
	}
	if lo >= hi {
		t.Errorf("degenerate CI [%v, %v]", lo, hi)
	}
}

func TestBootstrapSkipsNaNPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 500
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = 1 + rng.Float64()
		x[i] = y[i] // ratio exactly 100%
		if i%7 == 0 {
			x[i] = math.NaN()
		}
	}
	lo, hi, err := BootstrapRatioCI(x, y, 500, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lo > 100 || hi < 100 {
		t.Errorf("CI [%v, %v] does not cover 100", lo, hi)
	}
}
