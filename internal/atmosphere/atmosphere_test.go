package atmosphere

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIonoDelayDiurnalShape(t *testing.T) {
	// Peak at 14:00 local, quiet floor at night.
	peak := IonoDelay(math.Pi/2, IonoPeakLocalTime)
	night := IonoDelay(math.Pi/2, 3*3600)
	if peak <= night {
		t.Errorf("peak %v <= night %v", peak, night)
	}
	// The Klobuchar obliquity is 1.0004 (not exactly 1) at zenith, so
	// compare with a percent-level tolerance.
	if math.Abs(night-ZenithIonoQuietM) > 0.01*ZenithIonoQuietM {
		t.Errorf("night zenith delay = %v, want ≈%v", night, ZenithIonoQuietM)
	}
	wantPeak := ZenithIonoQuietM + ZenithIonoPeakM
	if math.Abs(peak-wantPeak) > 0.01*wantPeak {
		t.Errorf("peak zenith delay = %v, want ≈%v", peak, wantPeak)
	}
}

func TestIonoDelayElevationDependence(t *testing.T) {
	// Delay grows monotonically as elevation decreases.
	lt := 12 * 3600.0
	prev := IonoDelay(math.Pi/2, lt)
	for deg := 85; deg >= 5; deg -= 5 {
		e := float64(deg) * math.Pi / 180
		d := IonoDelay(e, lt)
		if d < prev-1e-12 {
			t.Fatalf("delay not monotone: %v° -> %v m < %v m", deg, d, prev)
		}
		prev = d
	}
	// Horizon delay is a few times the zenith delay, not unbounded.
	horizon := IonoDelay(0, lt)
	zenith := IonoDelay(math.Pi/2, lt)
	if horizon < 2*zenith || horizon > 5*zenith {
		t.Errorf("horizon/zenith ratio = %v, want 2-5×", horizon/zenith)
	}
}

func TestIonoDelayClampsNegativeElevation(t *testing.T) {
	if got, want := IonoDelay(-0.1, 0), IonoDelay(0, 0); got != want {
		t.Errorf("negative elevation not clamped: %v vs %v", got, want)
	}
}

func TestTropoDelayMagnitudes(t *testing.T) {
	// Zenith, sea level: ≈2.4 m.
	if got := TropoDelay(math.Pi/2, 0); math.Abs(got-ZenithTropoSeaLevelM) > 1e-9 {
		t.Errorf("zenith sea-level = %v, want %v", got, ZenithTropoSeaLevelM)
	}
	// 5° elevation: roughly 1/sin(5°) ≈ 11.5× zenith.
	e5 := 5 * math.Pi / 180
	got := TropoDelay(e5, 0)
	want := ZenithTropoSeaLevelM / math.Sin(e5)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("5° slant = %v, want %v", got, want)
	}
	// Altitude thins the troposphere.
	if TropoDelay(math.Pi/2, 5000) >= TropoDelay(math.Pi/2, 0) {
		t.Error("altitude did not reduce tropo delay")
	}
}

func TestTropoDelayHorizonFloor(t *testing.T) {
	// Below 3° the mapping is floored: no singularity.
	atZero := TropoDelay(0, 0)
	atFloor := TropoDelay(3*math.Pi/180, 0)
	if atZero != atFloor {
		t.Errorf("horizon delay %v != floor delay %v", atZero, atFloor)
	}
	if math.IsInf(atZero, 0) || atZero > 60 {
		t.Errorf("horizon delay = %v, want bounded", atZero)
	}
}

func TestMultipathSigmaProfile(t *testing.T) {
	horizon := MultipathSigma(0)
	mid := MultipathSigma(math.Pi / 4)
	zenith := MultipathSigma(math.Pi / 2)
	if !(horizon > mid && mid > zenith) {
		t.Errorf("multipath not decreasing: %v, %v, %v", horizon, mid, zenith)
	}
	if zenith > 0.05 {
		t.Errorf("zenith multipath = %v m, want negligible", zenith)
	}
	if horizon < 0.5 || horizon > 3 {
		t.Errorf("horizon multipath = %v m, want O(1 m)", horizon)
	}
}

// Property: all delays are non-negative and finite over the whole domain.
func TestPropDelaysFiniteNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		elev := r.Float64() * math.Pi / 2
		lt := r.Float64() * 86400
		alt := r.Float64() * 4000
		iono := IonoDelay(elev, lt)
		tropo := TropoDelay(elev, alt)
		mp := MultipathSigma(elev)
		for _, v := range []float64{iono, tropo, mp} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestIonoObliquityMatchesPow: the cube by two multiplications is the
// old math.Pow form bit for bit, over random elevations in [0, π/2] and
// the interval's ends.
func TestIonoObliquityMatchesPow(t *testing.T) {
	pow := func(elev float64) float64 {
		f := 1 + 16*math.Pow(0.53-elev/math.Pi, 3)
		if f < 1 {
			f = 1
		}
		return f
	}
	r := rand.New(rand.NewSource(29))
	elevs := []float64{0, math.Pi / 2, 0.53 * math.Pi}
	for i := 0; i < 200000; i++ {
		elevs = append(elevs, r.Float64()*math.Pi/2)
	}
	for _, e := range elevs {
		if got, want := IonoObliquity(e), pow(e); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("IonoObliquity(%v) = %v, math.Pow form %v", e, got, want)
		}
	}
}

// TestDelayFactors: each delay is the product of its factors, and the
// factors carry the model's clamps.
func TestDelayFactors(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		elev := r.Float64() * math.Pi / 2
		lt := r.Float64() * 86400
		alt := r.Float64()*5000 - 100
		if got, want := IonoDelay(elev, lt), IonoVertical(lt)*IonoObliquity(elev); got != want {
			t.Fatalf("IonoDelay(%v, %v) = %v, factors give %v", elev, lt, got, want)
		}
		if got, want := TropoDelay(elev, alt), TropoSlant(TropoZenith(alt), elev); got != want {
			t.Fatalf("TropoDelay(%v, %v) = %v, factors give %v", elev, alt, got, want)
		}
	}
	if got := TropoZenith(-50); got != ZenithTropoSeaLevelM {
		t.Errorf("TropoZenith below sea level = %v, want %v", got, ZenithTropoSeaLevelM)
	}
	if IonoObliquity(-0.2) != IonoObliquity(0) {
		t.Error("IonoObliquity does not clamp negative elevations")
	}
}
