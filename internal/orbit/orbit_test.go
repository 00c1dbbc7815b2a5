package orbit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gpsdl/internal/geo"
)

func TestSolveKeplerCircular(t *testing.T) {
	// For e = 0, E = M exactly.
	for _, m := range []float64{0, 0.5, 1, math.Pi / 2, 3} {
		e, err := SolveKepler(m, 0)
		if err != nil {
			t.Fatalf("SolveKepler(%v, 0): %v", m, err)
		}
		if math.Abs(e-m) > 1e-14 {
			t.Errorf("SolveKepler(%v, 0) = %v, want %v", m, e, m)
		}
	}
}

func TestSolveKeplerRejectsBadEccentricity(t *testing.T) {
	for _, ecc := range []float64{-0.1, 1, 1.5} {
		if _, err := SolveKepler(1, ecc); err == nil {
			t.Errorf("SolveKepler(1, %v) succeeded", ecc)
		}
	}
}

// Property: the solution satisfies Kepler's equation E − e·sinE = M (mod 2π).
func TestPropKeplerEquationSatisfied(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := (r.Float64() - 0.5) * 4 * math.Pi
		ecc := r.Float64() * 0.97
		e, err := SolveKepler(m, ecc)
		if err != nil {
			return false
		}
		back := e - ecc*math.Sin(e)
		diff := math.Mod(back-m, 2*math.Pi)
		if diff > math.Pi {
			diff -= 2 * math.Pi
		}
		if diff < -math.Pi {
			diff += 2 * math.Pi
		}
		return math.Abs(diff) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func nominalElements() Elements {
	return Elements{
		SemiMajorAxis: NominalSemiMajorAxis,
		Eccentricity:  0.01,
		Inclination:   NominalInclination,
		RAAN:          0.3,
		RAANRate:      -8e-9,
		ArgPerigee:    1.1,
		MeanAnomaly:   0.7,
		Toe:           0,
	}
}

func TestMeanMotionAndPeriod(t *testing.T) {
	e := nominalElements()
	// GPS period is about half a sidereal day: 11 h 58 m ≈ 43 080 s.
	p := e.Period()
	if p < 42900 || p < 0 || p > 43300 {
		t.Errorf("Period = %v s, want ≈43 080 s", p)
	}
}

func TestOrbitRadiusBounds(t *testing.T) {
	e := nominalElements()
	a, ecc := e.SemiMajorAxis, e.Eccentricity
	for ti := 0; ti < 48; ti++ {
		tt := float64(ti) * 1800
		p, err := e.PositionECI(tt)
		if err != nil {
			t.Fatal(err)
		}
		r := p.Norm()
		if r < a*(1-ecc)-1 || r > a*(1+ecc)+1 {
			t.Errorf("t=%v: radius %v outside [%v, %v]", tt, r, a*(1-ecc), a*(1+ecc))
		}
	}
}

// Property: inertial motion is periodic with period P (ignoring nodal
// precession, which we zero here).
func TestPropOrbitPeriodicity(t *testing.T) {
	e := nominalElements()
	e.RAANRate = 0
	p := e.Period()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		t0 := r.Float64() * 86400
		p1, err1 := e.PositionECI(t0)
		p2, err2 := e.PositionECI(t0 + p)
		if err1 != nil || err2 != nil {
			return false
		}
		return p1.DistanceTo(p2) < 1 // meters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPositionECEFMatchesRotatedECI(t *testing.T) {
	e := nominalElements()
	for _, tt := range []float64{0, 100, 3600, 86400} {
		eci, err := e.PositionECI(tt)
		if err != nil {
			t.Fatal(err)
		}
		ecef, err := e.PositionECEF(tt)
		if err != nil {
			t.Fatal(err)
		}
		want := geo.RotateEarth(eci, tt)
		if ecef.DistanceTo(want) > 1e-6 {
			t.Errorf("t=%v: ECEF %v != rotated ECI %v", tt, ecef, want)
		}
	}
}

func TestVelocityMagnitude(t *testing.T) {
	// GPS orbital speed is ≈3.9 km/s (inertial); in ECEF the apparent
	// speed differs by the frame rotation (≈up to ±2 km/s at orbit
	// radius), so accept a broad physical window.
	e := nominalElements()
	p1, err := e.PositionECEF(7200 - 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.PositionECEF(7200 + 0.5)
	if err != nil {
		t.Fatal(err)
	}
	speed := p2.Sub(p1).Norm() // central difference over 1 s
	if speed < 1500 || speed > 6000 {
		t.Errorf("ECEF speed = %v m/s, want 1.5-6 km/s", speed)
	}
}

func TestDefaultConstellationShape(t *testing.T) {
	c := DefaultConstellation()
	sats := c.Satellites()
	if len(sats) != DefaultSatCount {
		t.Fatalf("%d satellites, want %d", len(sats), DefaultSatCount)
	}
	prns := make(map[int]bool, len(sats))
	planes := make(map[float64]int)
	for _, s := range sats {
		if prns[s.PRN] {
			t.Errorf("duplicate PRN %d", s.PRN)
		}
		prns[s.PRN] = true
		planes[s.Orbit.RAAN]++
		if s.Orbit.Eccentricity < 0 || s.Orbit.Eccentricity > 0.02 {
			t.Errorf("PRN %d eccentricity %v not near-circular", s.PRN, s.Orbit.Eccentricity)
		}
		if math.Abs(s.Orbit.Inclination-NominalInclination) > 1e-12 {
			t.Errorf("PRN %d inclination %v", s.PRN, s.Orbit.Inclination)
		}
	}
	if len(planes) != OrbitalPlanes {
		t.Errorf("constellation has %d distinct planes, want %d", len(planes), OrbitalPlanes)
	}
}

func TestSatellitesReturnsCopy(t *testing.T) {
	c := DefaultConstellation()
	sats := c.Satellites()
	sats[0].PRN = 999
	if c.Satellites()[0].PRN == 999 {
		t.Error("Satellites returned aliasing slice")
	}
}

// visible lists the satellites above elevMask as seen from receiver at
// time t: the constellation propagated by StateAt, filtered by
// VisibleFromState.
func visible(c *Constellation, receiver geo.ECEF, t, elevMask float64) ([]InView, error) {
	var st EpochState
	if err := c.StateAt(t, &st); err != nil {
		return nil, err
	}
	return VisibleFromState(&st, receiver, elevMask), nil
}

func TestVisibleCountIsRealistic(t *testing.T) {
	// The paper (Section 3.1) says a receiver sees 6-10+ satellites;
	// Section 5.2.1 reports 8-12 per epoch. Check across a day at one of
	// the Table 5.1 stations with a 5° mask.
	c := DefaultConstellation()
	station := geo.ECEF{X: 1885341.558, Y: -3321428.098, Z: 5091171.168} // YYR1
	mask := 5 * math.Pi / 180
	minSeen, maxSeen := 99, 0
	for h := 0; h < 24; h++ {
		vis, err := visible(c, station, float64(h)*3600, mask)
		if err != nil {
			t.Fatal(err)
		}
		if len(vis) < minSeen {
			minSeen = len(vis)
		}
		if len(vis) > maxSeen {
			maxSeen = len(vis)
		}
	}
	if minSeen < 4 {
		t.Errorf("min visible = %d, want >= 4 (positioning impossible otherwise)", minSeen)
	}
	if maxSeen > 16 {
		t.Errorf("max visible = %d, implausibly high", maxSeen)
	}
	t.Logf("visible range over 24h: %d-%d satellites", minSeen, maxSeen)
}

func TestVisibleSortedByElevation(t *testing.T) {
	c := DefaultConstellation()
	station := geo.ECEF{X: 3623420.032, Y: -5214015.434, Z: 602359.096} // SRZN
	vis, err := visible(c, station, 12345, 5*math.Pi/180)
	if err != nil {
		t.Fatal(err)
	}
	if len(vis) < 2 {
		t.Skip("too few visible to check ordering")
	}
	for i := 1; i < len(vis); i++ {
		if vis[i].Elevation > vis[i-1].Elevation {
			t.Errorf("Visible not sorted: elev[%d]=%v > elev[%d]=%v",
				i, vis[i].Elevation, i-1, vis[i-1].Elevation)
		}
	}
	// All above mask.
	for _, v := range vis {
		if v.Elevation < 5*math.Pi/180 {
			t.Errorf("PRN %d below mask: %v", v.State.Sat.PRN, v.Elevation)
		}
	}
}

func TestVisibleSatellitesAreAboveHorizonGeometrically(t *testing.T) {
	c := DefaultConstellation()
	station := geo.ECEF{X: -2304740.630, Y: -1448716.218, Z: 5748842.956} // FAI1
	vis, err := visible(c, station, 43210, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vis {
		// Dot of station->sat direction with local up must be positive.
		if (v.State.Pos.Sub(station)).Dot(station) < 0 {
			t.Errorf("PRN %d reported visible but below geometric horizon", v.State.Sat.PRN)
		}
	}
}
