package orbit

import (
	"math"
	"testing"
	"unsafe"

	"gpsdl/internal/geo"
)

// testElements is an eccentric, precessing orbit so every velocity term
// (radial, transverse, nodal) is exercised.
var testElements = Elements{
	SemiMajorAxis: NominalSemiMajorAxis,
	Eccentricity:  0.008,
	Inclination:   55 * math.Pi / 180,
	RAAN:          1.1,
	RAANRate:      -8.0e-9,
	ArgPerigee:    0.7,
	MeanAnomaly:   2.3,
	Toe:           0,
}

// TestStateECIVelocityMatchesFiniteDifference: the analytic inertial
// velocity agrees with a central difference of the inertial position.
func TestStateECIVelocityMatchesFiniteDifference(t *testing.T) {
	const h = 1.0
	for _, tt := range []float64{0, 1234.5, 40000, 86399} {
		_, vel, err := testElements.StateECI(tt)
		if err != nil {
			t.Fatal(err)
		}
		p1, err := testElements.PositionECI(tt - h)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := testElements.PositionECI(tt + h)
		if err != nil {
			t.Fatal(err)
		}
		num := p2.Sub(p1).Scale(1 / (2 * h))
		if d := vel.Sub(num).Norm(); d > 1e-3 {
			t.Errorf("t=%v: |analytic - numeric| = %v m/s (analytic %v)", tt, d, vel)
		}
		// Sanity: GPS orbital speed is ~3.9 km/s.
		if s := vel.Norm(); s < 3700 || s > 4100 {
			t.Errorf("t=%v: speed %v m/s outside GPS range", tt, s)
		}
	}
}

// TestStateECIPositionMatchesPositionECI: StateECI's position is the same
// value PositionECI reports (PositionECI delegates, but pin it).
func TestStateECIPositionMatchesPositionECI(t *testing.T) {
	for _, tt := range []float64{0, 777.25, 86399} {
		pos, _, err := testElements.StateECI(tt)
		if err != nil {
			t.Fatal(err)
		}
		p, err := testElements.PositionECI(tt)
		if err != nil {
			t.Fatal(err)
		}
		if pos != p {
			t.Errorf("t=%v: StateECI pos %v != PositionECI %v", tt, pos, p)
		}
	}
}

// TestStateAtMatchesPerSatellitePropagation: the batch propagation holds,
// for every satellite, exactly the ECEF position PositionECEF computes
// and a two-body acceleration consistent with a velocity difference.
func TestStateAtMatchesPerSatellitePropagation(t *testing.T) {
	cons := DefaultConstellation()
	var st EpochState
	const tt = 5417.0
	if err := cons.StateAt(tt, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Sats) != DefaultSatCount {
		t.Fatalf("propagated %d satellites, want %d", len(st.Sats), DefaultSatCount)
	}
	for _, s := range st.Sats {
		want, err := s.Sat.Orbit.PositionECEF(tt)
		if err != nil {
			t.Fatal(err)
		}
		if s.Pos != want {
			t.Errorf("PRN %d: StateAt pos %v != PositionECEF %v", s.Sat.PRN, s.Pos, want)
		}
		// Acceleration check against a velocity central difference.
		const h = 1.0
		_, v1, err := s.Sat.Orbit.StateECI(tt - h)
		if err != nil {
			t.Fatal(err)
		}
		_, v2, err := s.Sat.Orbit.StateECI(tt + h)
		if err != nil {
			t.Fatal(err)
		}
		num := v2.Sub(v1).Scale(1 / (2 * h))
		if d := s.AccECI.Sub(num).Norm(); d > 1e-4 {
			t.Errorf("PRN %d: |two-body acc - numeric| = %v m/s²", s.Sat.PRN, d)
		}
	}
}

// TestEmissionMatchesExactLightTime: the Taylor-expanded emission solver
// agrees with an exact (re-propagated) light-time iteration to well under
// a micrometer — far below measurement noise, and small enough that the
// Taylor form can serve cached and uncached paths identically.
func TestEmissionMatchesExactLightTime(t *testing.T) {
	recv := geo.FromDegrees(31.1, 121.4, 20).ToECEF()
	cons := DefaultConstellation()
	var st EpochState
	const tt = 43197.0
	if err := cons.StateAt(tt, &st); err != nil {
		t.Fatal(err)
	}
	for i := range st.Sats {
		s := &st.Sats[i]
		gotPos, gotDist := s.Emission(recv, RotationAt(tt))

		// Exact reference: re-propagate the orbit at each light-time
		// iterate and rotate the emission-time ECEF position by the
		// travel time (the historical two-rotation formulation).
		tau := 0.075
		var refPos geo.ECEF
		var refDist float64
		for it := 0; it < 6; it++ {
			p, err := s.Sat.Orbit.PositionECEF(tt - tau)
			if err != nil {
				t.Fatal(err)
			}
			refPos = geo.RotateEarth(p, tau)
			refDist = recv.DistanceTo(refPos)
			tau = refDist / geo.SpeedOfLight
		}
		if d := gotPos.Sub(refPos).Norm(); d > 1e-6 {
			t.Errorf("PRN %d: emission position differs from exact by %v m", s.Sat.PRN, d)
		}
		if d := math.Abs(gotDist - refDist); d > 1e-6 {
			t.Errorf("PRN %d: emission range differs from exact by %v m", s.Sat.PRN, d)
		}
		// The satellite moves ~290 m during the ~75 ms flight; make sure
		// the solver actually corrected for it.
		if d := gotPos.Sub(s.Pos).Norm(); d < 100 || d > 1000 {
			t.Errorf("PRN %d: emission offset %v m from reception-time position, want ~290 m", s.Sat.PRN, d)
		}
	}
}

// TestVisibleMatchesIndependentGeometry: VisibleFromState's look angles equal an
// independent elevation/azimuth computation from the same positions, and
// each entry's State points back at the satellite that produced it.
func TestVisibleMatchesIndependentGeometry(t *testing.T) {
	recv := geo.FromDegrees(-33.9, 18.5, 100).ToECEF()
	cons := DefaultConstellation()
	const tt = 8000.0
	vis, err := visible(cons, recv, tt, 7*math.Pi/180)
	if err != nil {
		t.Fatal(err)
	}
	if len(vis) < 6 {
		t.Fatalf("only %d satellites visible", len(vis))
	}
	for _, v := range vis {
		if v.State == nil {
			t.Fatal("visible entry without a State")
		}
		prn := v.State.Sat.PRN
		if want, err := v.State.Sat.Orbit.PositionECEF(tt); err != nil || v.State.Pos != want {
			t.Errorf("PRN %d: State position %v, want the satellite's own %v (%v)", prn, v.State.Pos, want, err)
		}
		elev, azim := geo.ElevationAzimuth(recv, v.State.Pos)
		if v.Elevation != elev || v.Azimuth != azim {
			t.Errorf("PRN %d: look angles (%v, %v) != independent (%v, %v)",
				prn, v.Elevation, v.Azimuth, elev, azim)
		}
	}
}

// TestStateAtFootprint pins what an epoch-cache entry costs: a state
// points into the constellation instead of copying its satellite (at
// most 104 bytes), and StateAt sizes a fresh Sats slice once, at the
// constellation's length.
func TestStateAtFootprint(t *testing.T) {
	if n := unsafe.Sizeof(SatState{}); n > 104 {
		t.Fatalf("SatState is %d bytes, want ≤ 104", n)
	}
	cons := DefaultConstellation()
	var st EpochState
	if n := testing.AllocsPerRun(10, func() {
		st = EpochState{}
		if err := cons.StateAt(100, &st); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("StateAt into an empty state: %v allocations, want 1", n)
	}
	if cap(st.Sats) != DefaultSatCount {
		t.Fatalf("Sats capacity %d, want %d", cap(st.Sats), DefaultSatCount)
	}
	if st.Sats[3].Sat != &cons.sats[3] {
		t.Fatal("SatState.Sat does not point into the constellation")
	}
}
