package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const (
	posTol = 1e-6 // meters, for round-trip position checks
	angTol = 1e-9 // radians
)

func TestVectorOps(t *testing.T) {
	p := ECEF{1, 2, 3}
	q := ECEF{4, 5, 6}
	if got := p.Add(q); got != (ECEF{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := q.Sub(p); got != (ECEF{3, 3, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (ECEF{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := (ECEF{3, 4, 0}).Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := p.DistanceTo(q); math.Abs(got-math.Sqrt(27)) > 1e-12 {
		t.Errorf("DistanceTo = %v", got)
	}
}

func TestLLAToECEFKnownPoints(t *testing.T) {
	tests := []struct {
		name string
		lla  LLA
		want ECEF
		tol  float64
	}{
		{
			name: "equator prime meridian",
			lla:  FromDegrees(0, 0, 0),
			want: ECEF{SemiMajorAxis, 0, 0},
			tol:  1e-6,
		},
		{
			name: "north pole",
			lla:  FromDegrees(90, 0, 0),
			want: ECEF{0, 0, 6356752.314245},
			tol:  1e-3,
		},
		{
			name: "equator 90E",
			lla:  FromDegrees(0, 90, 0),
			want: ECEF{0, SemiMajorAxis, 0},
			tol:  1e-6,
		},
		{
			name: "equator with altitude",
			lla:  FromDegrees(0, 0, 1000),
			want: ECEF{SemiMajorAxis + 1000, 0, 0},
			tol:  1e-6,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.lla.ToECEF()
			if got.DistanceTo(tt.want) > tt.tol {
				t.Errorf("ToECEF = %v, want %v", got, tt.want)
			}
		})
	}
}

// The paper's Table 5.1 station coordinates should convert to plausible
// terrestrial geodetic positions (|lat| <= 90°, altitude within ±1 km of
// the ellipsoid for CORS ground stations).
func TestTable51StationsArePlausible(t *testing.T) {
	stations := []struct {
		id  string
		pos ECEF
	}{
		{"SRZN", ECEF{3623420.032, -5214015.434, 602359.096}},
		{"YYR1", ECEF{1885341.558, -3321428.098, 5091171.168}},
		{"FAI1", ECEF{-2304740.630, -1448716.218, 5748842.956}},
		{"KYCP", ECEF{411598.861, -5060514.896, 3847795.506}},
	}
	for _, s := range stations {
		t.Run(s.id, func(t *testing.T) {
			lla := s.pos.ToLLA()
			latDeg, lonDeg := lla.Degrees()
			if math.Abs(latDeg) > 90 || math.Abs(lonDeg) > 180 {
				t.Errorf("implausible lat/lon %v/%v", latDeg, lonDeg)
			}
			if lla.Alt < -500 || lla.Alt > 5000 {
				t.Errorf("implausible station altitude %v m", lla.Alt)
			}
			// Round trip must return the exact published coordinates.
			back := lla.ToECEF()
			if back.DistanceTo(s.pos) > posTol {
				t.Errorf("round trip error %v m", back.DistanceTo(s.pos))
			}
		})
	}
}

// Property: LLA -> ECEF -> LLA round-trips for random terrestrial points.
func TestPropLLARoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lla := LLA{
			Lat: (r.Float64() - 0.5) * math.Pi * 0.998, // avoid exact poles
			Lon: (r.Float64() - 0.5) * 2 * math.Pi,
			Alt: r.Float64()*30000 - 500,
		}
		back := lla.ToECEF().ToLLA()
		return math.Abs(back.Lat-lla.Lat) < angTol &&
			math.Abs(angleDiff(back.Lon, lla.Lon)) < angTol &&
			math.Abs(back.Alt-lla.Alt) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestECEFToLLAPolarAxis(t *testing.T) {
	north := ECEF{0, 0, 6356752.314245 + 100}
	lla := north.ToLLA()
	if math.Abs(lla.Lat-math.Pi/2) > 1e-9 {
		t.Errorf("polar lat = %v, want π/2", lla.Lat)
	}
	if math.Abs(lla.Alt-100) > 1e-3 {
		t.Errorf("polar alt = %v, want 100", lla.Alt)
	}
	south := ECEF{0, 0, -6356752.314245}
	if got := south.ToLLA().Lat; math.Abs(got+math.Pi/2) > 1e-9 {
		t.Errorf("south polar lat = %v, want -π/2", got)
	}
}

func TestENURoundTrip(t *testing.T) {
	origin := FromDegrees(40, -105, 1600).ToECEF()
	offsets := []ENU{
		{100, 0, 0},
		{0, 100, 0},
		{0, 0, 100},
		{-37.5, 1234.5, -9.25},
	}
	for _, off := range offsets {
		p := FromENU(origin, off)
		back := ToENU(origin, p)
		if math.Abs(back.E-off.E) > posTol || math.Abs(back.N-off.N) > posTol || math.Abs(back.U-off.U) > posTol {
			t.Errorf("ENU round trip %v -> %v", off, back)
		}
	}
}

func TestENUDirectionsAtEquator(t *testing.T) {
	// At (0°N, 0°E): East = +Y, North = +Z, Up = +X.
	origin := FromDegrees(0, 0, 0).ToECEF()
	east := ToENU(origin, origin.Add(ECEF{0, 1000, 0}))
	if math.Abs(east.E-1000) > 1e-6 || math.Abs(east.N) > 1e-6 {
		t.Errorf("east probe = %+v", east)
	}
	north := ToENU(origin, origin.Add(ECEF{0, 0, 1000}))
	if math.Abs(north.N-1000) > 1e-6 {
		t.Errorf("north probe = %+v", north)
	}
	up := ToENU(origin, origin.Add(ECEF{1000, 0, 0}))
	if math.Abs(up.U-1000) > 1e-6 {
		t.Errorf("up probe = %+v", up)
	}
}

func TestElevationAzimuth(t *testing.T) {
	origin := FromDegrees(45, 7, 300).ToECEF()
	tests := []struct {
		name     string
		offset   ENU
		wantElev float64
		wantAzim float64
	}{
		{"zenith", ENU{0, 0, 1000}, math.Pi / 2, 0},
		{"due north at horizon", ENU{0, 1000, 0}, 0, 0},
		{"due east at horizon", ENU{1000, 0, 0}, 0, math.Pi / 2},
		{"due south 45 up", ENU{0, -1000, 1000}, math.Pi / 4, math.Pi},
		{"due west at horizon", ENU{-1000, 0, 0}, 0, 3 * math.Pi / 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sat := FromENU(origin, tt.offset)
			elev, azim := ElevationAzimuth(origin, sat)
			if math.Abs(elev-tt.wantElev) > 1e-6 {
				t.Errorf("elev = %v, want %v", elev, tt.wantElev)
			}
			if tt.offset.E != 0 || tt.offset.N != 0 { // azimuth undefined at zenith
				if math.Abs(angleDiff(azim, tt.wantAzim)) > 1e-6 {
					t.Errorf("azim = %v, want %v", azim, tt.wantAzim)
				}
			}
		})
	}
}

func TestRotateEarth(t *testing.T) {
	p := ECEF{SemiMajorAxis, 0, 0}
	// Zero rotation is identity.
	if got := RotateEarth(p, 0); got != p {
		t.Errorf("RotateEarth(p, 0) = %v", got)
	}
	// Rotation preserves norm and Z.
	got := RotateEarth(ECEF{1e7, 2e7, 3e6}, 0.07)
	if math.Abs(got.Norm()-(ECEF{1e7, 2e7, 3e6}).Norm()) > 1e-6 {
		t.Error("RotateEarth changed vector norm")
	}
	if got.Z != 3e6 {
		t.Error("RotateEarth changed Z")
	}
	// For a typical GPS signal travel time (~0.07 s) the correction at
	// orbit radius is tens of meters — nonzero and bounded.
	moved := got.DistanceTo(ECEF{1e7, 2e7, 3e6})
	if moved < 10 || moved > 500 {
		t.Errorf("Sagnac displacement = %v m, want tens of meters", moved)
	}
}

// Property: RotateEarth(RotateEarth(p, dt), -dt) = p.
func TestPropRotateEarthInverse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := ECEF{r.NormFloat64() * 1e7, r.NormFloat64() * 1e7, r.NormFloat64() * 1e7}
		dt := r.Float64() * 10
		back := RotateEarth(RotateEarth(p, dt), -dt)
		return back.DistanceTo(p) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDegreesConversions(t *testing.T) {
	lla := FromDegrees(45, -120, 10)
	lat, lon := lla.Degrees()
	if math.Abs(lat-45) > 1e-12 || math.Abs(lon+120) > 1e-12 {
		t.Errorf("Degrees = %v, %v", lat, lon)
	}
}

func angleDiff(a, b float64) float64 {
	d := math.Mod(a-b, 2*math.Pi)
	if d > math.Pi {
		d -= 2 * math.Pi
	}
	if d < -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

// Property: ENU round-trips for random origins and offsets.
func TestPropENURoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		origin := LLA{
			Lat: (r.Float64() - 0.5) * math.Pi * 0.95,
			Lon: (r.Float64() - 0.5) * 2 * math.Pi,
			Alt: r.Float64() * 3000,
		}.ToECEF()
		off := ENU{
			E: (r.Float64() - 0.5) * 2e5,
			N: (r.Float64() - 0.5) * 2e5,
			U: (r.Float64() - 0.5) * 2e4,
		}
		back := ToENU(origin, FromENU(origin, off))
		return math.Abs(back.E-off.E) < 1e-5 &&
			math.Abs(back.N-off.N) < 1e-5 &&
			math.Abs(back.U-off.U) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
