package geo_test

import (
	"math"
	"math/rand"
	"testing"

	"gpsdl/internal/geo"
	"gpsdl/internal/nmea"
)

// tollaFastGrid returns ECEF points on a latitude × longitude × altitude
// grid: both poles and latitudes within 1e-9 rad of them, the equator,
// mid latitudes, longitudes around the whole circle, and heights from
// 100 m below the ellipsoid to 20 000 km, plus the polar axis itself.
func tollaFastGrid() []geo.ECEF {
	const pole = math.Pi / 2
	lats := []float64{-pole, -pole + 1e-9, -pole + 1e-12, -1.2, -0.6, -1e-9, 0, 1e-12, 0.3, 0.84, 1.4, pole - 1e-9, pole - 1e-15, pole}
	lons := []float64{-math.Pi, -2.5, -1e-9, 0, 0.7, math.Pi / 2, 2.9, math.Pi}
	alts := []float64{-100, 0, 35.25, 1000, 8848.86, 4e5, 2.02e7}
	var pts []geo.ECEF
	for _, lat := range lats {
		for _, lon := range lons {
			for _, alt := range alts {
				pts = append(pts, geo.LLA{Lat: lat, Lon: lon, Alt: alt}.ToECEF())
			}
		}
	}
	for _, z := range []float64{6356752.314245, -6356752.314245 - 100, 2.66e7} {
		pts = append(pts, geo.ECEF{Z: z})
	}
	return pts
}

// TestToLLAFastMatchesToLLA bounds the fix path's conversion against the
// reference one on the grid and on random surface points: latitude
// within 4.4e-16 rad, longitude bit-identical, altitude within 1.5e-8 m
// at the surface and 2e-15 of the radius above it. It also renders each
// point both ways, and the GGA and RMC bytes must be equal unless the
// reference altitude or latitude sits within those bounds of a rounding
// boundary of its printed field, where no conversion short of ToLLA
// itself could promise the same digit. The grid's 0 and 35.25 m
// altitudes are such boundaries on purpose; the random points never
// come that close.
func TestToLLAFastMatchesToLLA(t *testing.T) {
	pts := tollaFastGrid()
	grid := len(pts)
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 200000; i++ {
		ll := geo.LLA{Lat: math.Asin(2*r.Float64() - 1), Lon: (2*r.Float64() - 1) * math.Pi, Alt: r.Float64()*10100 - 100}
		pts = append(pts, ll.ToECEF())
	}
	var ref, fast []byte
	ties := 0
	for i, p := range pts {
		want, got := p.ToLLA(), p.ToLLAFast()
		altTol := 1.5e-8
		if want.Alt > 1e4 {
			altTol = 2e-15 * p.Norm()
		}
		const latTol = 4.4e-16
		if math.Abs(got.Lat-want.Lat) > latTol || got.Lon != want.Lon || !(math.Abs(got.Alt-want.Alt) <= altTol) {
			t.Fatalf("%v: ToLLAFast %+v, ToLLA %+v", p, got, want)
		}
		latMin := math.Abs(want.Lat) * 180 / math.Pi * 60 // whole degrees do not move the tie
		if nearTie(want.Alt, 1, altTol) || nearTie(latMin, 4, latTol*180/math.Pi*60) {
			if i >= grid {
				t.Errorf("random point %v lies on a rounding boundary", p)
			}
			ties++
			continue
		}
		f := nmea.Fix{TimeOfDay: 43200, Pos: want, Quality: nmea.QualityGPS, NumSats: 9, HDOP: 1.2}
		ref = nmea.AppendRMC(nmea.AppendGGA(ref[:0], f), f)
		f.Pos = got
		fast = nmea.AppendRMC(nmea.AppendGGA(fast[:0], f), f)
		if string(fast) != string(ref) {
			t.Fatalf("%v: ToLLAFast renders %q, ToLLA renders %q", p, fast, ref)
		}
	}
	t.Logf("%d of %d points compared byte for byte; %d grid points on a rounding boundary", len(pts)-ties, len(pts), ties)
}

// nearTie reports whether v lies within tol of a value where printing
// it with prec decimals changes: a half-unit, where the digit rounds
// either way, or zero, where the sign of a value that rounds to zero
// flips.
func nearTie(v float64, prec int, tol float64) bool {
	scale := math.Pow(10, float64(prec))
	x := math.Abs(v) * scale
	return math.Abs(v) <= tol || math.Abs(x-math.Floor(x)-0.5) <= tol*scale
}

// TestToLLAFastFallsBack: outside the shell the fast path serves, the
// conversion is ToLLA's, bit for bit.
func TestToLLAFastFallsBack(t *testing.T) {
	for _, p := range []geo.ECEF{{}, {X: 42697.67, Y: 0, Z: 0}, {X: 1e3, Y: -2e3, Z: 5e2}, {X: 1e120, Y: 1, Z: 3e119},
		{X: math.NaN(), Y: 1, Z: 2}, {X: math.Inf(1), Y: 0, Z: 0}, {Z: 6.4e6}} {
		want, got := p.ToLLA(), p.ToLLAFast()
		if math.Float64bits(got.Lat) != math.Float64bits(want.Lat) ||
			math.Float64bits(got.Lon) != math.Float64bits(want.Lon) ||
			math.Float64bits(got.Alt) != math.Float64bits(want.Alt) {
			t.Errorf("%v: ToLLAFast %+v, ToLLA %+v", p, got, want)
		}
	}
}

// BenchmarkToLLA and BenchmarkToLLAFast time one conversion of a
// station-height position.
func BenchmarkToLLA(b *testing.B) {
	p := geo.FromDegrees(53.3, -60.4, 35).ToECEF()
	var sink geo.LLA
	for i := 0; i < b.N; i++ {
		sink = p.ToLLA()
	}
	_ = sink
}

func BenchmarkToLLAFast(b *testing.B) {
	p := geo.FromDegrees(53.3, -60.4, 35).ToECEF()
	var sink geo.LLA
	for i := 0; i < b.N; i++ {
		sink = p.ToLLAFast()
	}
	_ = sink
}
