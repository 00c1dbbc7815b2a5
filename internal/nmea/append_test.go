package nmea

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"gpsdl/internal/geo"
)

// sprintfGGA and sprintfRMC are the fmt reference renderer the encoders
// are checked against. It prints a seconds or arc-minutes field that
// rounds to 60 as "60" (see roundsToSixty), where the encoders carry it
// into the next unit; everywhere else the bytes must agree.
func sprintfGGA(f Fix) string {
	latStr, latHemi := latitude(f.Pos.Lat)
	lonStr, lonHemi := longitude(f.Pos.Lon)
	return frame(fmt.Sprintf("GPGGA,%s,%s,%s,%s,%s,%d,%02d,%.1f,%.1f,M,0.0,M,,",
		timeField(f.TimeOfDay), latStr, latHemi, lonStr, lonHemi,
		int(f.Quality), f.NumSats, f.HDOP, f.Pos.Alt))
}

func sprintfRMC(f Fix) string {
	latStr, latHemi := latitude(f.Pos.Lat)
	lonStr, lonHemi := longitude(f.Pos.Lon)
	status := "A"
	if f.Quality == QualityInvalid {
		status = "V"
	}
	return frame(fmt.Sprintf("GPRMC,%s,%s,%s,%s,%s,%s,%.1f,%.1f,,,",
		timeField(f.TimeOfDay), status, latStr, latHemi, lonStr, lonHemi,
		f.SpeedKnots, f.CourseDeg))
}

// frame wraps a sentence body with $ and *checksum.
func frame(body string) string {
	return fmt.Sprintf("$%s*%02X", body, Checksum(body))
}

// timeField renders hhmmss.ss from seconds of day.
func timeField(t float64) string {
	t = math.Mod(t, 86400)
	if t < 0 {
		t += 86400
	}
	h := int(t) / 3600
	m := (int(t) % 3600) / 60
	s := t - float64(h*3600+m*60)
	return fmt.Sprintf("%02d%02d%05.2f", h, m, s)
}

// latitude renders ddmm.mmmm plus hemisphere.
func latitude(rad float64) (string, string) {
	hemi := "N"
	if rad < 0 {
		hemi = "S"
		rad = -rad
	}
	deg := rad * 180 / math.Pi
	d := math.Floor(deg)
	return fmt.Sprintf("%02.0f%07.4f", d, (deg-d)*60), hemi
}

// longitude renders dddmm.mmmm plus hemisphere.
func longitude(rad float64) (string, string) {
	hemi := "E"
	if rad < 0 {
		hemi = "W"
		rad = -rad
	}
	deg := rad * 180 / math.Pi
	d := math.Floor(deg)
	return fmt.Sprintf("%03.0f%07.4f", d, (deg-d)*60), hemi
}

// roundsToSixty reports whether the reference renderer prints 60 in the
// seconds field or in either arc-minutes field of f: the carry cases,
// the only ones where the encoders deliberately differ from it.
func roundsToSixty(f Fix) bool {
	lat, _ := latitude(f.Pos.Lat)
	lon, _ := longitude(f.Pos.Lon)
	return timeField(f.TimeOfDay)[4:6] == "60" || lat[2:4] == "60" || lon[3:5] == "60"
}

// trickyFixes covers the formatting edge cases where a hand-rolled
// encoder could drift from fmt: zero fields, hemisphere signs, rounding
// at field boundaries, padding widths, negative altitude, day wrap, and
// non-finite values.
func trickyFixes() []Fix {
	return []Fix{
		{},
		sampleFix(),
		{TimeOfDay: 86399.999, Pos: lla(89.99999, 179.99999, -12.34), Quality: QualityDGPS, NumSats: 12, HDOP: 9.96},
		{TimeOfDay: -3600, Pos: lla(-0.00001, -0.00001, 0.04), NumSats: 4, HDOP: 99.95},
		{TimeOfDay: 86400 + 3661.005, Pos: lla(-89.5, -179.5, 8848.86), Quality: QualityGPS, NumSats: 10, HDOP: 1.05},
		{TimeOfDay: 59.995, Pos: lla(0.5, 0.5, 0), NumSats: 9, SpeedKnots: 0.05, CourseDeg: 359.95},
		{TimeOfDay: 3599.999, Pos: lla(45.999999, 9.999999, 0.049), Quality: QualityGPS, NumSats: 100, HDOP: 0.549},
		{TimeOfDay: 43200, Pos: lla(0, 0, math.Inf(1)), HDOP: math.NaN()},
		{TimeOfDay: 1.25, Pos: lla(1.0/3, -1.0/3, -0.05), NumSats: 7, SpeedKnots: 123.456, CourseDeg: 0.04},
		{TimeOfDay: 59.994999, Pos: lla(12.99999916, -0.99999916, -0.0), HDOP: 0.25, SpeedKnots: 0.15, CourseDeg: -0.04},
	}
}

func lla(latDeg, lonDeg, alt float64) geo.LLA {
	return geo.LLA{Lat: latDeg * math.Pi / 180, Lon: lonDeg * math.Pi / 180, Alt: alt}
}

func TestAppendMatchesSprintf(t *testing.T) {
	fixes := trickyFixes()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		fixes = append(fixes, Fix{
			TimeOfDay:  r.Float64()*2*86400 - 86400,
			Pos:        lla(r.Float64()*180-90, r.Float64()*360-180, r.Float64()*20000-1000),
			Quality:    FixQuality(r.Intn(3)),
			NumSats:    r.Intn(32),
			HDOP:       r.Float64() * 50,
			SpeedKnots: r.Float64() * 200,
			CourseDeg:  r.Float64() * 360,
		})
	}
	var buf []byte
	compared := 0
	for i, f := range fixes {
		if roundsToSixty(f) {
			continue
		}
		compared++
		buf = AppendGGA(buf[:0], f)
		if got, want := string(buf), sprintfGGA(f); got != want {
			t.Errorf("fix %d GGA:\n  append  %s\n  sprintf %s", i, got, want)
		}
		buf = AppendRMC(buf[:0], f)
		if got, want := string(buf), sprintfRMC(f); got != want {
			t.Errorf("fix %d RMC:\n  append  %s\n  sprintf %s", i, got, want)
		}
	}
	if compared < len(fixes)-10 {
		t.Errorf("only %d of %d fixes compared: the carry predicate skips too much", compared, len(fixes))
	}
}

// TestFieldsCarrySixty pins the carry cases: a seconds field that rounds
// to 60 carries into minutes and hours (24 h wraps to midnight), and
// arc-minutes that round to 60 carry into degrees.
func TestFieldsCarrySixty(t *testing.T) {
	wrap := Fix{TimeOfDay: 86399.999, Pos: lla(45.9999999, -122.99999999, 0)}
	tests := []struct{ got, want string }{
		{string(AppendGGA(nil, wrap)), "$GPGGA,000000.00,4600.0000,N,12300.0000,W,0,00,0.0,0.0,M,0.0,M,,*4D"},
		{string(AppendRMC(nil, wrap)), "$GPRMC,000000.00,V,4600.0000,N,12300.0000,W,0.0,0.0,,,*34"},
		{string(AppendGGA(nil, Fix{TimeOfDay: 119.996})), "$GPGGA,000200.00,0000.0000,N,00000.0000,E,0,00,0.0,0.0,M,0.0,M,,*5F"},
		{string(AppendGGA(nil, Fix{TimeOfDay: 3599.999})), "$GPGGA,010000.00,0000.0000,N,00000.0000,E,0,00,0.0,0.0,M,0.0,M,,*5C"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("got  %s\nwant %s", tt.got, tt.want)
		}
	}
}

// TestDegenerateFields pins the inputs fmt renders as malformed fields:
// a non-finite time or angle renders as empty NMEA fields, never as
// digits that parse to a wrong value, and a −0 angle as a plain zero
// (fmt prints "-000.0000").
func TestDegenerateFields(t *testing.T) {
	negZero := math.Copysign(0, -1)
	tests := []struct{ got, want string }{
		{string(AppendGGA(nil, Fix{TimeOfDay: math.NaN(), Pos: geo.LLA{Lat: math.Inf(-1), Lon: math.NaN()}, Quality: QualityGPS})),
			"$GPGGA,,,,,,1,00,0.0,0.0,M,0.0,M,,*49"},
		{string(AppendGGA(nil, Fix{Pos: geo.LLA{Lat: negZero, Lon: negZero}, Quality: QualityGPS})),
			"$GPGGA,000000.00,0000.0000,N,00000.0000,E,1,00,0.0,0.0,M,0.0,M,,*5C"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("got  %s\nwant %s", tt.got, tt.want)
		}
	}
}

func TestTimeFieldWraps(t *testing.T) {
	if got := string(appendTimeField(nil, 86400+3600)); !strings.HasPrefix(got, "01") {
		t.Errorf("time field did not wrap: %s", got)
	}
	if got := string(appendTimeField(nil, -3600)); !strings.HasPrefix(got, "23") {
		t.Errorf("negative time not wrapped: %s", got)
	}
}

// fixedSpecials are the values where a fixed-point formatter is most
// likely to part from strconv: signed zeros, non-finite values,
// subnormals, exact ties, values just either side of a tie, negatives
// that round to zero, and the edges of the 64-bit scaled range.
func fixedSpecials() []float64 {
	vs := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), 0x1p-1022, 0x1p-1000,
		math.MaxFloat64, -math.MaxFloat64, 0x1p52, 0x1p53, 0x1p63, 0x1p64,
		0x1p64 - 2048, 1.8446744073709552e19, 9.999999999999999e18,
		0.5, 1.5, 2.5, -0.5, -2.5, 0.25, 0.75, 0.125, 0.375, 1.0625,
		0.05, 0.15, 0.25, 0.35, 0.45, 0.005, 0.015, 0.0005, 59.995,
		59.9999995, 86399.995, 1e-7, -1e-7, -0.04, -0.0004, 123.456,
		1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e300, -1e300,
		1e-15, 3e-18, 5e-20, 0x1p-64, 0x1p-66, 0x1p-70,
	}
	for _, v := range append([]float64(nil), vs...) {
		vs = append(vs, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
	}
	for p := 0; p < len(pow10); p++ {
		edge := float64(math.MaxUint64) / float64(pow10[p])
		vs = append(vs, edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1)))
	}
	return vs
}

// TestAppendFixedMatchesStrconv is the differential test of appendFixed
// against strconv.AppendFloat(…, 'f', prec, 64): the specials at every
// precision, then over a million randomized values at precisions 0–8
// (0–19 for every eighth) mixing arbitrary mantissas around the 64-bit
// scaled range, magnitudes from 1e-20 to 1e20 and exact binary ties.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	var got, want []byte
	check := func(v float64, prec int) bool {
		got = appendFixed(got[:0], v, prec)
		want = strconv.AppendFloat(want[:0], v, 'f', prec, 64)
		if string(got) != string(want) {
			t.Errorf("appendFixed(%v [%#016x], %d) = %s, want %s", v, math.Float64bits(v), prec, got, want)
			return false
		}
		return true
	}
	for _, v := range fixedSpecials() {
		for prec := 0; prec <= len(pow10)+1; prec++ {
			check(v, prec)
		}
	}
	r := rand.New(rand.NewSource(1))
	const n = 1 << 20
	for i := 0; i < n; i++ {
		prec := r.Intn(9)
		if i%8 == 1 {
			prec = r.Intn(len(pow10))
		}
		var v float64
		switch i % 4 {
		case 0: // any mantissa, binary exponent -64 … 69
			v = math.Float64frombits(r.Uint64()&^(0x7ff<<52) | uint64(0x3ff-64+r.Intn(134))<<52)
		case 1: // magnitudes 1e-20 … 1e20
			v = r.Float64() * math.Pow(10, float64(r.Intn(41)-20))
		case 2: // dyadic rationals: exact ties at some precision
			v = float64(r.Int63n(1<<40)) / float64(uint64(1)<<r.Intn(24))
		case 3: // the double nearest a decimal tie at prec, or a neighbour
			v = (float64(r.Int63n(1e9)) + 0.5) / float64(pow10[prec])
			v = math.Nextafter(v, v+float64(r.Intn(3)-1))
		}
		if r.Intn(2) == 0 {
			v = -v
		}
		if !check(v, prec) {
			return
		}
	}
}

func TestAppendZeroAlloc(t *testing.T) {
	f := sampleFix()
	buf := make([]byte, 0, 128)
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendGGA(buf[:0], f)
		buf = AppendRMC(buf[:0], f)
		buf, _ = AppendFixPair(buf[:0], f)
	}); n != 0 {
		t.Errorf("Append encoders allocate %v times per sentence pair, want 0", n)
	}
}

func BenchmarkAppendGGA(b *testing.B) {
	f := sampleFix()
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendGGA(buf[:0], f)
	}
	_ = buf
}

// BenchmarkAppendFix is one fix's NMEA output, a GGA+RMC pair into one
// buffer, as the engine renders it (AppendFixPair).
func BenchmarkAppendFix(b *testing.B) {
	f := sampleFix()
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendFixPair(buf[:0], f)
	}
	_ = buf
}
