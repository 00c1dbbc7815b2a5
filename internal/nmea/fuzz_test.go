package nmea

import (
	"math"
	"strconv"
	"testing"

	"gpsdl/internal/geo"
)

// FuzzValidate checks the framing/checksum layer two ways: Validate must
// never panic on arbitrary input, and frame∘Validate is the identity on
// any body (the '*' separator is located from the end, so bodies
// containing '*' still round-trip).
func FuzzValidate(f *testing.F) {
	f.Add("$GPGGA,000000.00,4823.3820,N,00134.0000,W,1,08,1.0,35.0,M,0.0,M,,*7A")
	f.Add("GPGGA,weird*body,with,stars")
	f.Add("$*00")
	f.Fuzz(func(t *testing.T, s string) {
		_, _ = Validate(s) // must not panic, any error is fine
		body, err := Validate(frame(s))
		if err != nil {
			t.Fatalf("Validate(frame(%q)): %v", s, err)
		}
		if body != s {
			t.Fatalf("frame round trip changed body: %q != %q", body, s)
		}
	})
}

// FuzzParseGGA drives the sentence parser with arbitrary input. It must
// never panic, and every fix it accepts must re-render to a sentence the
// parser accepts again (render∘parse closure), provided the parsed
// fields are finite — ParseFloat legitimately accepts NaN/Inf spellings
// the fixed-width renderer cannot reproduce.
func FuzzParseGGA(f *testing.F) {
	f.Add(string(AppendGGA(nil, Fix{TimeOfDay: 43210, Pos: geo.LLA{Lat: 0.84, Lon: -0.02, Alt: 35}, Quality: QualityGPS, NumSats: 8, HDOP: 1.1})))
	f.Add(string(AppendGGA(nil, Fix{TimeOfDay: 86399.99, Pos: geo.LLA{Lat: -1.2, Lon: 3.1, Alt: -10}, Quality: QualityEstimated, NumSats: 3, HDOP: 9.9})))
	f.Add("$GPGGA,not,enough,fields*00")
	f.Fuzz(func(t *testing.T, s string) {
		fix, err := ParseGGA(s)
		if err != nil {
			return
		}
		for _, v := range []float64{fix.TimeOfDay, fix.Pos.Lat, fix.Pos.Lon, fix.Pos.Alt, fix.HDOP} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		again := string(AppendGGA(nil, fix))
		if _, err := ParseGGA(again); err != nil {
			t.Fatalf("re-parse of re-rendered %q (from %q): %v", again, s, err)
		}
	})
}

// FuzzAppendFixed checks appendFixed byte for byte against
// strconv.AppendFloat(…, 'f', prec, 64) for arbitrary values and every
// precision the 64-bit fast path serves, plus a few past it.
func FuzzAppendFixed(f *testing.F) {
	f.Add(59.995, uint8(2))
	f.Add(0.5, uint8(0))
	f.Add(-0.04, uint8(1))
	f.Add(math.Copysign(0, -1), uint8(3))
	f.Add(1.8446744073709552e19, uint8(0))
	f.Add(math.SmallestNonzeroFloat64, uint8(8))
	f.Fuzz(func(t *testing.T, v float64, p uint8) {
		prec := int(p % 24)
		got := appendFixed(nil, v, prec)
		want := strconv.AppendFloat(nil, v, 'f', prec, 64)
		if string(got) != string(want) {
			t.Fatalf("appendFixed(%v [%#016x], %d) = %s, want %s", v, math.Float64bits(v), prec, got, want)
		}
	})
}

// FuzzAppendFixPair checks the one-pass pair encoder against the two
// sentence encoders for arbitrary fixes, non-finite fields included:
// the pair must be exactly AppendGGA's bytes followed by AppendRMC's,
// split at the returned offset, appended after existing content.
func FuzzAppendFixPair(f *testing.F) {
	for _, fx := range trickyFixes() {
		f.Add(fx.TimeOfDay, fx.Pos.Lat, fx.Pos.Lon, fx.Pos.Alt, int(fx.Quality), fx.NumSats, fx.HDOP, fx.SpeedKnots, fx.CourseDeg)
	}
	f.Add(math.NaN(), math.Inf(-1), 1e300, -1e-320, -7, -3, math.Inf(1), math.NaN(), -1e20)
	f.Fuzz(func(t *testing.T, tod, lat, lon, alt float64, q, sats int, hdop, speed, course float64) {
		fx := Fix{TimeOfDay: tod, Pos: geo.LLA{Lat: lat, Lon: lon, Alt: alt}, Quality: FixQuality(q),
			NumSats: sats, HDOP: hdop, SpeedKnots: speed, CourseDeg: course}
		prefix := []byte("prior")
		gga := AppendGGA(nil, fx)
		want := AppendRMC(append(append([]byte{}, prefix...), gga...), fx)
		got, rmc := AppendFixPair(append([]byte{}, prefix...), fx)
		if string(got) != string(want) || rmc != len(prefix)+len(gga) {
			t.Fatalf("AppendFixPair(%+v) = %q split at %d, want %q split at %d", fx, got, rmc, want, len(prefix)+len(gga))
		}
	})
}
