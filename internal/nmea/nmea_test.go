package nmea

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gpsdl/internal/geo"
)

func sampleFix() Fix {
	return Fix{
		TimeOfDay:  12*3600 + 34*60 + 56.78,
		Pos:        geo.FromDegrees(53.3086, -60.4195, 38.4),
		Quality:    QualityGPS,
		NumSats:    9,
		HDOP:       1.3,
		SpeedKnots: 12.5,
		CourseDeg:  271.0,
	}
}

func TestGGAFormat(t *testing.T) {
	s := string(AppendGGA(nil, sampleFix()))
	if !strings.HasPrefix(s, "$GPGGA,123456.78,") {
		t.Errorf("GGA prefix wrong: %s", s)
	}
	if !strings.Contains(s, ",N,") || !strings.Contains(s, ",W,") {
		t.Errorf("hemispheres wrong: %s", s)
	}
	if _, err := Validate(s); err != nil {
		t.Errorf("self-validation failed: %v (%s)", err, s)
	}
}

func TestRMCFormat(t *testing.T) {
	s := string(AppendRMC(nil, sampleFix()))
	if !strings.HasPrefix(s, "$GPRMC,123456.78,A,") {
		t.Errorf("RMC prefix wrong: %s", s)
	}
	if _, err := Validate(s); err != nil {
		t.Errorf("self-validation failed: %v", err)
	}
	bad := sampleFix()
	bad.Quality = QualityInvalid
	if s := string(AppendRMC(nil, bad)); !strings.Contains(s, ",V,") {
		t.Errorf("invalid fix not flagged V: %s", s)
	}
}

func TestChecksumKnownValue(t *testing.T) {
	// Classic reference sentence checksum.
	body := "GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,"
	if got := Checksum(body); got != 0x47 {
		t.Errorf("Checksum = %02X, want 47", got)
	}
}

func TestValidateRejects(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		wantErr error
	}{
		{"no dollar", "GPGGA,x*00", ErrBadSentence},
		{"no star", "$GPGGA,x", ErrBadSentence},
		{"bad hex", "$GPGGA*ZZ", ErrBadSentence},
		{"wrong checksum", "$GPGGA,test*00", ErrChecksum},
		{"empty", "", ErrBadSentence},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Validate(tt.in); !errors.Is(err, tt.wantErr) {
				t.Errorf("error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestGGARoundTrip(t *testing.T) {
	f := sampleFix()
	got, err := ParseGGA(string(AppendGGA(nil, f)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.TimeOfDay-f.TimeOfDay) > 0.011 {
		t.Errorf("time = %v, want %v", got.TimeOfDay, f.TimeOfDay)
	}
	// 4 decimal minutes ≈ 0.2 m of latitude.
	if math.Abs(got.Pos.Lat-f.Pos.Lat) > 1e-6 {
		t.Errorf("lat = %v, want %v", got.Pos.Lat, f.Pos.Lat)
	}
	if math.Abs(got.Pos.Lon-f.Pos.Lon) > 1e-6 {
		t.Errorf("lon = %v, want %v", got.Pos.Lon, f.Pos.Lon)
	}
	if math.Abs(got.Pos.Alt-f.Pos.Alt) > 0.051 {
		t.Errorf("alt = %v, want %v", got.Pos.Alt, f.Pos.Alt)
	}
	if got.Quality != f.Quality || got.NumSats != f.NumSats {
		t.Errorf("quality/sats = %v/%v", got.Quality, got.NumSats)
	}
	if math.Abs(got.HDOP-f.HDOP) > 0.051 {
		t.Errorf("hdop = %v", got.HDOP)
	}
}

// Property: GGA round-trips positions anywhere on Earth to ≈meter level.
func TestPropGGARoundTripGlobal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fix := Fix{
			TimeOfDay: r.Float64() * 86400,
			Pos: geo.LLA{
				Lat: (r.Float64() - 0.5) * math.Pi * 0.99,
				Lon: (r.Float64() - 0.5) * 2 * math.Pi * 0.999,
				Alt: r.Float64() * 5000,
			},
			Quality: QualityGPS,
			NumSats: 4 + r.Intn(9),
			HDOP:    0.5 + r.Float64()*5,
		}
		got, err := ParseGGA(string(AppendGGA(nil, fix)))
		if err != nil {
			return false
		}
		// 0.0001 arc-minutes ≈ 1.9e-8 rad.
		return math.Abs(got.Pos.Lat-fix.Pos.Lat) < 2e-8+1e-12 &&
			math.Abs(got.Pos.Lon-fix.Pos.Lon) < 2e-8+1e-12 &&
			math.Abs(got.Pos.Alt-fix.Pos.Alt) < 0.051
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParseGGARejectsOtherSentences(t *testing.T) {
	if _, err := ParseGGA(string(AppendRMC(nil, sampleFix()))); err == nil {
		t.Error("RMC accepted as GGA")
	}
}
