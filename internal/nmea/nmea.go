// Package nmea renders and parses the NMEA 0183 sentences GPS receivers
// emit — GGA (fix data) and RMC (recommended minimum). It gives the
// positioning pipeline a realistic output format: cmd/gpsrun can stream
// the fixes any downstream NMEA consumer (chart plotter, gpsd, autopilot)
// would ingest.
package nmea

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"gpsdl/internal/geo"
)

// Parse errors.
var (
	// ErrBadSentence is returned for framing problems (no $, no *).
	ErrBadSentence = errors.New("nmea: malformed sentence")
	// ErrChecksum is returned when the checksum does not match.
	ErrChecksum = errors.New("nmea: checksum mismatch")
)

// FixQuality is the GGA fix-quality field.
type FixQuality int

// GGA fix qualities.
const (
	QualityInvalid FixQuality = 0
	QualityGPS     FixQuality = 1
	QualityDGPS    FixQuality = 2
	// QualityEstimated marks a dead-reckoning (coasting) fix: the receiver
	// is holding its last position and extrapolating the clock model, not
	// solving from satellites.
	QualityEstimated FixQuality = 6
)

// Fix is the information one epoch's solution contributes to a sentence.
type Fix struct {
	// TimeOfDay is UTC seconds of day.
	TimeOfDay float64
	// Pos is the geodetic position.
	Pos geo.LLA
	// Quality is the GGA fix quality.
	Quality FixQuality
	// NumSats is the satellite count used in the fix.
	NumSats int
	// HDOP is the horizontal dilution of precision.
	HDOP float64
	// SpeedKnots and CourseDeg describe motion (RMC).
	SpeedKnots float64
	CourseDeg  float64
}

// Checksum returns the XOR of all bytes of the body (between $ and *).
func Checksum[T string | []byte](body T) byte {
	var c byte
	for i := 0; i < len(body); i++ {
		c ^= body[i]
	}
	return c
}

// Validate checks framing and checksum, returning the body.
func Validate(sentence string) (string, error) {
	if len(sentence) < 4 || sentence[0] != '$' {
		return "", fmt.Errorf("nmea: %q: %w", sentence, ErrBadSentence)
	}
	star := strings.LastIndexByte(sentence, '*')
	if star < 0 || star+3 > len(sentence) {
		return "", fmt.Errorf("nmea: %q missing checksum: %w", sentence, ErrBadSentence)
	}
	body := sentence[1:star]
	want, err := strconv.ParseUint(sentence[star+1:star+3], 16, 8)
	if err != nil {
		return "", fmt.Errorf("nmea: bad checksum digits: %w", ErrBadSentence)
	}
	if Checksum(body) != byte(want) {
		return "", fmt.Errorf("nmea: body %q: %w", body, ErrChecksum)
	}
	return body, nil
}

// ParseGGA extracts the fix from a $GPGGA sentence.
func ParseGGA(sentence string) (Fix, error) {
	body, err := Validate(sentence)
	if err != nil {
		return Fix{}, err
	}
	fields := strings.Split(body, ",")
	if len(fields) < 10 || fields[0] != "GPGGA" {
		return Fix{}, fmt.Errorf("nmea: not a GGA sentence: %w", ErrBadSentence)
	}
	var f Fix
	if f.TimeOfDay, err = parseTime(fields[1]); err != nil {
		return Fix{}, err
	}
	lat, err := parseAngle(fields[2], fields[3], 2)
	if err != nil {
		return Fix{}, err
	}
	lon, err := parseAngle(fields[4], fields[5], 3)
	if err != nil {
		return Fix{}, err
	}
	q, err := strconv.Atoi(fields[6])
	if err != nil {
		return Fix{}, fmt.Errorf("nmea: quality %q: %w", fields[6], ErrBadSentence)
	}
	n, err := strconv.Atoi(fields[7])
	if err != nil {
		return Fix{}, fmt.Errorf("nmea: numsats %q: %w", fields[7], ErrBadSentence)
	}
	hdop, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return Fix{}, fmt.Errorf("nmea: hdop %q: %w", fields[8], ErrBadSentence)
	}
	alt, err := strconv.ParseFloat(fields[9], 64)
	if err != nil {
		return Fix{}, fmt.Errorf("nmea: altitude %q: %w", fields[9], ErrBadSentence)
	}
	f.Pos = geo.LLA{Lat: lat, Lon: lon, Alt: alt}
	f.Quality = FixQuality(q)
	f.NumSats = n
	f.HDOP = hdop
	return f, nil
}

// parseTime inverts appendTimeField.
func parseTime(s string) (float64, error) {
	if len(s) < 6 {
		return 0, fmt.Errorf("nmea: time %q: %w", s, ErrBadSentence)
	}
	h, err1 := strconv.Atoi(s[0:2])
	m, err2 := strconv.Atoi(s[2:4])
	sec, err3 := strconv.ParseFloat(s[4:], 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, fmt.Errorf("nmea: time %q: %w", s, ErrBadSentence)
	}
	return float64(h*3600+m*60) + sec, nil
}

// parseAngle inverts appendAngle; degDigits is 2 for latitude and 3 for
// longitude.
func parseAngle(s, hemi string, degDigits int) (float64, error) {
	if len(s) < degDigits+2 {
		return 0, fmt.Errorf("nmea: angle %q: %w", s, ErrBadSentence)
	}
	d, err1 := strconv.Atoi(s[:degDigits])
	minutes, err2 := strconv.ParseFloat(s[degDigits:], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("nmea: angle %q: %w", s, ErrBadSentence)
	}
	deg := float64(d) + minutes/60
	rad := deg * math.Pi / 180
	switch hemi {
	case "N", "E":
		return rad, nil
	case "S", "W":
		return -rad, nil
	default:
		return 0, fmt.Errorf("nmea: hemisphere %q: %w", hemi, ErrBadSentence)
	}
}
