// Package geo provides WGS-84 geodesy for the GPS substrate: ECEF/geodetic
// conversions, local ENU frames, satellite elevation/azimuth, and the
// Earth-rotation (Sagnac) correction applied to signal propagation.
package geo

import (
	"fmt"
	"math"
)

// Physical and WGS-84 constants.
const (
	// SpeedOfLight is c in m/s, the value GPS uses for range conversion.
	SpeedOfLight = 299792458.0
	// SemiMajorAxis is the WGS-84 ellipsoid semi-major axis a in meters.
	SemiMajorAxis = 6378137.0
	// Flattening is the WGS-84 ellipsoid flattening f.
	Flattening = 1.0 / 298.257223563
	// EarthRotationRate is the WGS-84 value of ωe in rad/s.
	EarthRotationRate = 7.2921151467e-5
	// GM is the WGS-84 Earth gravitational constant in m³/s².
	GM = 3.986005e14
)

// Derived ellipsoid parameters.
var (
	// semiMinorAxis is b = a(1−f).
	semiMinorAxis = SemiMajorAxis * (1 - Flattening)
	// ecc2 is the first eccentricity squared e² = f(2−f).
	ecc2 = Flattening * (2 - Flattening)
	// eccPrime2 is the second eccentricity squared e'² = e²/(1−e²).
	eccPrime2 = ecc2 / (1 - ecc2)
)

// ECEF is an Earth-Centered Earth-Fixed cartesian position in meters.
type ECEF struct {
	X, Y, Z float64
}

// Add returns p+q.
func (p ECEF) Add(q ECEF) ECEF { return ECEF{p.X + q.X, p.Y + q.Y, p.Z + q.Z} }

// Sub returns p−q.
func (p ECEF) Sub(q ECEF) ECEF { return ECEF{p.X - q.X, p.Y - q.Y, p.Z - q.Z} }

// Scale returns s·p.
func (p ECEF) Scale(s float64) ECEF { return ECEF{s * p.X, s * p.Y, s * p.Z} }

// Dot returns the dot product p·q.
func (p ECEF) Dot(q ECEF) float64 { return p.X*q.X + p.Y*q.Y + p.Z*q.Z }

// Norm returns the Euclidean length of p.
func (p ECEF) Norm() float64 { return math.Sqrt(p.Dot(p)) }

// DistanceTo returns the Euclidean distance ‖p−q‖, the geometric range of
// paper eq. 3-1.
func (p ECEF) DistanceTo(q ECEF) float64 { return p.Sub(q).Norm() }

// String renders the position for logs.
func (p ECEF) String() string {
	return fmt.Sprintf("ECEF(%.3f, %.3f, %.3f)", p.X, p.Y, p.Z)
}

// LLA is a geodetic position: latitude and longitude in radians, height
// above the WGS-84 ellipsoid in meters.
type LLA struct {
	Lat, Lon, Alt float64
}

// Degrees returns latitude and longitude in degrees.
func (l LLA) Degrees() (latDeg, lonDeg float64) {
	return l.Lat * 180 / math.Pi, l.Lon * 180 / math.Pi
}

// FromDegrees builds an LLA from degree inputs.
func FromDegrees(latDeg, lonDeg, alt float64) LLA {
	return LLA{Lat: latDeg * math.Pi / 180, Lon: lonDeg * math.Pi / 180, Alt: alt}
}

// ToECEF converts geodetic coordinates to ECEF.
func (l LLA) ToECEF() ECEF {
	sinLat, cosLat := math.Sincos(l.Lat)
	sinLon, cosLon := math.Sincos(l.Lon)
	// Prime vertical radius of curvature.
	n := SemiMajorAxis / math.Sqrt(1-ecc2*sinLat*sinLat)
	return ECEF{
		X: (n + l.Alt) * cosLat * cosLon,
		Y: (n + l.Alt) * cosLat * sinLon,
		Z: (n*(1-ecc2) + l.Alt) * sinLat,
	}
}

// ToLLA converts an ECEF position to geodetic coordinates using Bowring's
// closed-form approximation followed by two fixed-point refinements, giving
// sub-millimeter accuracy for terrestrial and orbital altitudes.
//
// ToLLA is the reference conversion: station set-up, satellite
// visibility and ENUFrame go through it, and the scenario and fault
// golden pins hold its exact bits. ToLLAFast runs the same iteration
// with fewer trigonometric calls for the per-fix output path.
func (p ECEF) ToLLA() LLA {
	lon := math.Atan2(p.Y, p.X)
	rho := math.Hypot(p.X, p.Y)
	if rho == 0 {
		// On the polar axis.
		lat := math.Pi / 2
		if p.Z < 0 {
			lat = -lat
		}
		return LLA{Lat: lat, Lon: 0, Alt: math.Abs(p.Z) - semiMinorAxis}
	}
	// Bowring's initial parametric latitude.
	beta := math.Atan2(p.Z*SemiMajorAxis, rho*semiMinorAxis)
	sinB, cosB := math.Sincos(beta)
	lat := math.Atan2(p.Z+eccPrime2*semiMinorAxis*sinB*sinB*sinB,
		rho-ecc2*SemiMajorAxis*cosB*cosB*cosB)
	// Two refinement passes.
	for iter := 0; iter < 2; iter++ {
		sinL, cosL := math.Sincos(lat)
		beta = math.Atan2((1-Flattening)*sinL, cosL)
		sinB, cosB = math.Sincos(beta)
		lat = math.Atan2(p.Z+eccPrime2*semiMinorAxis*sinB*sinB*sinB,
			rho-ecc2*SemiMajorAxis*cosB*cosB*cosB)
	}
	sinL, cosL := math.Sincos(lat)
	n := SemiMajorAxis / math.Sqrt(1-ecc2*sinL*sinL)
	var alt float64
	if math.Abs(cosL) > 1e-10 {
		alt = rho/cosL - n
	} else {
		alt = math.Abs(p.Z)/math.Abs(sinL) - n*(1-ecc2)
	}
	return LLA{Lat: lat, Lon: lon, Alt: alt}
}

// ToLLAFast is ToLLA for a fix's output path: the same Bowring start and
// the same two refinement passes, but every sine/cosine pair of an angle
// given as Atan2(y, x) is read as (y, x)/√(x²+y²) instead of being
// round-tripped through Atan2 and Sincos, so the whole conversion costs
// two Atan2 calls (latitude and longitude) and no Sincos. Against ToLLA,
// latitude differs by at most 4.4e-16 rad, altitude by at most 1.5e-8 m
// at the surface (2e-15 of the radius above it), and longitude not at
// all (TestToLLAFastMatchesToLLA). Positions outside the shell
// 1000 km < |p| < 1e100 m, and the polar axis, take ToLLA itself, so the
// squared terms can neither overflow nor meet Bowring's degenerate
// region near the Earth's centre.
//
// Two conversions exist because ToLLA's exact bits are pinned by
// station set-up, satellite visibility and the golden outputs built on
// them, while a fix's latitude, longitude and altitude are only rendered
// to NMEA precision or used to orient a DOP frame. There a difference
// that small changes a printed digit only for a value within it of a
// rounding boundary.
func (p ECEF) ToLLAFast() LLA {
	rho2 := p.X*p.X + p.Y*p.Y
	if r2 := rho2 + p.Z*p.Z; !(r2 > 1e12 && r2 < 1e200) || rho2 == 0 {
		return p.ToLLA()
	}
	rho := math.Sqrt(rho2)
	// Bowring's parametric latitude β: tan β = Z·a / (ρ·b).
	u, v := p.Z*SemiMajorAxis, rho*semiMinorAxis
	h := math.Sqrt(u*u + v*v)
	sinB, cosB := u/h, v/h
	// Latitude φ = atan2(num, den), kept as its (num, den) pair.
	num := p.Z + eccPrime2*semiMinorAxis*sinB*sinB*sinB
	den := rho - ecc2*SemiMajorAxis*cosB*cosB*cosB
	for iter := 0; iter < 2; iter++ {
		// tan β = (1−f)·tan φ; scaling (num, den) by a positive factor
		// leaves the angle unchanged.
		u, v = (1-Flattening)*num, den
		h = math.Sqrt(u*u + v*v)
		sinB, cosB = u/h, v/h
		num = p.Z + eccPrime2*semiMinorAxis*sinB*sinB*sinB
		den = rho - ecc2*SemiMajorAxis*cosB*cosB*cosB
	}
	h = math.Sqrt(num*num + den*den)
	sinL, cosL := num/h, den/h
	n := SemiMajorAxis / math.Sqrt(1-ecc2*sinL*sinL)
	var alt float64
	if math.Abs(cosL) > 1e-10 {
		alt = rho/cosL - n
	} else {
		alt = math.Abs(p.Z)/math.Abs(sinL) - n*(1-ecc2)
	}
	return LLA{Lat: math.Atan2(num, den), Lon: math.Atan2(p.Y, p.X), Alt: alt}
}

// ENU is a local East-North-Up offset in meters relative to some origin.
type ENU struct {
	E, N, U float64
}

// LookAngles returns the elevation above the local horizon and the
// azimuth clockwise from north (radians) of the direction e. A
// non-positive U always gives a non-positive elevation.
func (e ENU) LookAngles() (elev, azim float64) {
	return e.Elevation(), e.Azimuth()
}

// Elevation is LookAngles' elevation alone, for callers that test it
// against a mask before paying for the azimuth.
func (e ENU) Elevation() float64 {
	return math.Atan2(e.U, math.Hypot(e.E, e.N))
}

// Azimuth is LookAngles' azimuth alone, in [0, 2π).
func (e ENU) Azimuth() float64 {
	azim := math.Atan2(e.E, e.N)
	if azim < 0 {
		azim += 2 * math.Pi
	}
	return azim
}

// ToENU expresses target relative to the origin (an ECEF point) in the
// origin's local East-North-Up frame.
func ToENU(origin, target ECEF) ENU {
	f := NewENUFrame(origin)
	return f.ToENU(target)
}

// ENUFrame is the local East-North-Up frame at a fixed origin with the
// origin's geodetic rotation terms precomputed. Converting one origin's
// view of many targets (a receiver looking at a whole constellation)
// through a frame pays the iterative ECEF→LLA conversion once instead of
// once per target; the per-target arithmetic is identical to ToENU /
// ElevationAzimuth, so results are bit-identical.
type ENUFrame struct {
	origin                         ECEF
	sinLat, cosLat, sinLon, cosLon float64
}

// NewENUFrame builds the local frame at origin.
func NewENUFrame(origin ECEF) ENUFrame {
	ll := origin.ToLLA()
	f := ENUFrame{origin: origin}
	f.sinLat, f.cosLat = math.Sincos(ll.Lat)
	f.sinLon, f.cosLon = math.Sincos(ll.Lon)
	return f
}

// ToENU expresses target relative to the frame origin.
func (f *ENUFrame) ToENU(target ECEF) ENU {
	d := target.Sub(f.origin)
	return ENU{
		E: -f.sinLon*d.X + f.cosLon*d.Y,
		N: -f.sinLat*f.cosLon*d.X - f.sinLat*f.sinLon*d.Y + f.cosLat*d.Z,
		U: f.cosLat*f.cosLon*d.X + f.cosLat*f.sinLon*d.Y + f.sinLat*d.Z,
	}
}

// FromENU converts a local ENU offset at origin back to an ECEF position.
func FromENU(origin ECEF, offset ENU) ECEF {
	ll := origin.ToLLA()
	sinLat, cosLat := math.Sincos(ll.Lat)
	sinLon, cosLon := math.Sincos(ll.Lon)
	return ECEF{
		X: origin.X - sinLon*offset.E - sinLat*cosLon*offset.N + cosLat*cosLon*offset.U,
		Y: origin.Y + cosLon*offset.E - sinLat*sinLon*offset.N + cosLat*sinLon*offset.U,
		Z: origin.Z + cosLat*offset.N + sinLat*offset.U,
	}
}

// ElevationAzimuth returns the elevation and azimuth (radians) of the
// satellite as seen from the receiver. Azimuth is measured clockwise from
// north; elevation from the local horizon.
func ElevationAzimuth(receiver, satellite ECEF) (elev, azim float64) {
	return ToENU(receiver, satellite).LookAngles()
}

// RotateEarth rotates an ECEF position about the Z axis by the Earth's
// rotation over dt seconds. This implements the Sagnac correction: a signal
// emitted at satellite position p arrives after travel time τ in a frame
// that has rotated by ωe·τ, so the emission position must be expressed in
// the reception-time frame as RotateEarth(p, τ).
func RotateEarth(p ECEF, dt float64) ECEF {
	theta := EarthRotationRate * dt
	sinT, cosT := math.Sincos(theta)
	return ECEF{
		X: cosT*p.X + sinT*p.Y,
		Y: -sinT*p.X + cosT*p.Y,
		Z: p.Z,
	}
}
