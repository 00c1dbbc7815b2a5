// Package orbit implements GPS satellite orbital mechanics: Keplerian
// elements, a Kepler-equation solver, IS-GPS-200-style propagation to ECEF
// coordinates, and a default 31-satellite constellation matching the one
// in operation when the paper's data was collected (footnote 2: "In March
// 2008, there were 31 active satellites").
package orbit

import (
	"errors"
	"fmt"
	"math"

	"gpsdl/internal/geo"
)

// ErrKeplerDiverged is returned when the Kepler-equation iteration fails to
// converge (only possible for invalid eccentricities).
var ErrKeplerDiverged = errors.New("orbit: Kepler equation iteration did not converge")

// Nominal GPS constellation parameters.
const (
	// NominalSemiMajorAxis is the GPS orbit semi-major axis in meters
	// (≈26 560 km, a 11 h 58 m period).
	NominalSemiMajorAxis = 2.656175e7
	// NominalInclination is the GPS orbital inclination (55°) in radians.
	NominalInclination = 55 * math.Pi / 180
	// OrbitalPlanes is the number of GPS orbital planes (Section 3.1 of
	// the paper: "6 circular orbital planes").
	OrbitalPlanes = 6
	// DefaultSatCount matches the active constellation of the paper's
	// data-collection era.
	DefaultSatCount = 31
)

// Elements is a set of Keplerian orbital elements relative to a reference
// epoch Toe (seconds). Angles are radians; SemiMajorAxis is meters.
type Elements struct {
	SemiMajorAxis float64 // a
	Eccentricity  float64 // e, in [0, 1)
	Inclination   float64 // i
	RAAN          float64 // Ω₀, right ascension of ascending node at Toe
	RAANRate      float64 // Ω̇, rad/s (nodal precession)
	ArgPerigee    float64 // ω
	MeanAnomaly   float64 // M₀ at Toe
	Toe           float64 // reference epoch, seconds
}

// MeanMotion returns n = sqrt(GM/a³) in rad/s.
func (e Elements) MeanMotion() float64 {
	return math.Sqrt(geo.GM / (e.SemiMajorAxis * e.SemiMajorAxis * e.SemiMajorAxis))
}

// Period returns the orbital period in seconds.
func (e Elements) Period() float64 { return 2 * math.Pi / e.MeanMotion() }

// SolveKepler solves Kepler's equation E − e·sin(E) = M for the eccentric
// anomaly E using Newton's method. M may be any real; e must be in [0, 1).
func SolveKepler(m, ecc float64) (float64, error) {
	if ecc < 0 || ecc >= 1 {
		return 0, fmt.Errorf("orbit: eccentricity %v out of range [0,1): %w", ecc, ErrKeplerDiverged)
	}
	// Normalize M to [-π, π] for a good starting point.
	m = math.Mod(m, 2*math.Pi)
	if m > math.Pi {
		m -= 2 * math.Pi
	} else if m < -math.Pi {
		m += 2 * math.Pi
	}
	e := m
	if ecc > 0.8 {
		e = math.Pi * math.Copysign(1, m)
	}
	const maxIter = 30
	for i := 0; i < maxIter; i++ {
		f := e - ecc*math.Sin(e) - m
		fp := 1 - ecc*math.Cos(e)
		de := f / fp
		e -= de
		if math.Abs(de) < 1e-14 {
			return e, nil
		}
	}
	return 0, ErrKeplerDiverged
}

// PositionECI returns the satellite position at time t (seconds) in an
// Earth-centered inertial frame aligned with ECEF at t = 0.
func (e Elements) PositionECI(t float64) (geo.ECEF, error) {
	p, _, err := e.StateECI(t)
	return p, err
}

// StateECI returns the satellite position and velocity at time t in the
// Earth-centered inertial frame aligned with ECEF at t = 0. The velocity
// is the analytic derivative of the Keplerian motion, including the
// nodal-precession (RAANRate) term; accuracy is limited only by the
// Kepler-solver tolerance. Position arithmetic is identical to the
// historical PositionECI, so positions are bit-identical to it.
func (e Elements) StateECI(t float64) (pos, vel geo.ECEF, err error) {
	return e.stateECI(e.terms(), t)
}

// orbitTerms are the time-independent factors of StateECI's formula:
// the mean motion, the inclination's sine and cosine, and √(1−e²). A
// Constellation keeps them per satellite, so propagating an epoch pays
// for none of them.
type orbitTerms struct {
	n, sinI, cosI, sqrt1e2 float64
}

// terms computes e's orbitTerms.
func (e Elements) terms() orbitTerms {
	sinI, cosI := math.Sincos(e.Inclination)
	return orbitTerms{
		n:       e.MeanMotion(),
		sinI:    sinI,
		cosI:    cosI,
		sqrt1e2: math.Sqrt(1 - e.Eccentricity*e.Eccentricity),
	}
}

// stateECI is StateECI with e's orbitTerms k already computed.
func (e Elements) stateECI(k orbitTerms, t float64) (pos, vel geo.ECEF, err error) {
	dt := t - e.Toe
	n := k.n
	m := e.MeanAnomaly + n*dt
	ecc := e.Eccentricity
	ea, err := SolveKepler(m, ecc)
	if err != nil {
		return geo.ECEF{}, geo.ECEF{}, err
	}
	sinE, cosE := math.Sincos(ea)
	// True anomaly.
	nu := math.Atan2(k.sqrt1e2*sinE, cosE-ecc)
	// Argument of latitude and orbital radius.
	phi := nu + e.ArgPerigee
	r := e.SemiMajorAxis * (1 - ecc*cosE)
	sinPhi, cosPhi := math.Sincos(phi)
	xo, yo := r*cosPhi, r*sinPhi
	// Node at time t (inertial: no Earth-rotation term).
	omega := e.RAAN + e.RAANRate*dt
	sinO, cosO := math.Sincos(omega)
	sinI, cosI := k.sinI, k.cosI
	pos = geo.ECEF{
		X: xo*cosO - yo*cosI*sinO,
		Y: xo*sinO + yo*cosI*cosO,
		Z: yo * sinI,
	}
	// In-plane rates: Ė from differentiating Kepler's equation, then the
	// radial and argument-of-latitude rates.
	eDot := n / (1 - ecc*cosE)
	rDot := e.SemiMajorAxis * ecc * sinE * eDot
	phiDot := eDot * k.sqrt1e2 / (1 - ecc*cosE)
	xoDot := rDot*cosPhi - yo*phiDot
	yoDot := rDot*sinPhi + xo*phiDot
	// Rotate the in-plane velocity through the node, then add the nodal
	// precession term Ω̇·(ẑ × pos) — note ∂pos/∂Ω = (−Y, X, 0).
	vel = geo.ECEF{
		X: xoDot*cosO - yoDot*cosI*sinO - e.RAANRate*pos.Y,
		Y: xoDot*sinO + yoDot*cosI*cosO + e.RAANRate*pos.X,
		Z: yoDot * sinI,
	}
	return pos, vel, nil
}

// PositionECEF returns the satellite position at time t in the rotating
// ECEF frame (the frame broadcast ephemerides use), by rotating the
// inertial position through the Earth rotation accumulated since t = 0.
func (e Elements) PositionECEF(t float64) (geo.ECEF, error) {
	p, err := e.PositionECI(t)
	if err != nil {
		return geo.ECEF{}, err
	}
	return geo.RotateEarth(p, t), nil
}

// Satellite is one space-segment vehicle: a PRN identifier, its orbit, and
// its broadcast clock model (satellite clocks are high-grade atomic
// standards; af0/af1 are the usual polynomial coefficients).
type Satellite struct {
	PRN      int
	Orbit    Elements
	ClockAF0 float64 // clock bias at Toe, seconds
	ClockAF1 float64 // clock drift, s/s
}

// Constellation is a set of satellites, each with its orbit's
// time-independent terms.
type Constellation struct {
	sats  []Satellite
	terms []orbitTerms // terms[i] belongs to sats[i]
}

// NewConstellation builds a constellation from explicit satellites.
func NewConstellation(sats []Satellite) *Constellation {
	owned := make([]Satellite, len(sats))
	copy(owned, sats)
	return newConstellation(owned)
}

// newConstellation wraps sats, which it takes ownership of.
func newConstellation(sats []Satellite) *Constellation {
	terms := make([]orbitTerms, len(sats))
	for i := range sats {
		terms[i] = sats[i].Orbit.terms()
	}
	return &Constellation{sats: sats, terms: terms}
}

// DefaultConstellation returns a 31-satellite GPS constellation in 6
// planes: RAANs spaced 60° apart, slots phased evenly within each plane
// with a small inter-plane stagger, near-circular orbits. Per-satellite
// clock coefficients are small deterministic offsets so satellite clock
// error is exercised without randomness.
func DefaultConstellation() *Constellation {
	// Plane occupancy: 6 satellites in plane 0, 5 in each of planes 1-5.
	perPlane := [OrbitalPlanes]int{6, 5, 5, 5, 5, 5}
	sats := make([]Satellite, 0, DefaultSatCount)
	idx := 0
	for plane := 0; plane < OrbitalPlanes; plane++ {
		raan := float64(plane) * 2 * math.Pi / OrbitalPlanes
		for slot := 0; slot < perPlane[plane]; slot++ {
			// Even spacing within the plane; stagger planes so slots in
			// adjacent planes do not align in argument of latitude.
			meanAnom := float64(slot)*2*math.Pi/float64(perPlane[plane]) +
				float64(plane)*(2*math.Pi/14.4)
			sats = append(sats, Satellite{
				PRN: idx + 1,
				Orbit: Elements{
					SemiMajorAxis: NominalSemiMajorAxis,
					Eccentricity:  0.005 + 0.003*float64(idx%5)/5, // realistic 0.005-0.008
					Inclination:   NominalInclination,
					RAAN:          raan,
					RAANRate:      -8.0e-9, // typical nodal precession rad/s
					ArgPerigee:    float64(idx%7) * 2 * math.Pi / 7,
					MeanAnomaly:   meanAnom,
					Toe:           0,
				},
				// ±0.1 ms bias, tiny drift — typical broadcast-clock scale.
				ClockAF0: (float64(idx%9) - 4) * 2.5e-5,
				ClockAF1: (float64(idx%5) - 2) * 1e-12,
			})
			idx++
		}
	}
	return newConstellation(sats)
}

// Satellites returns a copy of the satellite list.
func (c *Constellation) Satellites() []Satellite {
	out := make([]Satellite, len(c.sats))
	copy(out, c.sats)
	return out
}

// SatState is one satellite's propagated state at an epoch time: the
// receiver-independent part of epoch generation. It is computed once per
// (satellite, epoch) — by an epoch cache shared across receiver sessions,
// or locally by an uncached generator — and every per-receiver quantity
// (look angles, light-time emission position) derives from it with cheap
// arithmetic, no further Kepler solves.
type SatState struct {
	// Sat is the satellite, in its constellation's immutable list, so a
	// cached state does not copy it.
	Sat *Satellite
	// Pos is the ECEF position at the epoch time, bit-identical to
	// Orbit.PositionECEF(t); visibility tests use it.
	Pos geo.ECEF
	// PosECI, VelECI and AccECI are the inertial position, velocity and
	// two-body acceleration at the epoch time, the Taylor basis the
	// light-time solver expands around.
	PosECI, VelECI, AccECI geo.ECEF
}

// EpochState holds every satellite's state at one epoch time. The Sats
// slice is reused by StateAt; treat a published EpochState as immutable.
type EpochState struct {
	T    float64
	Sats []SatState
}

// StateAt propagates every satellite to time t into dst, reusing dst's
// backing storage. A propagation failure (invalid elements) aborts with
// the offending PRN in the error — no satellite is ever silently skipped
// or zero-filled. Each satellite's orbit terms come from the
// constellation and the Earth rotation is taken once for the epoch; the
// arithmetic is StateECI's and geo.RotateEarth's, so the states are
// bit-identical to propagating each satellite on its own.
func (c *Constellation) StateAt(t float64, dst *EpochState) error {
	dst.T = t
	if cap(dst.Sats) < len(c.sats) {
		dst.Sats = make([]SatState, 0, len(c.sats))
	}
	dst.Sats = dst.Sats[:0]
	rot := RotationAt(t)
	for i := range c.sats {
		s := &c.sats[i]
		eci, vel, err := s.Orbit.stateECI(c.terms[i], t)
		if err != nil {
			return fmt.Errorf("orbit: PRN %d at t=%v: %w", s.PRN, t, err)
		}
		r := eci.Norm()
		acc := eci.Scale(-geo.GM / (r * r * r))
		dst.Sats = append(dst.Sats, SatState{
			Sat:    s,
			Pos:    rot.apply(eci),
			PosECI: eci,
			VelECI: vel,
			AccECI: acc,
		})
	}
	return nil
}

// Rotation is the Earth rotation through the angle ωe·t of an epoch
// time t: the map Emission uses to carry inertial coordinates into the
// reception-time ECEF frame. It depends on t alone, so a caller solving
// every satellite of one epoch takes its sincos once.
type Rotation struct {
	Sin, Cos float64
}

// RotationAt returns the Earth rotation through epoch time t.
func RotationAt(t float64) Rotation {
	s, c := math.Sincos(geo.EarthRotationRate * t)
	return Rotation{Sin: s, Cos: c}
}

// apply rotates p with geo.RotateEarth's arithmetic.
func (r Rotation) apply(p geo.ECEF) geo.ECEF {
	return geo.ECEF{X: r.Cos*p.X + r.Sin*p.Y, Y: -r.Sin*p.X + r.Cos*p.Y, Z: p.Z}
}

// Emission solves the light-time equation from the cached epoch state:
// the satellite position at t−τ expressed in the reception-time ECEF
// frame (Sagnac correction), and the geometric range, where τ is the
// signal travel time and rot = RotationAt(t) for the state's epoch time
// t. The inertial position at t−τ is evaluated by a second-order Taylor
// expansion around the epoch state (truncation error ~10 nm at GPS
// dynamics over τ ≈ 75 ms), so the three fixed-point iterations cost no
// Kepler solves and depend only on (state, recv) — cache-shared and
// locally computed states give bit-identical results.
func (st *SatState) Emission(recv geo.ECEF, rot Rotation) (geo.ECEF, float64) {
	// One rotation through the full epoch time lands the inertial
	// emission position directly in the reception-time frame. The angle
	// does not depend on τ; the rotation itself is geo.RotateEarth's
	// arithmetic.
	tau := 0.075 // initial guess ≈ orbital radius / c
	var pos geo.ECEF
	var dist float64
	for i := 0; i < 3; i++ {
		p := geo.ECEF{
			X: st.PosECI.X - st.VelECI.X*tau + 0.5*st.AccECI.X*tau*tau,
			Y: st.PosECI.Y - st.VelECI.Y*tau + 0.5*st.AccECI.Y*tau*tau,
			Z: st.PosECI.Z - st.VelECI.Z*tau + 0.5*st.AccECI.Z*tau*tau,
		}
		pos = rot.apply(p)
		dist = recv.DistanceTo(pos)
		tau = dist / geo.SpeedOfLight
	}
	return pos, dist
}

// InView is one visible satellite together with its look angles.
type InView struct {
	Elevation float64 // radians
	Azimuth   float64 // radians
	// State is the propagated state backing this satellite (its
	// Satellite and ECEF position at time t), valid as long as the
	// EpochState it came from.
	State *SatState
}

// VisibleFromState returns the satellites above elevMask (radians) as
// seen from the receiver, ordered by descending elevation, computed from
// an already-propagated epoch state.
func VisibleFromState(st *EpochState, receiver geo.ECEF, elevMask float64) []InView {
	frame := geo.NewENUFrame(receiver)
	return AppendVisible(make([]InView, 0, len(st.Sats)), st, &frame, elevMask)
}

// AppendVisible appends the satellites above elevMask (radians) as seen
// through the receiver's local frame to dst, ordered by descending
// elevation, and returns the extended slice. Callers that synthesize
// every epoch for a fixed receiver keep the frame and a reusable dst, so
// the per-epoch cost is the look-angle arithmetic alone. Satellites below
// the horizon are rejected from the frame's up component before any
// trigonometry when the mask is positive, which is exact: their elevation
// is never positive. The azimuth is computed only for satellites that
// pass the mask.
func AppendVisible(dst []InView, st *EpochState, frame *geo.ENUFrame, elevMask float64) []InView {
	start := len(dst)
	for i := range st.Sats {
		s := &st.Sats[i]
		enu := frame.ToENU(s.Pos)
		if elevMask > 0 && enu.U <= 0 {
			continue
		}
		elev := enu.Elevation()
		if elev < elevMask {
			continue
		}
		dst = append(dst, InView{Elevation: elev, Azimuth: enu.Azimuth(), State: s})
	}
	// Insertion sort by descending elevation (lists are ~10 long).
	out := dst[start:]
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Elevation > out[j-1].Elevation; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return dst
}
