package scenario

import (
	"math"
	"math/rand"

	"gpsdl/internal/atmosphere"
	"gpsdl/internal/clock"
	"gpsdl/internal/epochcache"
	"gpsdl/internal/geo"
	"gpsdl/internal/orbit"
	"gpsdl/internal/rng"
)

// Config controls dataset generation. The zero value is not useful; start
// from DefaultConfig.
type Config struct {
	// Seed drives every random draw; identical (Seed, Station, t) always
	// produce identical observations.
	Seed int64
	// ElevMaskDeg is the elevation cutoff in degrees. The default of 7°
	// yields the paper's 8-12 visible satellites per epoch (with 10+
	// in view often enough to populate the m = 10 sweep point).
	ElevMaskDeg float64
	// NoiseSigma is the thermal-noise standard deviation in meters.
	NoiseSigma float64
	// IonoRemainder is the fraction of the modeled ionospheric delay left
	// after broadcast correction (≈0.3: Klobuchar removes ~50-70%).
	IonoRemainder float64
	// TropoRemainder is the residual fraction of the tropospheric delay.
	TropoRemainder float64
	// Multipath enables elevation-dependent multipath noise.
	Multipath bool
	// Step is the epoch spacing in seconds (the paper uses 1 s).
	Step float64
	// CodeOnly has no effect: the generator synthesizes pseudo-range
	// observables only. No dataset format writes or reads it.
	//
	// Deprecated: kept only so that code assigning it still compiles.
	CodeOnly bool `json:"-"`
}

// DefaultConfig returns the configuration used for the paper-reproduction
// experiments.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:           seed,
		ElevMaskDeg:    7,
		NoiseSigma:     2.0,
		IonoRemainder:  0.3,
		TropoRemainder: 0.1,
		Multipath:      true,
		Step:           1,
	}
}

// SatObs is one satellite's contribution to an epoch: its ECEF coordinates
// at signal emission (expressed in the reception-time frame) and the
// measured L1 code pseudo-range — exactly the per-satellite payload of
// the paper's "data items" (Section 5.2.1).
type SatObs struct {
	PRN         int      `json:"prn"`
	Pos         geo.ECEF `json:"pos"`
	Pseudorange float64  `json:"pr"`
	// Elevation (radians) is carried for satellite-selection strategies
	// and diagnostics; real receivers compute it from the fix anyway.
	Elevation float64 `json:"elev"`
	// CN0 is the reported carrier-to-noise density in dB-Hz: the signal-
	// quality figure tracking loops expose and weighted solvers consume.
	// It is synthesized consistently with the observation's code-noise
	// budget (core.CN0FromSigma of the thermal+multipath σ at this
	// elevation, ±cn0FlutterDB of deterministic flutter), so a solver
	// mapping it back through core.SigmaFromCN0 recovers an honest weight.
	// NLOS reflections in urban-canyon scenarios and jamming faults
	// suppress it. Zero in datasets generated before the field existed.
	CN0 float64 `json:"cn0,omitempty"`
}

// Epoch is one second of observations.
type Epoch struct {
	// T is the receiver timestamp in seconds from the dataset start.
	T float64 `json:"t"`
	// Obs holds all visible satellites, sorted by descending elevation.
	Obs []SatObs `json:"obs"`
}

// Generator produces epochs for one station.
type Generator struct {
	station   Station
	cfg       Config
	cons      *orbit.Constellation
	cache     *epochcache.Cache
	clk       clock.Model
	posAt     func(t float64) geo.ECEF
	visible   func(elev, azim float64) bool
	canyon    *UrbanCanyon
	canyonLOS func(elev, azim float64) bool

	// Constants of the station and the constellation, computed once by
	// NewGenerator rather than per observation: the station-ID seed mix
	// of the receiver-local noise streams, the station's longitude
	// (local solar time), its zenith tropospheric delay, the receiver's
	// local ENU frame, the per-PRN pass factors indexed by PRN, and the
	// key of the skies it builds. frame is nil for a mobile receiver
	// (WithTrajectory), whose frame moves with it and is rebuilt every
	// epoch. None of them changes after NewGenerator, so concurrent
	// EpochAt calls stay safe.
	stationSeed int64
	lon         float64
	tropoZenith float64
	frame       *geo.ENUFrame
	pass        []passFactors
	skyKey      SkyKey
}

// passFactors are one satellite's model-mismatch factors in [-1, 1],
// fixed for the whole day: the broadcast model misfits a satellite pass
// coherently, not white-noise-like.
type passFactors struct {
	iono, tropo float64
}

// maxPassTablePRN bounds the PRN-indexed pass-factor table; a PRN above
// it (or a negative one) draws its factors on each use instead.
const maxPassTablePRN = 1023

// drawPassFactors draws PRN prn's pass factors from their own stream.
// The stream is keyed by the run seed and PRN but not the station, so two
// receivers observing the same satellite share its atmospheric residual —
// the property differential GPS exploits.
func drawPassFactors(seed int64, prn int) passFactors {
	pass := rng.New(obsSeed(seed, prn, -1))
	iono := pass.Float64()*2 - 1
	tropo := pass.Float64()*2 - 1
	return passFactors{iono: iono, tropo: tropo}
}

// passFactorsOf returns PRN prn's pass factors from the table, or draws
// them for a PRN the table does not cover.
func (g *Generator) passFactorsOf(prn int) passFactors {
	if prn >= 0 && prn < len(g.pass) {
		return g.pass[prn]
	}
	return drawPassFactors(g.cfg.Seed, prn)
}

// Option customizes a Generator.
type Option func(*Generator)

// WithTrajectory makes the receiver mobile: pos gives the true receiver
// position at each time. Used by the vehicle-tracking example; the
// station's Pos is then only the trajectory reference point.
func WithTrajectory(pos func(t float64) geo.ECEF) Option {
	return func(g *Generator) { g.posAt = pos }
}

// WithConstellation substitutes a custom constellation.
func WithConstellation(c *orbit.Constellation) Option {
	return func(g *Generator) { g.cons = c }
}

// WithClockModel substitutes a custom receiver clock truth model.
func WithClockModel(m clock.Model) Option {
	return func(g *Generator) { g.clk = m }
}

// WithEpochCache shares a per-epoch constellation snapshot cache with the
// generator: epochs whose time lies on the cache's canonical grid read the
// constellation state from the cache instead of re-propagating it, so N
// receivers pay one Kepler solve per epoch instead of N. Output is
// bit-identical with and without the cache — the cached state is the same
// orbit.EpochState the generator would compute itself — so callers such
// as gpsrun and eval that generate uncached stay exactly compatible. The
// cache is only consulted when it was built over the *same* constellation
// value the generator uses (pointer identity); a generator configured with
// a different WithConstellation silently ignores a mismatched cache rather
// than serving another constellation's geometry.
func WithEpochCache(c *epochcache.Cache) Option {
	return func(g *Generator) { g.cache = c }
}

// WithVisibility installs an extra sky mask: a satellite above the global
// elevation cutoff is still dropped when visible(elev, azim) is false.
// Use for urban-canyon scenarios where buildings occlude whole azimuth
// sectors and the receiver may fall below 4 usable satellites (the regime
// the 3-satellite TriSat solver exists for).
func WithVisibility(visible func(elev, azim float64) bool) Option {
	return func(g *Generator) { g.visible = visible }
}

// CanyonMask returns a visibility function modeling a street canyon
// running along the given axis (radians clockwise from north): satellites
// are visible only within halfWidth of the street axis (either direction)
// or above the roofline elevation.
func CanyonMask(axis, halfWidth, roofline float64) func(elev, azim float64) bool {
	return func(elev, azim float64) bool {
		if elev >= roofline {
			return true
		}
		for _, dir := range [2]float64{axis, axis + math.Pi} {
			d := math.Mod(azim-dir, 2*math.Pi)
			if d > math.Pi {
				d -= 2 * math.Pi
			}
			if d < -math.Pi {
				d += 2 * math.Pi
			}
			if d >= -halfWidth && d <= halfWidth {
				return true
			}
		}
		return false
	}
}

// UrbanCanyon models a street canyon: satellites below the roofline and
// off the street axis lose line of sight. A fraction of them are still
// tracked through a building reflection — arriving with a positive
// excess-path bias and a suppressed C/N0 — and the rest drop out
// entirely. This is the adversarial regime the paper never tested:
// the NLOS bias is a gross, non-Gaussian error that honest per-satellite
// weighting (via the suppressed C/N0) handles gracefully where
// homoscedastic solvers absorb it in full.
type UrbanCanyon struct {
	// Axis is the street direction in radians clockwise from north;
	// HalfWidth is the angular half-opening along the axis; Roofline is
	// the elevation above which the sky is always clear. Same geometry
	// as CanyonMask.
	Axis, HalfWidth, Roofline float64
	// ReflectProb is the probability an occluded satellite is still
	// tracked via a reflection (deterministic per seed/PRN/epoch);
	// the remainder are blocked. 0 reduces to pure CanyonMask blockage.
	ReflectProb float64
	// NLOSBiasM is the mean excess path of a reflection in meters; each
	// reflected observation carries NLOSBiasM·(0.5 + u), u uniform [0,1).
	NLOSBiasM float64
	// CN0LossDB is how much a reflection suppresses the reported C/N0.
	CN0LossDB float64
}

// WithUrbanCanyon installs a street-canyon environment model: occlusion
// by the canyon geometry, with ReflectProb of the occluded satellites
// kept as biased NLOS reflections instead of dropped.
func WithUrbanCanyon(c UrbanCanyon) Option {
	return func(g *Generator) {
		g.canyon = &c
		g.canyonLOS = CanyonMask(c.Axis, c.HalfWidth, c.Roofline)
	}
}

// NewGenerator builds a generator for the station. The receiver clock
// truth model is derived from the station's clock-correction type with
// parameters varied deterministically by Seed.
func NewGenerator(station Station, cfg Config, opts ...Option) *Generator {
	if cfg.Step <= 0 {
		cfg.Step = 1
	}
	g := &Generator{
		station: station,
		cfg:     cfg,
		cons:    orbit.DefaultConstellation(),
		clk:     defaultClockModel(station, cfg.Seed),
	}
	for _, opt := range opts {
		opt(g)
	}
	if g.posAt == nil {
		g.posAt = func(float64) geo.ECEF { return station.Pos }
		frame := geo.NewENUFrame(station.Pos)
		g.frame = &frame
	}
	lla := station.Pos.ToLLA()
	g.lon = lla.Lon
	g.tropoZenith = atmosphere.TropoZenith(lla.Alt)
	g.stationSeed = cfg.Seed ^ int64(hashString(station.ID))
	if g.atmosphereOn() {
		maxPRN := -1
		for _, sat := range g.cons.Satellites() {
			if sat.PRN <= maxPassTablePRN {
				maxPRN = max(maxPRN, sat.PRN)
			}
		}
		g.pass = make([]passFactors, maxPRN+1)
		for prn := range g.pass {
			g.pass[prn] = drawPassFactors(cfg.Seed, prn)
		}
	}
	g.skyKey = skyKeyOf(g)
	return g
}

// atmosphereOn reports whether observations carry atmospheric residuals.
func (g *Generator) atmosphereOn() bool {
	return g.cfg.IonoRemainder > 0 || g.cfg.TropoRemainder > 0
}

// defaultClockModel builds the truth clock for a station.
func defaultClockModel(station Station, seed int64) clock.Model {
	rng := rand.New(rand.NewSource(seed ^ int64(hashString(station.ID))))
	switch station.Clock {
	case ClockThreshold:
		// Quartz receiver: drift 0.5-2 × 1e-7 s/s, 1 ms reset threshold
		// (several resets over 24 h).
		return &clock.ThresholdModel{
			Offset:    rng.Float64() * 1e-4,
			Drift:     (0.5 + 1.5*rng.Float64()) * 1e-7,
			Threshold: 1e-3,
		}
	default:
		// Steered clock: small constant residual, bounded slow
		// oscillation from the steering loop, ns-level jitter.
		return &clock.SteeringModel{
			Offset:     (rng.Float64() - 0.5) * 1e-7, // ±50 ns
			Amplitude:  (2 + 3*rng.Float64()) * 1e-9, // 2-5 ns
			Period:     7200 + rng.Float64()*14400,   // 2-6 h
			Jitter:     1e-9,
			JitterSeed: seed,
		}
	}
}

// Station returns the generated station.
func (g *Generator) Station() Station { return g.station }

// ClockModel exposes the receiver-clock truth model (for predictor
// evaluation and the clockcal example).
func (g *Generator) ClockModel() clock.Model { return g.clk }

// TruthPosition returns the true receiver position at time t.
func (g *Generator) TruthPosition(t float64) geo.ECEF { return g.posAt(t) }

// EpochAt generates the observations for receiver time t. Generation is a
// pure function of (Seed, station, t): re-generating any epoch gives
// byte-identical results regardless of order, and — because the cached
// constellation state is exactly the state a lone generator computes —
// regardless of whether a shared epoch cache is attached.
func (g *Generator) EpochAt(t float64) (Epoch, error) {
	obs, err := g.AppendEpochAt(nil, t)
	if err != nil {
		return Epoch{}, err
	}
	return Epoch{T: t, Obs: obs}, nil
}

// AppendEpochAt appends the observations EpochAt(t) returns to dst and
// returns the extended slice; on error dst comes back unchanged. It is
// SkyAt followed by AppendFromSky, their work run on a sky that lives on
// this call's stack, so a caller that synthesizes every epoch into the
// same reused buffer allocates nothing once the buffer has grown to a
// sky's worth of satellites. Callers synthesizing many receivers at one
// station build the sky once and call AppendFromSky per receiver.
func (g *Generator) AppendEpochAt(dst []SatObs, t float64) ([]SatObs, error) {
	var buf [24]skySat
	sats, err := g.appendSky(buf[:0], t)
	if err != nil {
		return dst, err
	}
	return g.appendObs(dst, sats, t), nil
}

// EpochTime is the canonical timebase: epoch i of a run starting at t0
// lies at t0 + i·step. Computing every timestamp directly from the index
// (rather than accumulating t += step) keeps serial and parallel
// generation bit-identical even for steps that are not exactly
// representable in binary (1/3, 86400/7, 0.1, …), where accumulation
// drifts by one ULP per epoch.
func EpochTime(t0 float64, i int, step float64) float64 {
	return t0 + float64(i)*step
}

// EpochCount returns how many epochs [t0, t1) holds at the given step:
// the number of indices i ≥ 0 with EpochTime(t0, i, step) < t1. A step
// ≤ 0 yields 0. The count is computed in closed form — ⌈(t1−t0)/step⌉
// nudged by at most a couple of steps to honor the exact floating-point
// boundary EpochTime uses — so day-long ranges no longer cost an O(n)
// counting loop per call.
func EpochCount(t0, t1, step float64) int {
	if step <= 0 || !(t0 < t1) {
		return 0
	}
	n := int(math.Ceil((t1 - t0) / step))
	if n < 0 {
		n = 0
	}
	// The division can disagree with EpochTime's rounding by an ULP at
	// the boundary; walk to the exact answer. Monotonicity of
	// t0 + i·step in i bounds each loop to a step or two.
	for n > 0 && EpochTime(t0, n-1, step) >= t1 {
		n--
	}
	for EpochTime(t0, n, step) < t1 {
		n++
	}
	return n
}

// GenerateRange produces epochs for t in [t0, t1) at the configured step,
// on the canonical index-based timebase (see EpochTime).
func (g *Generator) GenerateRange(t0, t1 float64) (*Dataset, error) {
	n := EpochCount(t0, t1, g.cfg.Step)
	ds := &Dataset{
		Station: g.station,
		Config:  g.cfg,
		Epochs:  make([]Epoch, 0, n),
	}
	for i := 0; i < n; i++ {
		e, err := g.EpochAt(EpochTime(t0, i, g.cfg.Step))
		if err != nil {
			return nil, err
		}
		ds.Epochs = append(ds.Epochs, e)
	}
	return ds, nil
}

// localSolarTime approximates the local solar time (seconds of day) at
// longitude lon (radians), for the ionosphere's diurnal cycle.
func localSolarTime(lon, t float64) float64 {
	lt := math.Mod(t+lon/(2*math.Pi)*86400, 86400)
	if lt < 0 {
		lt += 86400
	}
	return lt
}

// obsSeed mixes the generator seed, PRN and epoch time into a 64-bit seed
// (splitmix64 finalizer) so each observation has an independent stream.
func obsSeed(seed int64, prn int, t float64) int64 {
	z := uint64(seed) ^ (uint64(prn) * 0x9E3779B97F4A7C15) ^ math.Float64bits(t)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// hashString is a tiny FNV-1a for station IDs.
func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
