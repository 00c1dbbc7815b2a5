package scenario

import (
	"fmt"
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
	// local ENU frame, and the per-PRN pass factors indexed by PRN.
	// frame is nil for a mobile receiver (WithTrajectory), whose frame
	// moves with it and is rebuilt every epoch. None of them changes
	// after NewGenerator, so concurrent EpochAt calls stay safe.
	stationSeed int64
	lon         float64
	tropoZenith float64
	frame       *geo.ENUFrame
	pass        []passFactors
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
// returns the extended slice; on error dst comes back unchanged. A caller
// that synthesizes every epoch into the same reused buffer allocates
// nothing once the buffer has grown to a sky's worth of satellites.
//
// Only the work that depends on the (receiver, satellite, epoch) triple
// runs per observation. The station's constants and the per-PRN pass
// factors come from NewGenerator; the local solar time, the ionosphere's
// vertical delay, the receiver clock term and the Earth rotation of the
// light-time solution are taken once per call.
func (g *Generator) AppendEpochAt(dst []SatObs, t float64) ([]SatObs, error) {
	recv := g.posAt(t)
	mask := g.cfg.ElevMaskDeg * math.Pi / 180
	// Constellation state: from the shared snapshot when the cache covers
	// this time on its canonical grid, otherwise propagated locally. The
	// local state lives on this call's stack/heap, never in the Generator,
	// so concurrent EpochAt calls (GenerateRangeParallel) stay safe.
	var st *orbit.EpochState
	if g.cache != nil && g.cache.Constellation() == g.cons {
		snap, err := g.cache.Lookup(t)
		if err != nil {
			return dst, fmt.Errorf("scenario: constellation at t=%v: %w", t, err)
		}
		if snap != nil {
			st = &snap.State
		}
	}
	if st == nil {
		var local orbit.EpochState
		if err := g.cons.StateAt(t, &local); err != nil {
			return dst, fmt.Errorf("scenario: constellation at t=%v: %w", t, err)
		}
		st = &local
	}
	frame := g.frame
	if frame == nil {
		f := geo.NewENUFrame(recv)
		frame = &f
	}
	// A GPS sky never holds more than ~16 satellites above the horizon,
	// so the look-angle list lives on the stack; a larger custom
	// constellation just spills to the heap.
	var visBuf [24]orbit.InView
	vis := orbit.AppendVisible(visBuf[:0], st, frame, mask)
	if free := cap(dst) - len(dst); free < len(vis) {
		grown := make([]SatObs, len(dst), len(dst)+len(vis))
		copy(grown, dst)
		dst = grown
	}
	clockRange := geo.SpeedOfLight * g.clk.BiasAt(t)
	rot := orbit.RotationAt(t)
	var ionoVertical float64
	if g.atmosphereOn() {
		ionoVertical = atmosphere.IonoVertical(localSolarTime(g.lon, t))
	}
	for _, v := range vis {
		if g.visible != nil && !g.visible(v.Elevation, v.Azimuth) {
			continue
		}
		// Environment stream: canyon reflection draws and C/N0 flutter.
		// Independent of the error stream (separate tag in the seed mix)
		// so pseudo-range noise is byte-identical with and without the
		// C/N0 model.
		sat := &v.State.Sat
		env := rng.New(obsSeed(g.stationSeed^envStreamTag, sat.PRN, t))
		nlos := false
		var nlosBias float64
		if g.canyon != nil && !g.canyonLOS(v.Elevation, v.Azimuth) {
			if env.Float64() >= g.canyon.ReflectProb {
				continue // blocked by the buildings
			}
			nlos = true
			nlosBias = g.canyon.NLOSBiasM * (0.5 + env.Float64())
		}
		// Signal emission position: iterate the light-time equation,
		// expressing the satellite position in the reception-time frame
		// (Sagnac correction).
		emitPos, dist := v.State.Emission(recv, rot)
		var mp float64
		if g.cfg.Multipath {
			mp = atmosphere.MultipathSigma(v.Elevation)
		}
		pr := dist + clockRange + g.satelliteError(sat.PRN, t, v.Elevation, mp, ionoVertical) + nlosBias
		cn0 := g.nominalCN0(mp) + (env.Float64()*2-1)*cn0FlutterDB
		if nlos {
			cn0 -= g.canyon.CN0LossDB
		}
		dst = append(dst, SatObs{
			PRN:         sat.PRN,
			Pos:         emitPos,
			Pseudorange: pr,
			Elevation:   v.Elevation,
			CN0:         cn0,
		})
	}
	return dst, nil
}

// envStreamTag separates the environment stream (canyon reflections,
// C/N0 flutter) from the per-observation error stream in the seed mix.
const envStreamTag = 0x7E57C0DE5EED

// cn0FlutterDB is the half-range of the deterministic C/N0 flutter:
// reported signal quality wobbles around the elevation-model value, so
// derived weights are realistic estimates rather than oracle truth.
const cn0FlutterDB = 0.7

// nominalCN0 maps an observation's multipath σ mp (0 without multipath)
// to the C/N0 a receiver would report, by inverting the solver-side σ
// model over this generator's code-noise budget (thermal + elevation-
// dependent multipath). Zero noise — some synthetic configs — reports
// the reference C/N0.
func (g *Generator) nominalCN0(mp float64) float64 {
	variance := g.cfg.NoiseSigma * g.cfg.NoiseSigma
	if g.cfg.Multipath {
		variance += mp * mp
	}
	if variance <= 0 {
		return atmosphere.CN0RefDBHz
	}
	return atmosphere.CN0FromSigma(math.Sqrt(variance))
}

// satelliteError draws the satellite-dependent error εᵢˢ for one
// observation at elevation elev: thermal noise, multipath of σ mp, and
// atmospheric residuals, ionoVertical being the epoch's vertical
// ionospheric delay. All draws are deterministic functions of (Seed,
// station, PRN, t). The station identity enters the receiver-local
// noise stream (thermal, multipath) but not the per-pass atmospheric
// factors (see drawPassFactors). Streams are rng.Stream rather than
// math/rand: seeding the latter runs a 607-word lagged-Fibonacci warm-up
// that dominated live generation cost (each epoch seeds ~2 streams per
// visible satellite).
func (g *Generator) satelliteError(prn int, t, elev, mp, ionoVertical float64) float64 {
	obs := rng.New(obsSeed(g.stationSeed, prn, t))
	eps := g.cfg.NoiseSigma * obs.NormFloat64()
	if g.cfg.Multipath {
		eps += mp * obs.NormFloat64()
	}
	if g.atmosphereOn() {
		u := g.passFactorsOf(prn)
		eps += ionoVertical*atmosphere.IonoObliquity(elev)*g.cfg.IonoRemainder*u.iono +
			atmosphere.TropoSlant(g.tropoZenith, elev)*g.cfg.TropoRemainder*u.tropo
	}
	return eps
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
