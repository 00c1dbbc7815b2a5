package scenario

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"gpsdl/internal/atmosphere"
	"gpsdl/internal/epochcache"
	"gpsdl/internal/geo"
	"gpsdl/internal/orbit"
	"gpsdl/internal/rng"
)

// Sky is one station's view of the constellation at one epoch: every
// part of the epoch's observations that depends only on the station,
// the satellites and the time. SkyAt builds it; AppendFromSky adds what
// each receiver draws on its own (clock, noise, pass factors, C/N0
// flutter, canyon and visibility filters). Receivers at the same
// station — generators with equal SkyKeys — can share one Sky per epoch.
// The zero Sky is empty and accepted by no generator; a Sky is reused
// by building into it again.
type Sky struct {
	key    SkyKey
	filled bool // key and sats hold one complete SkyAt
	t      float64
	sats   []skySat
}

// skySat is one satellite above the elevation mask, as the station sees
// it: look angles, the light-time emission position and range, the
// multipath σ and nominal C/N0 of its elevation, and the left prefixes
// of its atmospheric residuals, ionoVertical·IonoObliquity(elev)·
// IonoRemainder and TropoSlant(zenith, elev)·TropoRemainder. A receiver
// multiplies each prefix by its own pass factor, which rounds exactly as
// the unsplit product.
type skySat struct {
	prn         int
	elev, azim  float64
	pos         geo.ECEF
	dist        float64
	mp, cn0     float64
	iono, tropo float64
}

// SkyKey identifies everything a Sky depends on: the station position,
// the constellation and epoch cache, the elevation mask, the thermal
// noise σ (through the nominal C/N0), multipath and the two atmospheric
// remainders. The seed, station ID and clock are per-receiver and not
// part of it. Generators with equal keys build bit-identical skies, so
// SkyKey is what a caller groups receivers by. Floating-point fields
// are compared by their bits.
type SkyKey struct {
	pos                            [3]uint64
	cons                           *orbit.Constellation
	cache                          *epochcache.Cache
	mask, noise, ionoRem, tropoRem uint64
	multipath                      bool
	// mobile is the generator itself when it follows a trajectory: a
	// moving receiver's sky is its own.
	mobile *Generator
}

// ErrSkyMismatch is AppendFromSky's answer to a Sky built by a generator
// with a different SkyKey, or to a Sky no SkyAt completed.
var ErrSkyMismatch = errors.New("scenario: sky was not built for this generator's sky key")

// skyKeyOf computes g's SkyKey; NewGenerator stores it.
func skyKeyOf(g *Generator) SkyKey {
	k := SkyKey{
		pos:       [3]uint64{math.Float64bits(g.station.Pos.X), math.Float64bits(g.station.Pos.Y), math.Float64bits(g.station.Pos.Z)},
		cons:      g.cons,
		cache:     g.cache,
		mask:      math.Float64bits(g.cfg.ElevMaskDeg),
		noise:     math.Float64bits(g.cfg.NoiseSigma),
		ionoRem:   math.Float64bits(g.cfg.IonoRemainder),
		tropoRem:  math.Float64bits(g.cfg.TropoRemainder),
		multipath: g.cfg.Multipath,
	}
	if g.frame == nil {
		k.mobile = g
	}
	return k
}

// SkyKey returns the key of the skies g builds and accepts.
func (g *Generator) SkyKey() SkyKey { return g.skyKey }

// SkyAt builds the station's sky at receiver time t into sky, reusing
// its storage: the constellation state (from the shared epoch cache when
// it covers t), the satellites above the mask with their look angles,
// each one's light-time solution, multipath σ and nominal C/N0, and the
// atmosphere terms of the epoch's local solar time. On error, or if it
// panics part way, sky is left unfilled and no generator accepts it.
func (g *Generator) SkyAt(sky *Sky, t float64) error {
	sky.filled = false
	sats, err := g.appendSky(sky.sats[:0], t)
	sky.sats = sats
	if err != nil {
		return err
	}
	sky.key, sky.t, sky.filled = g.skyKey, t, true
	return nil
}

// appendSky appends the satellites of the station's sky at time t to
// dst: SkyAt's work, on any buffer. AppendEpochAt runs it on a stack
// buffer, which a *Sky would move to the heap.
func (g *Generator) appendSky(dst []skySat, t float64) ([]skySat, error) {
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
	dst = slices.Grow(dst, len(vis))
	rot := orbit.RotationAt(t)
	atmosphereOn := g.atmosphereOn()
	var ionoVertical float64
	if atmosphereOn {
		ionoVertical = atmosphere.IonoVertical(localSolarTime(g.lon, t))
	}
	for _, v := range vis {
		// Signal emission position: iterate the light-time equation,
		// expressing the satellite position in the reception-time frame
		// (Sagnac correction).
		emitPos, dist := v.State.Emission(recv, rot)
		s := skySat{prn: v.State.Sat.PRN, elev: v.Elevation, azim: v.Azimuth, pos: emitPos, dist: dist}
		if g.cfg.Multipath {
			s.mp = atmosphere.MultipathSigma(v.Elevation)
		}
		s.cn0 = g.nominalCN0(s.mp)
		if atmosphereOn {
			s.iono = ionoVertical * atmosphere.IonoObliquity(v.Elevation) * g.cfg.IonoRemainder
			s.tropo = atmosphere.TropoSlant(g.tropoZenith, v.Elevation) * g.cfg.TropoRemainder
		}
		dst = append(dst, s)
	}
	return dst, nil
}

// AppendFromSky appends the observations EpochAt(t) returns to dst, t
// being the time sky was built for, and returns the extended slice. It
// adds the receiver's own terms to each satellite of the sky: the clock
// bias, thermal and multipath noise, the atmospheric pass factors, the
// C/N0 flutter, and the urban-canyon and visibility filters. A sky from
// a generator with a different SkyKey, or one no SkyAt completed, is
// refused with ErrSkyMismatch and dst comes back unchanged. Into a
// reused dst it allocates nothing.
func (g *Generator) AppendFromSky(dst []SatObs, sky *Sky) ([]SatObs, error) {
	if !sky.filled || sky.key != g.skyKey {
		return dst, ErrSkyMismatch
	}
	return g.appendObs(dst, sky.sats, sky.t), nil
}

// appendObs appends the receiver's observations of the sky satellites
// sats at time t to dst: AppendFromSky's work, on any buffer.
func (g *Generator) appendObs(dst []SatObs, sats []skySat, t float64) []SatObs {
	if free := cap(dst) - len(dst); free < len(sats) {
		grown := make([]SatObs, len(dst), len(dst)+len(sats))
		copy(grown, dst)
		dst = grown
	}
	clockRange := geo.SpeedOfLight * g.clk.BiasAt(t)
	for i := range sats {
		s := &sats[i]
		if g.visible != nil && !g.visible(s.elev, s.azim) {
			continue
		}
		// Environment stream: canyon reflection draws and C/N0 flutter.
		// Independent of the error stream (separate tag in the seed mix)
		// so pseudo-range noise is byte-identical with and without the
		// C/N0 model.
		env := rng.New(obsSeed(g.stationSeed^envStreamTag, s.prn, t))
		nlos := false
		var nlosBias float64
		if g.canyon != nil && !g.canyonLOS(s.elev, s.azim) {
			if env.Float64() >= g.canyon.ReflectProb {
				continue // blocked by the buildings
			}
			nlos = true
			nlosBias = g.canyon.NLOSBiasM * (0.5 + env.Float64())
		}
		pr := s.dist + clockRange + g.satelliteError(s, t) + nlosBias
		cn0 := s.cn0 + (env.Float64()*2-1)*cn0FlutterDB
		if nlos {
			cn0 -= g.canyon.CN0LossDB
		}
		dst = append(dst, SatObs{
			PRN:         s.prn,
			Pos:         s.pos,
			Pseudorange: pr,
			Elevation:   s.elev,
			CN0:         cn0,
		})
	}
	return dst
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

// satelliteError draws the satellite-dependent error εᵢˢ for sky
// satellite s at time t: thermal noise, multipath of σ s.mp, and the
// atmospheric residuals, s's prefixes times the satellite's pass
// factors. All draws are deterministic functions of (Seed, station,
// PRN, t). The station identity enters the receiver-local noise stream
// (thermal, multipath) but not the per-pass atmospheric factors (see
// drawPassFactors). Streams are rng.Stream rather than math/rand:
// seeding the latter runs a 607-word lagged-Fibonacci warm-up that
// dominated live generation cost (each epoch seeds ~2 streams per
// visible satellite).
func (g *Generator) satelliteError(s *skySat, t float64) float64 {
	obs := rng.New(obsSeed(g.stationSeed, s.prn, t))
	eps := g.cfg.NoiseSigma * obs.NormFloat64()
	if g.cfg.Multipath {
		eps += s.mp * obs.NormFloat64()
	}
	if g.atmosphereOn() {
		u := g.passFactorsOf(s.prn)
		eps += s.iono*u.iono + s.tropo*u.tropo
	}
	return eps
}
