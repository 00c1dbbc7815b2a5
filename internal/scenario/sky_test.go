package scenario

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"gpsdl/internal/epochcache"
	"gpsdl/internal/orbit"
)

// TestAppendFromSkyMatchesEpochAt: receivers at one station, with their
// own seeds, clocks, canyons and sky masks, read one shared sky and get
// exactly the observations their own AppendEpochAt synthesizes.
func TestAppendFromSkyMatchesEpochAt(t *testing.T) {
	cons := orbit.DefaultConstellation()
	cache, err := epochcache.New(cons, 0, 1, epochcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := StationByID("KYCP")
	shared := []Option{WithConstellation(cons), WithEpochCache(cache)}
	gens := []*Generator{
		NewGenerator(st, DefaultConfig(1), shared...),
		NewGenerator(st, DefaultConfig(2), shared...),
		NewGenerator(st, DefaultConfig(3), append(shared, WithUrbanCanyon(UrbanCanyon{
			Axis: 0.3, HalfWidth: 0.4, Roofline: 0.7, ReflectProb: 0.5, NLOSBiasM: 30, CN0LossDB: 8}))...),
		NewGenerator(st, DefaultConfig(4), append(shared, WithVisibility(CanyonMask(1, 0.5, 0.6)))...),
	}
	var sky Sky
	var got []SatObs
	for _, tt := range []float64{0, 3600, 3600.5, 43210, 86399} {
		if err := gens[0].SkyAt(&sky, tt); err != nil {
			t.Fatal(err)
		}
		for k, g := range gens {
			if g.SkyKey() != gens[0].SkyKey() {
				t.Fatalf("generator %d: sky key differs at the same station", k)
			}
			if got, err = g.AppendFromSky(got[:0], &sky); err != nil {
				t.Fatal(err)
			}
			want, err := g.AppendEpochAt(nil, tt)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("generator %d at t=%v: shared sky gives %d observations %v, own synthesis %d %v",
					k, tt, len(got), got, len(want), want)
			}
		}
	}
}

// TestAppendFromSkyRefusesOtherKey: a sky is read only by generators
// with its builder's sky key. Another station, mask, noise σ, multipath
// setting, remainder, constellation or cache changes the key; a moving
// receiver accepts only its own skies; an unfilled sky is refused.
func TestAppendFromSkyRefusesOtherKey(t *testing.T) {
	st, _ := StationByID("YYR1")
	other, _ := StationByID("SRZN")
	base := NewGenerator(st, DefaultConfig(1))
	var sky Sky
	if err := base.SkyAt(&sky, 1234); err != nil {
		t.Fatal(err)
	}
	with := func(edit func(*Config)) Config {
		cfg := DefaultConfig(2)
		edit(&cfg)
		return cfg
	}
	cache, err := epochcache.New(orbit.DefaultConstellation(), 0, 1, epochcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	traj := CircularTrajectory(st.Pos, 0, 0)
	refused := map[string]*Generator{
		"station":       NewGenerator(other, DefaultConfig(1)),
		"mask":          NewGenerator(st, with(func(c *Config) { c.ElevMaskDeg = 10 })),
		"noise":         NewGenerator(st, with(func(c *Config) { c.NoiseSigma = 1 })),
		"multipath":     NewGenerator(st, with(func(c *Config) { c.Multipath = false })),
		"iono":          NewGenerator(st, with(func(c *Config) { c.IonoRemainder = 0.2 })),
		"tropo":         NewGenerator(st, with(func(c *Config) { c.TropoRemainder = 0.2 })),
		"constellation": NewGenerator(st, DefaultConfig(1), WithConstellation(orbit.DefaultConstellation())),
		"cache":         NewGenerator(st, DefaultConfig(1), WithEpochCache(cache)),
		"trajectory":    NewGenerator(st, DefaultConfig(1), WithTrajectory(traj)),
	}
	for name, g := range refused {
		if g.SkyKey() == base.SkyKey() {
			t.Errorf("%s: key equals the base generator's", name)
		}
		dst := []SatObs{{PRN: 99}}
		out, err := g.AppendFromSky(dst, &sky)
		if !errors.Is(err, ErrSkyMismatch) {
			t.Errorf("%s: AppendFromSky error %v, want ErrSkyMismatch", name, err)
		}
		if len(out) != 1 || out[0].PRN != 99 {
			t.Errorf("%s: refused sky changed dst to %v", name, out)
		}
	}
	// Floating-point fields compare by bits: -0 is not +0 even though
	// the two are ==.
	plusZero := NewGenerator(st, with(func(c *Config) { c.TropoRemainder = 0 }))
	minusZero := NewGenerator(st, with(func(c *Config) { c.TropoRemainder = math.Copysign(0, -1) }))
	if plusZero.SkyKey() == minusZero.SkyKey() {
		t.Error("TropoRemainder -0 and +0 share a sky key")
	}
	// A moving receiver builds and reads its own skies only, even next to
	// an identical trajectory.
	mobile := refused["trajectory"]
	twin := NewGenerator(st, DefaultConfig(1), WithTrajectory(traj))
	var msky Sky
	if err := mobile.SkyAt(&msky, 1234); err != nil {
		t.Fatal(err)
	}
	if _, err := mobile.AppendFromSky(nil, &msky); err != nil {
		t.Errorf("moving receiver refuses its own sky: %v", err)
	}
	if _, err := twin.AppendFromSky(nil, &msky); !errors.Is(err, ErrSkyMismatch) {
		t.Errorf("moving twin read another receiver's sky: err %v", err)
	}
	if _, err := base.AppendFromSky(nil, &Sky{}); !errors.Is(err, ErrSkyMismatch) {
		t.Errorf("unfilled sky: err %v, want ErrSkyMismatch", err)
	}
}

// TestSkyAtFailureLeavesSkyUnfilled: a SkyAt that fails leaves no
// readable sky behind, even over a previously filled one.
func TestSkyAtFailureLeavesSkyUnfilled(t *testing.T) {
	st, _ := StationByID("YYR1")
	bad := orbit.NewConstellation([]orbit.Satellite{{PRN: 1, Orbit: orbit.Elements{SemiMajorAxis: orbit.NominalSemiMajorAxis, Eccentricity: 1.5}}})
	g := NewGenerator(st, DefaultConfig(1), WithConstellation(bad))
	good := NewGenerator(st, DefaultConfig(1))
	var sky Sky
	if err := good.SkyAt(&sky, 10); err != nil {
		t.Fatal(err)
	}
	if err := g.SkyAt(&sky, 10); err == nil {
		t.Fatal("SkyAt over an invalid orbit succeeded")
	}
	for _, gen := range []*Generator{g, good} {
		if _, err := gen.AppendFromSky(nil, &sky); !errors.Is(err, ErrSkyMismatch) {
			t.Errorf("failed SkyAt left a readable sky: err %v", err)
		}
	}
}

// TestAppendFromSkyAllocs: reading a built sky into a reused buffer
// allocates nothing, and neither does rebuilding a sky in place.
func TestAppendFromSkyAllocs(t *testing.T) {
	g := liveGenerators(t, 1)[0]
	var sky Sky
	if err := g.SkyAt(&sky, 3600); err != nil {
		t.Fatal(err)
	}
	buf, err := g.AppendFromSky(nil, &sky)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { buf, err = g.AppendFromSky(buf[:0], &sky) }); allocs != 0 {
		t.Errorf("AppendFromSky into a reused buffer makes %v allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { err = g.SkyAt(&sky, 3600) }); allocs != 0 {
		t.Errorf("SkyAt into a reused sky makes %v allocations, want 0", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
}
