package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"gpsdl/internal/epochcache"
	"gpsdl/internal/orbit"
)

// epochAtGolden pins a digest of the pseudo-range observables EpochAt
// produces (PRN, Pos, Pseudorange, Elevation, CN0), per generator
// variant, over all Table 5.1 stations.
// The values were computed by the straightforward (per-call) synthesis
// path; an optimisation of EpochAt must reproduce them bit for bit.
var epochAtGolden = map[string]string{
	"uncached":   "7ef6d7600fcfa1cbf75dc662",
	"cached":     "7ef6d7600fcfa1cbf75dc662",
	"trajectory": "e44d7e4650fcd5b38c5f5b39",
	"canyon":     "1f8bf78ed522fa39fe381f93",
}

// goldenTimes spans several hours so every station sees satellites rise
// and set; the half-second offsets fall off the cache grid and exercise
// the local-propagation fallback of a cached generator.
func goldenTimes() []float64 {
	var ts []float64
	for i := 0; i < 48; i++ {
		ts = append(ts, float64(i)*613)
	}
	return append(ts, 1000.5, 20000.5, 86399.5)
}

// digestEpoch folds every field of the epoch into h, bit-exactly.
func digestEpoch(h []byte, e Epoch) []byte {
	f := func(v float64) { h = binary.LittleEndian.AppendUint64(h, math.Float64bits(v)) }
	f(e.T)
	h = binary.LittleEndian.AppendUint64(h, uint64(len(e.Obs)))
	for _, o := range e.Obs {
		h = binary.LittleEndian.AppendUint64(h, uint64(o.PRN))
		for _, v := range []float64{o.Pos.X, o.Pos.Y, o.Pos.Z, o.Pseudorange, o.Elevation, o.CN0} {
			f(v)
		}
	}
	return h
}

// goldenGenerator builds the generator for one (variant, station, cfg).
func goldenGenerator(t *testing.T, variant string, st Station, cfg Config) *Generator {
	t.Helper()
	switch variant {
	case "uncached":
		return NewGenerator(st, cfg)
	case "cached":
		cons := orbit.DefaultConstellation()
		cache, err := epochcache.New(cons, 0, 1, epochcache.Options{Capacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		return NewGenerator(st, cfg, WithConstellation(cons), WithEpochCache(cache))
	case "trajectory":
		traj := CircularTrajectory(st.Pos, 500, 30)
		return NewGenerator(st, cfg, WithTrajectory(traj))
	case "canyon":
		return NewGenerator(st, cfg, WithUrbanCanyon(UrbanCanyon{
			Axis: 0.4, HalfWidth: 0.35, Roofline: 35 * math.Pi / 180,
			ReflectProb: 0.5, NLOSBiasM: 25, CN0LossDB: 9,
		}))
	}
	t.Fatalf("unknown variant %q", variant)
	return nil
}

// TestEpochAtGolden pins EpochAt output across code versions: every
// determinism test compares the generator with itself, so only a
// committed digest catches a speed-up that changes a bit somewhere.
func TestEpochAtGolden(t *testing.T) {
	for _, variant := range []string{"uncached", "cached", "trajectory", "canyon"} {
		var buf []byte
		for _, st := range Table51Stations() {
			g := goldenGenerator(t, variant, st, DefaultConfig(23))
			for _, ts := range goldenTimes() {
				e, err := g.EpochAt(ts)
				if err != nil {
					t.Fatalf("%s %s t=%v: %v", variant, st.ID, ts, err)
				}
				buf = digestEpoch(buf, e)
			}
		}
		sum := sha256.Sum256(buf)
		if got := hex.EncodeToString(sum[:12]); got != epochAtGolden[variant] {
			t.Errorf("%s: digest %s, want %s", variant, got, epochAtGolden[variant])
		}
	}
}
