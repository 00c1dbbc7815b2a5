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
// Besides the option variants, four pin the error-model branches
// DefaultConfig does not take: multipath off, no atmospheric residual,
// zero noise (the reference-C/N0 branch) and a constellation whose PRNs
// run past 32 and past any PRN-indexed table.
var epochAtGolden = map[string]string{
	"uncached":      "7ef6d7600fcfa1cbf75dc662",
	"cached":        "7ef6d7600fcfa1cbf75dc662",
	"trajectory":    "e44d7e4650fcd5b38c5f5b39",
	"canyon":        "1f8bf78ed522fa39fe381f93",
	"no-multipath":  "44992cd294f0092694e9272a",
	"no-atmosphere": "415be32d03534438ad5bad38",
	"reference-cn0": "3c570e4a65a572a1111ef4bb",
	"wide-prns":     "590e98c5f971a6737b451169",
}

// goldenVariants lists every pinned variant in digest order.
var goldenVariants = []string{"uncached", "cached", "trajectory", "canyon",
	"no-multipath", "no-atmosphere", "reference-cn0", "wide-prns"}

// goldenConfig is the generator configuration of one variant.
func goldenConfig(variant string) Config {
	cfg := DefaultConfig(23)
	switch variant {
	case "no-multipath":
		cfg.Multipath = false
	case "no-atmosphere":
		cfg.IonoRemainder, cfg.TropoRemainder = 0, 0
	case "reference-cn0":
		cfg.NoiseSigma, cfg.Multipath = 0, false
	}
	return cfg
}

// widePRNConstellation is the default constellation renumbered so its
// PRNs leave 1..32: the first half keeps its numbers, the rest move to
// 41 and up, and the last satellite becomes PRN 5000.
func widePRNConstellation() *orbit.Constellation {
	sats := orbit.DefaultConstellation().Satellites()
	for i := range sats {
		if i >= len(sats)/2 {
			sats[i].PRN = i + 41
		}
	}
	sats[len(sats)-1].PRN = 5000
	return orbit.NewConstellation(sats)
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
	case "uncached", "no-multipath", "no-atmosphere", "reference-cn0":
		return NewGenerator(st, cfg)
	case "wide-prns":
		return NewGenerator(st, cfg, WithConstellation(widePRNConstellation()))
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
	for _, variant := range goldenVariants {
		var buf []byte
		for _, st := range Table51Stations() {
			g := goldenGenerator(t, variant, st, goldenConfig(variant))
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

// TestAppendEpochAtReusedBuffer: synthesizing every golden epoch into one
// reused buffer gives EpochAt's observations bit for bit, in every
// variant, and a failed call hands the buffer back unchanged.
func TestAppendEpochAtReusedBuffer(t *testing.T) {
	for _, variant := range goldenVariants {
		for _, st := range Table51Stations() {
			g := goldenGenerator(t, variant, st, goldenConfig(variant))
			var buf []SatObs
			for _, ts := range goldenTimes() {
				want, err := g.EpochAt(ts)
				if err != nil {
					t.Fatal(err)
				}
				if buf, err = g.AppendEpochAt(buf[:0], ts); err != nil {
					t.Fatal(err)
				}
				got := digestEpoch(nil, Epoch{T: ts, Obs: buf})
				if string(got) != string(digestEpoch(nil, want)) {
					t.Fatalf("%s %s t=%v: AppendEpochAt into a reused buffer differs from EpochAt", variant, st.ID, ts)
				}
			}
		}
	}
	g := NewGenerator(Table51Stations()[0], DefaultConfig(1))
	dst := []SatObs{{PRN: 7}}
	got, err := g.AppendEpochAt(dst, math.NaN())
	if err == nil {
		t.Fatal("AppendEpochAt at t = NaN returned no error")
	}
	if len(got) != 1 || got[0].PRN != 7 {
		t.Errorf("failed AppendEpochAt returned %v, want dst unchanged", got)
	}
}
