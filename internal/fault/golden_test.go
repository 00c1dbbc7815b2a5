package fault

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"gpsdl/internal/scenario"
)

// applyGolden pins a digest of Apply's output observations and event log
// per fault program. The deterministic kinds were pinned before the
// noise-stream change and must never move; the noise kinds (burst, jam)
// pin the rng.Stream draws.
var applyGolden = map[string]string{
	"drop":      "e8042c9a1a9d0271986b4d7b",
	"step":      "c8ae0271bdf307d14a3014b6",
	"ramp":      "2a0d651b87de25bf23c43d90",
	"shrink":    "87f467df89a9c3df94780ca0",
	"spoof":     "9c924dd9ce2867469c4a7ac1",
	"clockjump": "ab3055f27bb7e09f584bbdc7",
	"mixed":     "b7ab8205f72945b046cf1a8e",
	"burst":     "efc20f051cc90ddd4911b37b",
	"jam":       "ea25a1ea7b0a7e09902a8058",
}

// goldenPrograms are the programs applyGolden pins, each over windows
// that open and close inside the golden epoch range.
func goldenPrograms() map[string]Program {
	inf := math.Inf(1)
	return map[string]Program{
		"drop":      {{Kind: KindDrop, PRN: 5, From: 100, Until: 900}, {Kind: KindDrop, From: 1500, Until: 1600}},
		"step":      {{Kind: KindStep, PRN: 12, From: 200, Until: 1800, Bias: 60}, {Kind: KindStep, From: 1000, Until: 1200, Bias: -3}},
		"ramp":      {{Kind: KindRamp, PRN: 7, From: 300, Until: inf, Rate: 0.25}},
		"shrink":    {{Kind: KindShrink, N: 3, From: 400, Until: 1400}, {Kind: KindShrink, N: 5, From: 1000, Until: 2000}},
		"spoof":     {{Kind: KindSpoof, N: 2, From: 100, Until: 1700, Bias: 200}},
		"clockjump": {{Kind: KindClockJump, From: 800, Until: inf, Bias: 1e-3}},
		"mixed": {
			{Kind: KindDrop, PRN: 3, From: 0, Until: 1000},
			{Kind: KindStep, PRN: 12, From: 200, Until: 1800, Bias: 60},
			{Kind: KindShrink, N: 4, From: 600, Until: 900},
			{Kind: KindRamp, PRN: 0, From: 500, Until: 1500, Rate: 0.1},
			{Kind: KindSpoof, N: 3, From: 700, Until: 1300, Bias: 120},
			{Kind: KindClockJump, From: 1100, Until: inf, Bias: -2e-4},
		},
		"burst": {{Kind: KindBurst, From: 100, Until: 1500, Sigma: 12}},
		"jam":   {{Kind: KindJam, From: 300, Until: 1900, Sigma: 8}},
	}
}

// TestApplyGolden pins Apply's output across code versions over real
// generated epochs: determinism tests only compare the injector with
// itself, so a rewrite of the clause scan could reorder events or drop a
// bias and still pass them.
func TestApplyGolden(t *testing.T) {
	var epochs []scenario.Epoch
	for _, st := range scenario.Table51Stations() {
		g := scenario.NewGenerator(st, scenario.DefaultConfig(29))
		for ts := 0.0; ts < 2000; ts += 50 {
			e, err := g.EpochAt(ts)
			if err != nil {
				t.Fatal(err)
			}
			epochs = append(epochs, e)
		}
	}
	for name, prog := range goldenPrograms() {
		in := NewInjector(prog, 31)
		var buf []byte
		f := func(v float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)) }
		var dst []scenario.SatObs
		var ev []Event
		for _, e := range epochs {
			dst, ev = in.Apply(e.T, e.Obs, dst[:0], ev[:0])
			buf = binary.LittleEndian.AppendUint64(buf, uint64(len(dst)))
			for _, o := range dst {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(o.PRN))
				f(o.Pseudorange)
				f(o.CN0)
				f(o.Elevation)
			}
			buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ev)))
			for _, x := range ev {
				f(x.T)
				buf = append(buf, byte(x.Kind))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(x.PRN))
				f(x.Delta)
			}
		}
		sum := sha256.Sum256(buf)
		if got := hex.EncodeToString(sum[:12]); got != applyGolden[name] {
			t.Errorf("%s: digest %s, want %s", name, got, applyGolden[name])
		}
	}
}
