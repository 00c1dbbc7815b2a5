package eval

import (
	"math"
	"testing"

	"gpsdl/internal/scenario"
)

// TestSweepCountsShortConstellationEpochs is the regression test for the
// availability denominator: epochs with fewer than m satellites in view
// used to be dropped without a trace, so a sweep over a sparse sky
// reported the same availability as one over a full sky. Every sampled
// measurement epoch must now land in exactly one of Epochs, SkippedDOP,
// or SkippedSats, and Availability must use their sum as denominator.
func TestSweepCountsShortConstellationEpochs(t *testing.T) {
	st, err := scenario.StationByID("YYR1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenario.DefaultConfig(7)
	cfg.Step = 1
	g := scenario.NewGenerator(st, cfg)
	ds, err := g.GenerateRange(0, 360)
	if err != nil {
		t.Fatal(err)
	}
	const m = 5
	// Starve every fifth measurement epoch below m satellites. The
	// calibration window (indices < initEpochs) is left intact so the
	// predictor still calibrates.
	starved := 0
	for i := initEpochs; i < len(ds.Epochs); i++ {
		if i%5 == 0 {
			ds.Epochs[i].Obs = ds.Epochs[i].Obs[:m-1]
			starved++
		}
	}
	row, err := PaperRow(ds, Options{M: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if row.SkippedSats != starved {
		t.Errorf("SkippedSats = %d, want %d (one per starved epoch)", row.SkippedSats, starved)
	}
	total := len(ds.Epochs) - initEpochs
	if got := row.Candidates(); got != total {
		t.Errorf("Candidates() = %d, want %d: sampled epochs leaked from the census", got, total)
	}
	if row.Epochs+row.SkippedDOP != total-starved {
		t.Errorf("Epochs(%d) + SkippedDOP(%d) != %d", row.Epochs, row.SkippedDOP, total-starved)
	}
	avail := row.Availability(row.NR)
	want := 100 * float64(row.NR.Fixes) / float64(total)
	if math.Abs(avail-want) > 1e-12 {
		t.Errorf("Availability = %.3f%%, want %.3f%%", avail, want)
	}
	// The load-bearing claim: starving 1 in 5 epochs must cap availability
	// well below 100%, where the pre-fix accounting would still have
	// reported ~100% (fixes over solved-only epochs).
	if avail >= 85 {
		t.Errorf("Availability = %.1f%% despite %d/%d starved epochs", avail, starved, total)
	}
	if avail <= 0 {
		t.Error("Availability = 0: sweep produced no fixes at all")
	}
	old := 100 * float64(row.NR.Fixes) / float64(row.Epochs)
	if old <= avail {
		t.Errorf("solved-only rate %.1f%% should exceed true availability %.1f%%", old, avail)
	}
}
