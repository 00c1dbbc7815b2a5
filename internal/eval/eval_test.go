package eval

import (
	"math"
	"strings"
	"testing"

	"gpsdl/internal/core"
	"gpsdl/internal/geo"
	"gpsdl/internal/scenario"
)

func TestAbsoluteError(t *testing.T) {
	sol := core.Solution{Pos: geo.ECEF{X: 3, Y: 4, Z: 0}}
	if got := AbsoluteError(sol, geo.ECEF{}); got != 5 {
		t.Errorf("AbsoluteError = %v, want 5", got)
	}
}

func TestAccuracyRate(t *testing.T) {
	tests := []struct {
		name    string
		dO, dNR float64
		want    float64
	}{
		{"equal", 5, 5, 100},
		{"worse", 6, 5, 120},
		{"better", 4, 5, 80},
		{"both zero", 0, 0, 100},
		{"nr exact", 1, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := AccuracyRate(tt.dO, tt.dNR); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("AccuracyRate(%v, %v) = %v, want %v", tt.dO, tt.dNR, got, tt.want)
			}
		})
	}
}

func TestTimeRate(t *testing.T) {
	if got := TimeRate(20, 100); got != 20 {
		t.Errorf("TimeRate = %v, want 20", got)
	}
	if got := TimeRate(5, 0); got != 0 {
		t.Errorf("TimeRate with zero denominator = %v", got)
	}
}

func TestSampleIndices(t *testing.T) {
	if got := sampleIndices(10, 2, 0); len(got) != 8 || got[0] != 2 || got[7] != 9 {
		t.Errorf("all-epoch sample = %v", got)
	}
	got := sampleIndices(100, 10, 9)
	if len(got) != 9 {
		t.Fatalf("len = %d, want 9", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("indices not increasing: %v", got)
		}
	}
	if got[0] < 10 || got[len(got)-1] >= 100 {
		t.Errorf("indices out of range: %v", got)
	}
	if got := sampleIndices(5, 10, 3); got != nil {
		t.Errorf("start beyond n gave %v", got)
	}
}

func TestSelectObsModes(t *testing.T) {
	obs := make([]scenario.SatObs, 10)
	for i := range obs {
		obs[i] = scenario.SatObs{PRN: i + 1, Elevation: float64(10 - i)}
	}
	if got := selectObs(obs, 11, SelectTop, nil, geo.ECEF{}); got != nil {
		t.Error("selection with too few satellites should return nil")
	}
	top := selectObs(obs, 4, SelectTop, nil, geo.ECEF{})
	if len(top) != 4 || top[0].Elevation != 10 || top[3].Elevation != 7 {
		t.Errorf("SelectTop = %+v", top)
	}
	strat := selectObs(obs, 4, SelectStratified, nil, geo.ECEF{})
	if len(strat) != 4 {
		t.Fatalf("SelectStratified len = %d", len(strat))
	}
	// Stratified picks indices 0, 3, 6, 9 for m=4, n=10.
	wantElev := []float64{10, 7, 4, 1}
	for i, o := range strat {
		if o.Elevation != wantElev[i] {
			t.Errorf("stratified[%d].Elevation = %v, want %v", i, o.Elevation, wantElev[i])
		}
	}
}

// End-to-end smoke sweep over a short dataset; verifies the paper's
// headline shapes hold on this substrate:
//   - both direct methods are much faster than NR (θ < 100%),
//   - DLO is the fastest (θ_DLO < θ_DLG),
//   - accuracy of both is within a moderate factor of NR.
func TestSweepReproducesPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep smoke test is seconds-long")
	}
	st, err := scenario.StationByID("YYR1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenario.DefaultConfig(42)
	cfg.Step = 5
	g := scenario.NewGenerator(st, cfg)
	ds, err := g.GenerateRange(0, 3600) // one hour at 5 s steps
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{4, 7, 10} {
		row, err := PaperRow(ds, Options{M: m, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if row.Epochs < 100 {
			t.Errorf("m=%d: only %d epochs", row.M, row.Epochs)
		}
		if row.NR.Failures > 0 || row.DLO.Failures > 0 || row.DLG.Failures > 0 {
			t.Errorf("m=%d: failures %d/%d/%d", row.M, row.NR.Failures, row.DLO.Failures, row.DLG.Failures)
		}
		// Timing rates are asserted loosely: wall-clock ratios measured
		// while the rest of the suite runs in parallel wobble by 2x or
		// more, and race-instrumented builds distort them entirely. The
		// only load-robust claim is that each direct method clearly beats
		// NR; the precise θ shapes (including DLO < DLG) are checked by
		// the root benchmarks and cmd/gpsbench. θ here is taken from
		// median per-epoch times: one descheduled epoch among hundreds
		// of microsecond solves can push a mean-based θ past 100%.
		tDLO := TimeRate(row.DLO.MedianNanos, row.NR.MedianNanos)
		tDLG := TimeRate(row.DLG.MedianNanos, row.NR.MedianNanos)
		if !raceEnabled {
			if tDLO <= 0 || tDLO >= 80 {
				t.Errorf("m=%d: θ_DLO = %.1f%%, want well under 100%%", row.M, tDLO)
			}
			if tDLG <= 0 || tDLG >= 90 {
				t.Errorf("m=%d: θ_DLG = %.1f%%, want well under 100%%", row.M, tDLG)
			}
		}
		hDLO, hDLG := row.AccuracyRateDLO(), row.AccuracyRateDLG()
		if hDLO < 80 || hDLO > 250 {
			t.Errorf("m=%d: η_DLO = %.1f%%, outside plausible band", row.M, hDLO)
		}
		if hDLG < 80 || hDLG > 200 {
			t.Errorf("m=%d: η_DLG = %.1f%%, outside plausible band", row.M, hDLG)
		}
		t.Logf("m=%d: d_NR=%.2f d_DLO=%.2f d_DLG=%.2f | η_DLO=%.0f%% η_DLG=%.0f%% | θ_DLO=%.0f%% θ_DLG=%.0f%%",
			row.M, row.NR.MeanError, row.DLO.MeanError, row.DLG.MeanError, hDLO, hDLG, tDLO, tDLG)
	}
}

func TestFormatters(t *testing.T) {
	res := &Result{
		Station: scenario.Table51Stations()[0],
		Rows: []Row{
			{
				M: 4, Census: Census{Epochs: 100},
				NR:  ArmStats{MeanError: 5, MeanNanos: 1000, Fixes: 100},
				DLO: ArmStats{MeanError: 6, MeanNanos: 150, Fixes: 100},
				DLG: ArmStats{MeanError: 5.5, MeanNanos: 400, Fixes: 100},
			},
			{M: 10}, // calibration consumed every epoch
		},
	}
	var b51, b52, btab strings.Builder
	if err := FormatFig51(&b51, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b51.String(), "15.0") { // θ_DLO = 150/1000
		t.Errorf("Fig 5.1 output missing time rate:\n%s", b51.String())
	}
	if err := FormatFig52(&b52, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b52.String(), "120.0") { // η_DLO = 6/5
		t.Errorf("Fig 5.2 output missing accuracy rate:\n%s", b52.String())
	}
	for _, out := range []string{b51.String(), b52.String()} {
		if !strings.Contains(out, "10    (no epochs left after calibration)") {
			t.Errorf("empty row not explained:\n%s", out)
		}
	}
	if err := FormatTable51(&btab, scenario.Table51Stations()); err != nil {
		t.Fatal(err)
	}
	out := btab.String()
	for _, id := range []string{"SRZN", "YYR1", "FAI1", "KYCP", "Steering", "Threshold"} {
		if !strings.Contains(out, id) {
			t.Errorf("Table 5.1 output missing %q", id)
		}
	}
}

func TestSelectBestDOPBeatsStratifiedGeometry(t *testing.T) {
	st, err := scenario.StationByID("YYR1")
	if err != nil {
		t.Fatal(err)
	}
	g := scenario.NewGenerator(st, scenario.DefaultConfig(23))
	gdopOf := func(sel []core.Observation) float64 {
		dop, err := core.DOPFromObs(st.Pos, sel)
		if err != nil {
			return math.Inf(1)
		}
		return dop.GDOP
	}
	var sumStrat, sumBest float64
	var n int
	for h := 0; h < 48; h++ {
		tt := float64(h) * 1800
		e, err := g.EpochAt(tt)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.Obs) < 5 {
			continue
		}
		strat := selectObs(e.Obs, 5, SelectStratified, nil, st.Pos)
		best := selectObs(e.Obs, 5, SelectBestDOP, nil, st.Pos)
		if strat == nil || best == nil {
			continue
		}
		sumStrat += gdopOf(strat)
		sumBest += gdopOf(best)
		n++
	}
	if n < 30 {
		t.Fatalf("only %d epochs", n)
	}
	t.Logf("mean GDOP over %d epochs: stratified %.2f, best-DOP %.2f", n, sumStrat/float64(n), sumBest/float64(n))
	if sumBest >= sumStrat {
		t.Errorf("greedy DOP selection (%.2f) no better than stratified (%.2f)",
			sumBest/float64(n), sumStrat/float64(n))
	}
}

func TestSelectBestDOPSubsetProperties(t *testing.T) {
	st, _ := scenario.StationByID("KYCP")
	g := scenario.NewGenerator(st, scenario.DefaultConfig(23))
	e, err := g.EpochAt(5000)
	if err != nil {
		t.Fatal(err)
	}
	for m := 4; m <= len(e.Obs); m++ {
		sel := selectObs(e.Obs, m, SelectBestDOP, nil, st.Pos)
		if len(sel) != m {
			t.Fatalf("m=%d: selected %d", m, len(sel))
		}
		// No duplicates.
		seen := map[float64]bool{}
		for _, o := range sel {
			if seen[o.Pseudorange] {
				t.Errorf("m=%d: duplicate satellite selected", m)
			}
			seen[o.Pseudorange] = true
		}
	}
}
