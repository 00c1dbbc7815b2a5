package eval

import (
	"testing"

	"gpsdl/internal/clock"
	"gpsdl/internal/core"
	"gpsdl/internal/scenario"
)

func armsDataset(t *testing.T) *scenario.Dataset {
	t.Helper()
	st, err := scenario.StationByID("KYCP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenario.DefaultConfig(5)
	cfg.Step = 10
	g := scenario.NewGenerator(st, cfg)
	ds, err := g.GenerateRange(0, 3600)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestRunArmsValidation(t *testing.T) {
	ds := armsDataset(t)
	if _, _, err := RunArms(nil, nil, Options{M: 4}); err == nil {
		t.Error("RunArms(nil dataset) succeeded")
	}
	if _, _, err := RunArms(ds, nil, Options{M: 3}); err == nil {
		t.Error("RunArms(M=3) succeeded")
	}
}

func TestRunArmsBasic(t *testing.T) {
	ds := armsDataset(t)
	p := DefaultPredictor(ds.Station.Clock)
	specs := []ArmSpec{
		{Name: "NR", Solver: &core.NRSolver{}},
		{Name: "DLG", Solver: core.NewDLGSolver(p), Predictor: p},
	}
	stats, _, err := RunArms(ds, specs, Options{M: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats = %d arms", len(stats))
	}
	for _, s := range stats {
		if s.Fixes < 100 {
			t.Errorf("%s: only %d fixes", s.Name, s.Fixes)
		}
		if s.Failures > 0 {
			t.Errorf("%s: %d failures", s.Name, s.Failures)
		}
		if s.MeanError <= 0 || s.MeanError > 100 {
			t.Errorf("%s: mean error %v m", s.Name, s.MeanError)
		}
		// RMS >= mean always; both finite.
		if s.RMSError < s.MeanError {
			t.Errorf("%s: RMS %v < mean %v", s.Name, s.RMSError, s.MeanError)
		}
		if s.MaxError < s.RMSError {
			t.Errorf("%s: max %v < RMS %v", s.Name, s.MaxError, s.RMSError)
		}
		if s.MeanNanos <= 0 {
			t.Errorf("%s: mean nanos %v", s.Name, s.MeanNanos)
		}
	}
	// NR iterates; DLG is direct.
	if stats[0].MeanIterations < 2 {
		t.Errorf("NR mean iterations = %v", stats[0].MeanIterations)
	}
	if stats[1].MeanIterations != 1 {
		t.Errorf("DLG mean iterations = %v", stats[1].MeanIterations)
	}
}

// DLG's GLS estimator is invariant to the base-satellite choice (the
// Theorem 4.2 covariance absorbs it), so two DLG arms with different base
// selectors must produce identical errors. This is the observation behind
// restricting ablation A1 to DLO.
func TestRunArmsDLGBaseInvariance(t *testing.T) {
	ds := armsDataset(t)
	p1 := DefaultPredictor(ds.Station.Clock)
	p2 := DefaultPredictor(ds.Station.Clock)
	specs := []ArmSpec{
		{Name: "first", Solver: &core.DLGSolver{Predictor: p1, Base: core.BaseFirst{}}, Predictor: p1},
		{Name: "random", Solver: &core.DLGSolver{Predictor: p2, Base: core.NewBaseRandom(3)}, Predictor: p2},
	}
	stats, _, err := RunArms(ds, specs, Options{M: 7, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	diff := stats[0].MeanError - stats[1].MeanError
	if diff > 1e-3 || diff < -1e-3 {
		t.Errorf("DLG base choice changed mean error: %v vs %v", stats[0].MeanError, stats[1].MeanError)
	}
}

// The zero-bias predictor must be catastrophically wrong on a threshold
// clock (bias reaches 1 ms ≈ 300 km) — the A2 headline.
func TestRunArmsZeroPredictorCatastrophicOnThresholdClock(t *testing.T) {
	ds := armsDataset(t)
	pLin := DefaultPredictor(ds.Station.Clock)
	specs := []ArmSpec{
		{Name: "zero", Solver: core.NewDLGSolver(clock.ZeroPredictor{}), Predictor: clock.ZeroPredictor{}},
		{Name: "linear", Solver: core.NewDLGSolver(pLin), Predictor: pLin},
	}
	stats, _, err := RunArms(ds, specs, Options{M: 7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].MeanError < 100*stats[1].MeanError {
		t.Errorf("zero-predictor error %v m not catastrophically worse than linear %v m",
			stats[0].MeanError, stats[1].MeanError)
	}
}

func TestDefaultPredictorTypes(t *testing.T) {
	for _, ct := range []scenario.ClockType{scenario.ClockSteering, scenario.ClockThreshold} {
		p := DefaultPredictor(ct)
		if p == nil {
			t.Fatalf("DefaultPredictor(%v) = nil", ct)
		}
		if _, err := p.PredictBias(0); err == nil {
			t.Errorf("DefaultPredictor(%v) calibrated without fixes", ct)
		}
	}
}

func TestPlausibleFix(t *testing.T) {
	good := core.Solution{Pos: scenario.Table51Stations()[0].Pos}
	if !plausibleFix(good) {
		t.Error("station-surface fix reported implausible")
	}
	far := core.Solution{Pos: good.Pos.Scale(100)}
	if plausibleFix(far) {
		t.Error("deep-space fix reported plausible")
	}
	origin := core.Solution{}
	if plausibleFix(origin) {
		t.Error("geocenter fix reported plausible")
	}
}

// recordingPredictor wraps a predictor and records the time of every
// clock fix a harness feeds it.
type recordingPredictor struct {
	clock.Predictor
	fed []float64
}

func (r *recordingPredictor) Observe(f clock.Fix) {
	r.fed = append(r.fed, f.T)
	r.Predictor.Observe(f)
}

// TestRunArmsCalibratesOnPlausibleFixesOnly: when the first epochs' NR
// fixes are implausible, calibration must skip them and keep going until
// it has initEpochs good fixes.
func TestRunArmsCalibratesOnPlausibleFixesOnly(t *testing.T) {
	const k, m = 5, 6
	ds := armsDataset(t)
	// Scaling every pseudo-range drives NR far off the Earth's surface,
	// which the calibration feed rejects as implausible.
	for i := 0; i < k; i++ {
		for j := range ds.Epochs[i].Obs {
			ds.Epochs[i].Obs[j].Pseudorange *= 3
		}
	}
	pred := &recordingPredictor{Predictor: DefaultPredictor(ds.Station.Clock)}
	specs := []ArmSpec{{Name: "DLG", Solver: core.NewDLGSolver(pred), Predictor: pred}}
	if _, _, err := RunArms(ds, specs, Options{M: m, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	calibration := map[float64]bool{}
	for _, tt := range pred.fed {
		if tt <= ds.Epochs[k-1].T {
			t.Fatalf("implausible fix at t=%v fed the predictor", tt)
		}
		if tt <= ds.Epochs[initEpochs+k-1].T {
			calibration[tt] = true
		}
	}
	if len(calibration) != initEpochs {
		t.Errorf("calibration fed %d distinct epochs, want %d", len(calibration), initEpochs)
	}
}

// A predictor shared by several arms must be fed once per epoch, not
// once per arm: feeding it twice would change its fit.
func TestRunArmsFeedsSharedPredictorOnce(t *testing.T) {
	ds := armsDataset(t)
	shared := &recordingPredictor{Predictor: DefaultPredictor(ds.Station.Clock)}
	alone := &recordingPredictor{Predictor: DefaultPredictor(ds.Station.Clock)}
	specs := []ArmSpec{
		{Name: "DLO", Solver: core.NewDLOSolver(shared), Predictor: shared},
		{Name: "DLG", Solver: core.NewDLGSolver(shared), Predictor: shared},
		{Name: "DLG alone", Solver: core.NewDLGSolver(alone), Predictor: alone},
	}
	stats, _, err := RunArms(ds, specs, Options{M: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(shared.fed) == 0 || len(shared.fed) != len(alone.fed) {
		t.Errorf("shared predictor fed %d fixes, unshared %d; want equal", len(shared.fed), len(alone.fed))
	}
	if stats[1].MeanError != stats[2].MeanError {
		t.Errorf("shared-predictor DLG mean error %v, unshared %v", stats[1].MeanError, stats[2].MeanError)
	}
}

// recordingSolver wraps a solver and records the time of every epoch it
// is asked to solve.
type recordingSolver struct {
	core.Solver
	solved []float64
}

func (r *recordingSolver) Solve(t float64, obs []core.Observation) (core.Solution, error) {
	r.solved = append(r.solved, t)
	return r.Solver.Solve(t, obs)
}

// TestRunArmsMeasuresOnlyAfterCalibration is the regression test for a
// calibration window stretched by epochs short of m satellites: the
// measurement pass used to start at index initEpochs regardless, so it
// measured epochs the predictor had been calibrated on and fed them to
// it a second time, out of time order.
func TestRunArmsMeasuresOnlyAfterCalibration(t *testing.T) {
	const k, m = 10, 6
	ds := armsDataset(t)
	// Starve the first k epochs below m satellites: calibration skips
	// them and ends k epochs past index initEpochs.
	for i := 0; i < k; i++ {
		ds.Epochs[i].Obs = ds.Epochs[i].Obs[:m-1]
	}
	pred := &recordingPredictor{Predictor: DefaultPredictor(ds.Station.Clock)}
	solver := &recordingSolver{Solver: core.NewDLGSolver(pred)}
	specs := []ArmSpec{{Name: "DLG", Solver: solver, Predictor: pred}}
	if _, _, err := RunArms(ds, specs, Options{M: m, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if len(pred.fed) <= initEpochs || len(solver.solved) == 0 {
		t.Fatalf("predictor fed %d fixes, solver ran %d times", len(pred.fed), len(solver.solved))
	}
	for i := 1; i < len(pred.fed); i++ {
		if pred.fed[i] <= pred.fed[i-1] {
			t.Fatalf("Observe(t=%v) after Observe(t=%v): fixes not in time order", pred.fed[i], pred.fed[i-1])
		}
	}
	lastCalibration := pred.fed[initEpochs-1]
	for _, tt := range solver.solved {
		if tt <= lastCalibration {
			t.Fatalf("measured epoch t=%v is at or before the last calibration epoch t=%v", tt, lastCalibration)
		}
	}
}
