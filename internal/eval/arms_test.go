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
	if _, err := RunArms(nil, nil, ArmOptions{M: 4}); err == nil {
		t.Error("RunArms(nil dataset) succeeded")
	}
	if _, err := RunArms(ds, nil, ArmOptions{M: 3}); err == nil {
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
	stats, err := RunArms(ds, specs, ArmOptions{M: 6, InitEpochs: 60, Seed: 1})
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
	stats, err := RunArms(ds, specs, ArmOptions{M: 7, InitEpochs: 60, Seed: 2})
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
	stats, err := RunArms(ds, specs, ArmOptions{M: 7, InitEpochs: 60, Seed: 3})
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

// countingPredictor counts the clock fixes a harness feeds its predictor.
type countingPredictor struct {
	clock.Predictor
	fed int
}

func (c *countingPredictor) Observe(f clock.Fix) {
	c.fed++
	c.Predictor.Observe(f)
}

// TestRunArmsCalibratesLikeSweep: when the first epochs' NR fixes are
// implausible, RunArms must keep calibrating until it has InitEpochs
// good fixes, exactly as the Fig. 5.1/5.2 sweep does, so an ablation
// arm's predictor sees the same clock fixes as the sweep's.
func TestRunArmsCalibratesLikeSweep(t *testing.T) {
	const k, m, initEpochs = 5, 6, 60
	ds := armsDataset(t)
	// Scaling every pseudo-range drives NR far off the Earth's surface,
	// which the calibration feed rejects as implausible.
	for i := 0; i < k; i++ {
		for j := range ds.Epochs[i].Obs {
			ds.Epochs[i].Obs[j].Pseudorange *= 3
		}
	}

	sweepPred := &countingPredictor{Predictor: DefaultPredictor(ds.Station.Clock)}
	sweep := &Sweep{
		Dataset: ds, SatCounts: []int{m}, InitEpochs: initEpochs,
		Selection: SelectStratified, Seed: 1, TimingReps: 1,
		NewPredictor: func() clock.Predictor { return sweepPred },
	}
	if _, err := sweep.Run(); err != nil {
		t.Fatal(err)
	}

	armPred := &countingPredictor{Predictor: DefaultPredictor(ds.Station.Clock)}
	specs := []ArmSpec{{Name: "DLG", Solver: core.NewDLGSolver(armPred), Predictor: armPred}}
	if _, err := RunArms(ds, specs, ArmOptions{
		M: m, InitEpochs: initEpochs, Selection: SelectStratified, Seed: 1, TimingReps: 1,
	}); err != nil {
		t.Fatal(err)
	}

	if sweepPred.fed == 0 || armPred.fed != sweepPred.fed {
		t.Errorf("RunArms fed %d clock fixes, Sweep fed %d; want equal", armPred.fed, sweepPred.fed)
	}
}
