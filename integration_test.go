// Cross-module integration tests: full pipelines that no single package
// test exercises end to end.
package gpsdl_test

import (
	"bytes"
	"testing"

	"gpsdl/internal/clock"
	"gpsdl/internal/core"
	"gpsdl/internal/dgps"
	"gpsdl/internal/eval"
	"gpsdl/internal/fault"
	"gpsdl/internal/geo"
	"gpsdl/internal/orbit"
	"gpsdl/internal/rinex"
	"gpsdl/internal/scenario"
)

// Pipeline 1: generate → RINEX → reload → position. The solution from the
// reconstructed dataset must match the original to well under the
// measurement noise.
func TestPipelineRINEXRoundTripPositioning(t *testing.T) {
	st, err := scenario.StationByID("YYR1")
	if err != nil {
		t.Fatal(err)
	}
	g := scenario.NewGenerator(st, scenario.DefaultConfig(99))
	ds, err := g.GenerateRange(0, 30)
	if err != nil {
		t.Fatal(err)
	}
	var obsBuf, navBuf bytes.Buffer
	if err := rinex.WriteObs(&obsBuf, ds); err != nil {
		t.Fatal(err)
	}
	if err := rinex.WriteNav(&navBuf, orbit.DefaultConstellation().Satellites()); err != nil {
		t.Fatal(err)
	}
	obsFile, err := rinex.ReadObs(&obsBuf)
	if err != nil {
		t.Fatal(err)
	}
	sats, err := rinex.ReadNav(&navBuf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := rinex.ToDataset(obsFile, sats)
	if err != nil {
		t.Fatal(err)
	}
	var nr core.NRSolver
	for i := range ds.Epochs {
		orig, err1 := nr.Solve(ds.Epochs[i].T, adaptEpoch(ds.Epochs[i]))
		rec, err2 := nr.Solve(back.Epochs[i].T, adaptEpoch(back.Epochs[i]))
		if err1 != nil || err2 != nil {
			t.Fatalf("epoch %d solves: %v, %v", i, err1, err2)
		}
		if d := orig.Pos.DistanceTo(rec.Pos); d > 0.05 {
			t.Errorf("epoch %d: reconstructed fix differs by %v m", i, d)
		}
	}
}

// Pipeline 2: RAIM on top of injected faults — the integrity stack finds
// the satellite a fault-program step clause corrupted.
func TestPipelineFaultInjectionRAIM(t *testing.T) {
	st, err := scenario.StationByID("SRZN")
	if err != nil {
		t.Fatal(err)
	}
	// Pick a PRN that is visible at t = 1000.
	probe := scenario.NewGenerator(st, scenario.DefaultConfig(3))
	e, err := probe.EpochAt(1000)
	if err != nil {
		t.Fatal(err)
	}
	victim := e.Obs[2].PRN
	inj := fault.NewInjector(fault.Program{{Kind: fault.KindStep, PRN: victim, From: 900, Until: 1100, Bias: 400}}, 0)
	r := &core.RAIM{Solver: &core.NRSolver{}}

	inFault, _ := inj.ApplyEpoch(e)
	res, err := r.Check(1000, adaptEpoch(inFault))
	if err != nil {
		t.Fatalf("RAIM in fault window: %v", err)
	}
	if res.Excluded < 0 || inFault.Obs[res.Excluded].PRN != victim {
		t.Errorf("RAIM excluded index %d, want PRN %d", res.Excluded, victim)
	}
	if d := res.Solution.Pos.DistanceTo(st.Pos); d > 25 {
		t.Errorf("post-exclusion error %v m", d)
	}

	clean, err := probe.EpochAt(1200)
	if err != nil {
		t.Fatal(err)
	}
	afterFault, _ := inj.ApplyEpoch(clean)
	res, err = r.Check(1200, adaptEpoch(afterFault))
	if err != nil {
		t.Fatalf("RAIM after fault window: %v", err)
	}
	if res.Excluded != -1 {
		t.Errorf("RAIM excluded %d on a clean epoch", res.Excluded)
	}
}

// Pipeline 3: DGPS + DLG stack — differential corrections (paper §3.3)
// compose with the paper's solver: DLG on corrected rover epochs beats
// DLG on the same epochs uncorrected. Each DLG's clock predictor is fed
// by NR on its own epoch stream.
func TestPipelineDGPSDLG(t *testing.T) {
	st, err := scenario.StationByID("YYR1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenario.DefaultConfig(42)
	cfg.IonoRemainder = 1.0 // uncorrected receivers: DGPS's use case
	refGen := scenario.NewGenerator(st, cfg)
	rover := st
	rover.ID = "ROVR"
	rover.Pos = geo.FromENU(st.Pos, geo.ENU{E: 8000, N: 5000})
	roverGen := scenario.NewGenerator(rover, cfg)

	ref := dgps.NewReference(st.Pos)
	plainPred := eval.DefaultPredictor(st.Clock)
	corrPred := eval.DefaultPredictor(st.Clock)
	var nr core.NRSolver
	plainDLG := core.NewDLGSolver(plainPred)
	corrDLG := core.NewDLGSolver(corrPred)

	var sumPlain, sumCorr float64
	var n int
	for i := 0; i < 900; i++ {
		tt := float64(i)
		refEpoch, err := refGen.EpochAt(tt)
		if err != nil {
			t.Fatal(err)
		}
		roverEpoch, err := roverGen.EpochAt(tt)
		if err != nil {
			t.Fatal(err)
		}
		corr, err := ref.ComputeCorrections(refEpoch)
		if err != nil {
			continue
		}
		plainObs := adaptEpoch(roverEpoch)
		corrObs := adaptEpoch(dgps.Apply(roverEpoch, corr))
		if sol, err := nr.Solve(tt, plainObs); err == nil {
			plainPred.Observe(clock.Fix{T: tt, Bias: sol.ClockBias / geo.SpeedOfLight})
		}
		if sol, err := nr.Solve(tt, corrObs); err == nil {
			corrPred.Observe(clock.Fix{T: tt, Bias: sol.ClockBias / geo.SpeedOfLight})
		}
		if i < 400 {
			continue // correction-smoother + predictor warm-up
		}
		plainSol, err1 := plainDLG.Solve(tt, plainObs)
		corrSol, err2 := corrDLG.Solve(tt, corrObs)
		if err1 != nil || err2 != nil {
			continue
		}
		sumPlain += plainSol.Pos.DistanceTo(rover.Pos)
		sumCorr += corrSol.Pos.DistanceTo(rover.Pos)
		n++
	}
	if n < 300 {
		t.Fatalf("only %d epochs", n)
	}
	plain, corrected := sumPlain/float64(n), sumCorr/float64(n)
	t.Logf("rover DLG error: uncorrected %.3f m, DGPS-corrected %.3f m over %d epochs", plain, corrected, n)
	if corrected >= plain {
		t.Errorf("DGPS-corrected DLG %.3f m does not beat uncorrected DLG %.3f m", corrected, plain)
	}
}

func adaptEpoch(e scenario.Epoch) []core.Observation {
	obs := make([]core.Observation, 0, len(e.Obs))
	for _, o := range e.Obs {
		obs = append(obs, core.Observation{Pos: o.Pos, Pseudorange: o.Pseudorange, Elevation: o.Elevation})
	}
	return obs
}
