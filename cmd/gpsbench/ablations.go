package main

import (
	"fmt"
	"os"

	"gpsdl/internal/clock"
	"gpsdl/internal/core"
	"gpsdl/internal/dgps"
	"gpsdl/internal/eval"
	"gpsdl/internal/geo"
	"gpsdl/internal/scenario"
	"gpsdl/internal/smoothing"
)

// ablationM is the satellite count the single-m ablations run at; 8 is the
// middle of the paper's 8-12 per-epoch range.
const ablationM = 8

// runAblationBase is A1 (Section 6 extension 1): does choosing a "good"
// base satellite improve accuracy over the paper's random choice? The
// ablation runs on DLO, where the OLS weighting makes the base choice
// matter; DLG with the Theorem 4.2 covariance is base-invariant (the GLS
// estimator algebraically cancels the base choice), which the final DLG
// row demonstrates.
func runAblationBase(cfg benchConfig) error {
	fmt.Println("Ablation A1 — base-satellite selection for DLO (Section 6 extension 1)")
	fmt.Printf("%-8s %-22s %-12s %-12s %-12s\n", "station", "base selector", "mean err(m)", "rms err(m)", "vs first(%)")
	for _, st := range scenario.Table51Stations() {
		ds, err := generate(cfg, st)
		if err != nil {
			return err
		}
		specs := []eval.ArmSpec{
			newDLOArm(ds, "DLO first (default)", core.BaseFirst{}),
			newDLOArm(ds, "DLO random (paper)", core.NewBaseRandom(cfg.seed)),
			newDLOArm(ds, "DLO highest elev", core.BaseHighestElevation{}),
			newDLOArm(ds, "DLO nearest", core.BaseNearest{}),
			newDLGArm(ds, "DLG random (invariant)", core.NewBaseRandom(cfg.seed+1)),
		}
		// Random per-epoch satellite selection: under the default
		// elevation-stratified selection, observation 0 is already the
		// highest-elevation satellite and the strategies coincide.
		stats, err := eval.RunArms(ds, specs, eval.ArmOptions{
			M: ablationM, MaxEpochs: cfg.epochs, Seed: cfg.seed,
			Selection: eval.SelectRandom,
		})
		if err != nil {
			return err
		}
		ref := stats[0].MeanError
		for _, s := range stats {
			fmt.Printf("%-8s %-22s %-12.3f %-12.3f %-12.1f\n",
				st.ID, s.Name, s.MeanError, s.RMSError, 100*s.MeanError/ref)
		}
	}
	fmt.Println()
	return nil
}

// newDLOArm builds a DLO arm with its own predictor for the dataset's
// clock type.
func newDLOArm(ds *scenario.Dataset, name string, base core.BaseSelector) eval.ArmSpec {
	p := eval.DefaultPredictor(ds.Station.Clock)
	return eval.ArmSpec{
		Name:      name,
		Solver:    &core.DLOSolver{Predictor: p, Base: base},
		Predictor: p,
	}
}

// newDLGArm builds a DLG arm with its own predictor for the dataset's
// clock type.
func newDLGArm(ds *scenario.Dataset, name string, base core.BaseSelector) eval.ArmSpec {
	p := eval.DefaultPredictor(ds.Station.Clock)
	return eval.ArmSpec{
		Name:      name,
		Solver:    &core.DLGSolver{Predictor: p, Base: base},
		Predictor: p,
	}
}

// runAblationClock is A2 (Section 6 extension 2): how much does clock
// prediction quality cost DLG, from no model to a perfect oracle?
func runAblationClock(cfg benchConfig) error {
	fmt.Println("Ablation A2 — clock-predictor quality for DLG (Section 6 extension 2)")
	fmt.Printf("%-8s %-22s %-12s %-12s\n", "station", "predictor", "mean err(m)", "rms err(m)")
	for _, st := range scenario.Table51Stations() {
		gcfg := scenario.DefaultConfig(cfg.seed)
		gcfg.Step = cfg.step
		g := scenario.NewGenerator(st, gcfg)
		ds, err := g.GenerateRangeParallel(0, cfg.duration, 0)
		if err != nil {
			return err
		}
		kalman := clock.NewKalmanPredictor(1e-4)
		specs := []eval.ArmSpec{
			clockArm("none (zero bias)", clock.ZeroPredictor{}),
			clockArm("linear (paper)", eval.DefaultPredictor(st.Clock)),
			clockArm("kalman [12][33]", kalman),
			clockArm("oracle (truth)", &clock.OraclePredictor{Model: g.ClockModel()}),
		}
		stats, err := eval.RunArms(ds, specs, eval.ArmOptions{M: ablationM, MaxEpochs: cfg.epochs, Seed: cfg.seed})
		if err != nil {
			return err
		}
		for _, s := range stats {
			fmt.Printf("%-8s %-22s %-12.3f %-12.3f\n", st.ID, s.Name, s.MeanError, s.RMSError)
		}
	}
	fmt.Println()
	return nil
}

func clockArm(name string, p clock.Predictor) eval.ArmSpec {
	return eval.ArmSpec{
		Name:      name,
		Solver:    &core.DLGSolver{Predictor: p},
		Predictor: p,
	}
}

// runAblationGLS is A3 (Section 6 extension 3): the two implementations
// of the DLG covariance solve — dense Cholesky (paper cost profile) and
// the Sherman-Morrison O(m) fast path — compared on time at equal
// (verified) solutions. The explicit-inverse oracle's row comes from
// internal/core's BenchmarkAblation_GLSFastPath.
func runAblationGLS(cfg benchConfig) error {
	fmt.Println("Ablation A3 — GLS covariance implementation (Section 6 extension 3)")
	st := scenario.Table51Stations()[1] // YYR1
	ds, err := generate(cfg, st)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-18s %-18s\n", "sats", "paper dense (ns)", "sherman-morrison")
	for _, m := range []int{4, 6, 8, 10} {
		specs := make([]eval.ArmSpec, 0, 2)
		for _, v := range []core.DLGVariant{core.VariantPaper, core.VariantFast} {
			p := eval.DefaultPredictor(st.Clock)
			specs = append(specs, eval.ArmSpec{
				Name:      v.String(),
				Solver:    &core.DLGSolver{Predictor: p, Variant: v},
				Predictor: p,
			})
		}
		stats, err := eval.RunArms(ds, specs, eval.ArmOptions{M: m, MaxEpochs: cfg.epochs, Seed: cfg.seed})
		if err != nil {
			return err
		}
		if stats[0].Fixes == 0 {
			continue
		}
		// The two variants must agree on accuracy; report if they drift.
		if d := stats[0].MeanError - stats[1].MeanError; d > 1e-3 || d < -1e-3 {
			fmt.Fprintf(os.Stderr, "warning: variant accuracy drift at m=%d: %.6f m\n", m, d)
		}
		fmt.Printf("%-6d %-18.0f %-18.0f\n", m, stats[0].MeanNanos, stats[1].MeanNanos)
	}
	fmt.Println()
	return nil
}

// runAblationDirect is A4: the classic Bancroft direct solver as an extra
// baseline, plus NR's sensitivity to bad initial guesses (the
// non-convergence risk direct methods avoid; Section 1/2).
func runAblationDirect(cfg benchConfig) error {
	fmt.Println("Ablation A4 — direct-method baselines and NR robustness")
	st := scenario.Table51Stations()[0] // SRZN
	ds, err := generate(cfg, st)
	if err != nil {
		return err
	}
	dloP := eval.DefaultPredictor(st.Clock)
	dlgP := eval.DefaultPredictor(st.Clock)
	triP := eval.DefaultPredictor(st.Clock)
	specs := []eval.ArmSpec{
		{Name: "NR", Solver: &core.NRSolver{}},
		{Name: "NR elev-weighted", Solver: &core.NRSolver{Weight: core.ElevationWeight}},
		{Name: "Bancroft [2]", Solver: core.BancroftSolver{}},
		{Name: "DLO", Solver: &core.DLOSolver{Predictor: dloP}, Predictor: dloP},
		{Name: "DLG", Solver: &core.DLGSolver{Predictor: dlgP}, Predictor: dlgP},
		// TriSat uses only the first 3 of the selected satellites plus
		// the clock prediction (paper §2 ref [30]).
		{Name: "TriSat [30]", Solver: &core.TriSatSolver{Predictor: triP}, Predictor: triP},
	}
	stats, err := eval.RunArms(ds, specs, eval.ArmOptions{
		M: ablationM, MaxEpochs: cfg.epochs, Seed: cfg.seed, CollectErrors: true,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-18s %-12s %-12s %-12s %-12s %-10s %s\n",
		"algorithm", "mean err(m)", "median(m)", "p95(m)", "time (ns)", "mean iters", "eta vs NR (95% CI)")
	nrErrors := stats[0].Errors
	for i, s := range stats {
		ci := "-"
		if i > 0 {
			if lo, hi, err := eval.BootstrapRatioCI(s.Errors, nrErrors, 2000, 0.95, cfg.seed); err == nil {
				ci = fmt.Sprintf("[%.1f%%, %.1f%%]", lo, hi)
			}
		}
		fmt.Printf("%-18s %-12.3f %-12.3f %-12.3f %-12.0f %-10.2f %s\n",
			s.Name, s.MeanError, s.MedianError, s.P95Error, s.MeanNanos, s.MeanIterations, ci)
	}

	// NR initial-guess sensitivity: cold start (paper's 0,0,0,0), warm
	// start from truth, and adversarial starts far from Earth.
	fmt.Println("\nNR initial-guess sensitivity (iteration budget 20):")
	fmt.Printf("%-34s %-10s %-12s\n", "initial guess", "converged", "mean iters")
	guesses := []struct {
		name string
		sol  *core.Solution
	}{
		{"(0,0,0,0) — paper default", nil},
		{"truth (warm start)", &core.Solution{Pos: st.Pos}},
		{"1e9 m away", &core.Solution{Pos: st.Pos.Add(farOffset(1e9))}},
		{"1e12 m away", &core.Solution{Pos: st.Pos.Add(farOffset(1e12))}},
	}
	for _, g := range guesses {
		solver := &core.NRSolver{InitialGuess: g.sol}
		var converged, total, iters int
		for i := 60; i < ds.Len() && total < 200; i += 7 {
			obs := firstM(ds.Epochs[i], ablationM)
			if obs == nil {
				continue
			}
			total++
			sol, err := solver.Solve(ds.Epochs[i].T, obs)
			if err == nil {
				converged++
				iters += sol.Iterations
			}
		}
		meanIters := 0.0
		if converged > 0 {
			meanIters = float64(iters) / float64(converged)
		}
		fmt.Printf("%-34s %3d/%-6d %-12.2f\n", g.name, converged, total, meanIters)
	}
	fmt.Println()
	return nil
}

func farOffset(d float64) geo.ECEF {
	return geo.ECEF{X: d, Y: d / 2, Z: -d / 3}
}

// firstM adapts the first m observations of an epoch.
func firstM(e scenario.Epoch, m int) []core.Observation {
	if len(e.Obs) < m {
		return nil
	}
	out := make([]core.Observation, 0, m)
	for _, o := range e.Obs[:m] {
		out = append(out, core.Observation{Pos: o.Pos, Pseudorange: o.Pseudorange, Elevation: o.Elevation})
	}
	return out
}

// runAblationDGPS is A5 (paper §3.3): how much do differential
// corrections from a reference station help a rover that applies no
// broadcast atmospheric model? The reference sits at the YYR1 coordinates
// and the rover ~19 km away.
func runAblationDGPS(cfg benchConfig) error {
	fmt.Println("Ablation A5 — differential GPS corrections (paper §3.3)")
	st := scenario.Table51Stations()[1] // YYR1 as the reference site
	gcfg := scenario.DefaultConfig(cfg.seed)
	gcfg.Step = cfg.step
	// Classic DGPS use case: rover without broadcast atmospheric
	// corrections, so the shared error component dominates.
	gcfg.IonoRemainder = 1.0
	gcfg.TropoRemainder = 0.5
	refGen := scenario.NewGenerator(st, gcfg)

	rover := st
	rover.ID = "ROVR"
	rover.Pos = geo.FromENU(st.Pos, geo.ENU{E: 15000, N: 12000, U: 20})
	roverGen := scenario.NewGenerator(rover, gcfg)

	ref := dgps.NewReference(st.Pos)
	var plainNR, corrNR core.NRSolver
	var sumPlain, sumCorr float64
	var n int
	end := cfg.duration
	if end > 14400 {
		end = 14400 // a few hours suffice for stable means
	}
	warmup := 900.0 // three smoothing time constants
	if warmup > end/3 {
		warmup = end / 3
	}
	for t := 0.0; t < end; t += cfg.step {
		refEpoch, err := refGen.EpochAt(t)
		if err != nil {
			return err
		}
		roverEpoch, err := roverGen.EpochAt(t)
		if err != nil {
			return err
		}
		corrections, err := ref.ComputeCorrections(refEpoch)
		if err != nil {
			continue
		}
		if t < warmup {
			continue // correction-smoother warm-up
		}
		applied := dgps.Apply(roverEpoch, corrections)
		if len(applied.Obs) < 4 {
			continue
		}
		pSol, err1 := plainNR.Solve(t, firstM(roverEpoch, len(roverEpoch.Obs)))
		cSol, err2 := corrNR.Solve(t, firstM(applied, len(applied.Obs)))
		if err1 != nil || err2 != nil {
			continue
		}
		sumPlain += pSol.Pos.DistanceTo(rover.Pos)
		sumCorr += cSol.Pos.DistanceTo(rover.Pos)
		n++
	}
	if n == 0 {
		return fmt.Errorf("dgps ablation produced no comparable epochs")
	}
	fmt.Printf("rover 19 km from reference, %d epochs (uncorrected-receiver error model):\n", n)
	fmt.Printf("  %-24s %8.3f m\n", "NR without corrections", sumPlain/float64(n))
	fmt.Printf("  %-24s %8.3f m\n", "NR with DGPS", sumCorr/float64(n))
	fmt.Printf("  improvement              %7.1f%%\n", 100*(1-sumCorr/sumPlain))
	fmt.Println()
	return nil
}

// runAblationSmoothing is A6: carrier-smoothed (Hatch-filtered)
// pseudo-ranges under the paper's algorithms. Smoothing is a
// measurement-layer upgrade, so every solver benefits while the paper's
// relative ordering (η, θ) is preserved.
func runAblationSmoothing(cfg benchConfig) error {
	fmt.Println("Ablation A6 — carrier smoothing (Hatch filter) under NR/DLO/DLG")
	st := scenario.Table51Stations()[0] // SRZN
	gcfg := scenario.DefaultConfig(cfg.seed)
	gcfg.Step = cfg.step
	g := scenario.NewGenerator(st, gcfg)

	hatch := smoothing.NewHatch(100)
	pRawDLO := eval.DefaultPredictor(st.Clock)
	pRawDLG := eval.DefaultPredictor(st.Clock)
	pSmDLO := eval.DefaultPredictor(st.Clock)
	pSmDLG := eval.DefaultPredictor(st.Clock)
	var nrRaw, nrSm core.NRSolver
	dloRaw := &core.DLOSolver{Predictor: pRawDLO}
	dlgRaw := &core.DLGSolver{Predictor: pRawDLG}
	dloSm := &core.DLOSolver{Predictor: pSmDLO}
	dlgSm := &core.DLGSolver{Predictor: pSmDLG}

	type acc struct {
		sum float64
		n   int
	}
	var stats [6]acc // nrRaw, dloRaw, dlgRaw, nrSm, dloSm, dlgSm
	record := func(i int, sol core.Solution, err error) {
		if err != nil {
			return
		}
		stats[i].sum += sol.Pos.DistanceTo(st.Pos)
		stats[i].n++
	}
	end := cfg.duration
	if end > 14400 {
		end = 14400
	}
	warmup := 300.0
	if warmup > end/3 {
		warmup = end / 3
	}
	for t := 0.0; t < end; t += cfg.step {
		epoch, err := g.EpochAt(t)
		if err != nil {
			return err
		}
		smoothed := hatch.Smooth(epoch)
		rawObs := firstM(epoch, ablationM)
		smObs := firstM(smoothed, ablationM)
		if rawObs == nil || smObs == nil {
			continue
		}
		// NR drives both predictor chains (fed from its own stream).
		nrRawSol, err1 := nrRaw.Solve(t, rawObs)
		if err1 == nil {
			fix := clock.Fix{T: t, Bias: nrRawSol.ClockBias / geo.SpeedOfLight}
			pRawDLO.Observe(fix)
			pRawDLG.Observe(fix)
		}
		nrSmSol, err2 := nrSm.Solve(t, smObs)
		if err2 == nil {
			fix := clock.Fix{T: t, Bias: nrSmSol.ClockBias / geo.SpeedOfLight}
			pSmDLO.Observe(fix)
			pSmDLG.Observe(fix)
		}
		if t < warmup {
			continue // filter + predictor warm-up
		}
		record(0, nrRawSol, err1)
		record(3, nrSmSol, err2)
		sol, err := dloRaw.Solve(t, rawObs)
		record(1, sol, err)
		sol, err = dlgRaw.Solve(t, rawObs)
		record(2, sol, err)
		sol, err = dloSm.Solve(t, smObs)
		record(4, sol, err)
		sol, err = dlgSm.Solve(t, smObs)
		record(5, sol, err)
	}
	names := [3]string{"NR", "DLO", "DLG"}
	fmt.Printf("%-6s %-14s %-16s %-12s\n", "algo", "raw err (m)", "smoothed err (m)", "reduction")
	for i := 0; i < 3; i++ {
		if stats[i].n == 0 || stats[i+3].n == 0 {
			continue
		}
		raw := stats[i].sum / float64(stats[i].n)
		sm := stats[i+3].sum / float64(stats[i+3].n)
		fmt.Printf("%-6s %-14.3f %-16.3f %.1f%%\n", names[i], raw, sm, 100*(1-sm/raw))
	}
	fmt.Println()
	return nil
}

// runAblationNoise is A7: sensitivity of the paper's accuracy rates to
// the pseudo-range noise level. η_DLO's degradation is driven by how the
// differenced system amplifies noise, so it should persist across noise
// scales while absolute errors track σ.
func runAblationNoise(cfg benchConfig) error {
	fmt.Println("Ablation A7 — noise sensitivity of the accuracy rates (m = 8)")
	st := scenario.Table51Stations()[1] // YYR1
	fmt.Printf("%-12s %-10s %-10s %-10s %-10s %-10s\n",
		"sigma (m)", "d_NR(m)", "d_DLO(m)", "d_DLG(m)", "eta_DLO", "eta_DLG")
	for _, sigma := range []float64{0.5, 1, 2, 4, 8} {
		gcfg := scenario.DefaultConfig(cfg.seed)
		gcfg.Step = cfg.step
		gcfg.NoiseSigma = sigma
		g := scenario.NewGenerator(st, gcfg)
		end := cfg.duration
		if end > 7200 {
			end = 7200
		}
		ds, err := g.GenerateRangeParallel(0, end, 0)
		if err != nil {
			return err
		}
		sweep := &eval.Sweep{Dataset: ds, SatCounts: []int{8}, Seed: cfg.seed, MaxEpochs: cfg.epochs, Registry: cfg.registry}
		res, err := sweep.Run()
		if err != nil {
			return err
		}
		row := res.Rows[0]
		if row.Epochs == 0 {
			continue
		}
		fmt.Printf("%-12.1f %-10.3f %-10.3f %-10.3f %-10.1f %-10.1f\n",
			sigma, row.NR.MeanError, row.DLO.MeanError, row.DLG.MeanError,
			row.AccuracyRateDLO(), row.AccuracyRateDLG())
	}
	fmt.Println()
	return nil
}

// runAblationSelection is A8: how much the satellite-subset policy itself
// matters. The paper controls the number of satellites but (like most
// receivers with more channels than needed) never says how the subset is
// picked; this quantifies that free variable at the sweep's hardest
// (m = 5) and easiest (m = 8) points.
func runAblationSelection(cfg benchConfig) error {
	fmt.Println("Ablation A8 — satellite-subset selection policy (NR error)")
	st := scenario.Table51Stations()[1] // YYR1
	ds, err := generate(cfg, st)
	if err != nil {
		return err
	}
	modes := []struct {
		name string
		mode eval.SelectionMode
	}{
		{"stratified (default)", eval.SelectStratified},
		{"highest elevation", eval.SelectTop},
		{"random", eval.SelectRandom},
		{"greedy best-DOP", eval.SelectBestDOP},
	}
	fmt.Printf("%-22s %-14s %-14s\n", "policy", "m=5 err (m)", "m=8 err (m)")
	for _, md := range modes {
		var cells [2]string
		for i, m := range []int{5, 8} {
			spec := []eval.ArmSpec{{Name: "NR", Solver: &core.NRSolver{}}}
			stats, err := eval.RunArms(ds, spec, eval.ArmOptions{
				M: m, MaxEpochs: cfg.epochs, Seed: cfg.seed, Selection: md.mode,
			})
			if err != nil {
				return err
			}
			cells[i] = fmt.Sprintf("%.3f", stats[0].MeanError)
		}
		fmt.Printf("%-22s %-14s %-14s\n", md.name, cells[0], cells[1])
	}
	fmt.Println()
	return nil
}
