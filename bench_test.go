// Benchmarks regenerating the timing side of every table and figure in the
// paper's evaluation (Section 5), plus the ablation benches DESIGN.md
// calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Mapping:
//
//	Table 5.1  -> BenchmarkTable51_DatasetGeneration
//	Fig 5.1    -> BenchmarkFig51_* (θ = ns/op ratios across solvers)
//	Fig 5.2    -> BenchmarkFig52_AccuracySweep (reports η via custom metrics)
//	Ablation A1 -> BenchmarkAblation_BaseSelection
//	Ablation A3 -> BenchmarkAblation_GLSFastPath
//	Ablation A4 -> BenchmarkAblation_DirectBaselines, BenchmarkNR_WarmVsCold
//	Design choice 1 -> BenchmarkOLS_NormalVsQR
//	Receiver stack  -> BenchmarkSubsystems (Hatch, EKF, velocity, NMEA, RAIM)
//	I/O substrate   -> BenchmarkRINEX, BenchmarkGeodesy
package gpsdl_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gpsdl/internal/clock"
	"gpsdl/internal/core"
	"gpsdl/internal/eval"
	"gpsdl/internal/geo"
	"gpsdl/internal/lsq"
	"gpsdl/internal/mat"
	"gpsdl/internal/nmea"
	"gpsdl/internal/rinex"
	"gpsdl/internal/scenario"
	"gpsdl/internal/smoothing"
	"gpsdl/internal/tracking"
)

// benchEpoch builds one epoch with exactly m satellites at a Table 5.1
// station, plus an oracle clock predictor (no warm-up needed in benches).
func benchEpoch(b *testing.B, m int) ([]core.Observation, clock.Predictor) {
	b.Helper()
	st, err := scenario.StationByID("YYR1")
	if err != nil {
		b.Fatal(err)
	}
	cfg := scenario.DefaultConfig(2009)
	cfg.ElevMaskDeg = 0 // ensure >= 10 in view
	// A jitter-free clock model: the default steering model derives its
	// jitter from a fresh PRNG per call, which would dominate the timing
	// of the direct solvers' oracle predictions.
	clk := &clock.SteeringModel{Offset: 2e-8}
	g := scenario.NewGenerator(st, cfg, scenario.WithClockModel(clk))
	epoch, err := g.EpochAt(4321)
	if err != nil {
		b.Fatal(err)
	}
	if len(epoch.Obs) < m {
		b.Fatalf("only %d satellites in view, need %d", len(epoch.Obs), m)
	}
	obs := make([]core.Observation, 0, m)
	for _, o := range epoch.Obs[:m] {
		obs = append(obs, core.Observation{Pos: o.Pos, Pseudorange: o.Pseudorange, Elevation: o.Elevation})
	}
	pred := &clock.OraclePredictor{Model: clk}
	return obs, pred
}

// BenchmarkTable51_DatasetGeneration measures epoch generation for each
// Table 5.1 station — the workload-generator side of the evaluation.
func BenchmarkTable51_DatasetGeneration(b *testing.B) {
	for _, st := range scenario.Table51Stations() {
		b.Run(st.ID, func(b *testing.B) {
			g := scenario.NewGenerator(st, scenario.DefaultConfig(2009))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.EpochAt(float64(i % 86400)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// solverBench runs one solver across the Fig 5.1 satellite counts.
func solverBench(b *testing.B, mk func(p clock.Predictor) core.Solver) {
	for m := 4; m <= 10; m++ {
		b.Run(fmt.Sprintf("sats=%d", m), func(b *testing.B) {
			obs, pred := benchEpoch(b, m)
			s := mk(pred)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(4321, obs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig51_NR is the τ_NR series of Fig 5.1.
func BenchmarkFig51_NR(b *testing.B) {
	solverBench(b, func(clock.Predictor) core.Solver { return &core.NRSolver{} })
}

// BenchmarkFig51_DLO is the τ_DLO series of Fig 5.1 (θ_DLO = this / NR).
func BenchmarkFig51_DLO(b *testing.B) {
	solverBench(b, func(p clock.Predictor) core.Solver { return core.NewDLOSolver(p) })
}

// BenchmarkFig51_DLG is the τ_DLG series of Fig 5.1 (θ_DLG = this / NR).
func BenchmarkFig51_DLG(b *testing.B) {
	solverBench(b, func(p clock.Predictor) core.Solver { return core.NewDLGSolver(p) })
}

// BenchmarkFig52_AccuracySweep runs the accuracy comparison of Fig 5.2 on
// a short dataset and reports η as custom metrics (errors don't depend on
// b.N; the loop re-runs the sweep to give a stable time-per-sweep figure).
func BenchmarkFig52_AccuracySweep(b *testing.B) {
	st, err := scenario.StationByID("YYR1")
	if err != nil {
		b.Fatal(err)
	}
	cfg := scenario.DefaultConfig(2009)
	cfg.Step = 30
	g := scenario.NewGenerator(st, cfg)
	ds, err := g.GenerateRange(0, 3600)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *eval.Result
	for i := 0; i < b.N; i++ {
		sweep := &eval.Sweep{Dataset: ds, SatCounts: []int{8}, InitEpochs: 30, Seed: 1, TimingReps: 1}
		res, err = sweep.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if res != nil && len(res.Rows) > 0 {
		b.ReportMetric(res.Rows[0].AccuracyRateDLO(), "etaDLO_%")
		b.ReportMetric(res.Rows[0].AccuracyRateDLG(), "etaDLG_%")
		b.ReportMetric(res.Rows[0].NR.MeanError, "dNR_m")
	}
}

// BenchmarkAblation_BaseSelection times DLO under each base-selection
// strategy (A1 / Section 6 extension 1); the accuracy side is in
// cmd/gpsbench -ablation base.
func BenchmarkAblation_BaseSelection(b *testing.B) {
	selectors := []struct {
		name string
		sel  core.BaseSelector
	}{
		{"first", core.BaseFirst{}},
		{"random", core.NewBaseRandom(1)},
		{"highest-elevation", core.BaseHighestElevation{}},
		{"nearest", core.BaseNearest{}},
	}
	for _, tt := range selectors {
		b.Run(tt.name, func(b *testing.B) {
			obs, pred := benchEpoch(b, 8)
			s := &core.DLOSolver{Predictor: pred, Base: tt.sel}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(4321, obs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_DirectBaselines times Bancroft next to the paper's
// algorithms (A4).
func BenchmarkAblation_DirectBaselines(b *testing.B) {
	obs, pred := benchEpoch(b, 8)
	arms := []core.Solver{
		&core.NRSolver{},
		core.BancroftSolver{},
		core.NewDLOSolver(pred),
		core.NewDLGSolver(pred),
	}
	for _, s := range arms {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(4321, obs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNR_WarmVsCold shows the warm-start effect on the NR baseline
// (A4: tracking receivers warm-start; the paper's cold (0,0,0,0) start is
// the worst case).
func BenchmarkNR_WarmVsCold(b *testing.B) {
	obs, _ := benchEpoch(b, 8)
	st, _ := scenario.StationByID("YYR1")
	b.Run("cold", func(b *testing.B) {
		s := &core.NRSolver{}
		for i := 0; i < b.N; i++ {
			if _, err := s.Solve(4321, obs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		s := &core.NRSolver{InitialGuess: &core.Solution{Pos: st.Pos}}
		for i := 0; i < b.N; i++ {
			if _, err := s.Solve(4321, obs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOLS_NormalVsQR is design choice 1 of DESIGN.md: normal
// equations vs Householder QR for the over-determined least squares.
func BenchmarkOLS_NormalVsQR(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	a := mat.NewDense(10, 4)
	rhs := make([]float64, 10)
	for i := 0; i < 10; i++ {
		for j := 0; j < 4; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		rhs[i] = rng.NormFloat64()
	}
	b.Run("normal-equations", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lsq.OLS(a, rhs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("householder-qr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lsq.OLSQR(a, rhs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGeodesy covers the coordinate substrate's hot paths.
func BenchmarkGeodesy(b *testing.B) {
	p := geo.ECEF{X: 1885341.558, Y: -3321428.098, Z: 5091171.168}
	sat := geo.ECEF{X: 1.5e7, Y: -1.2e7, Z: 1.9e7}
	b.Run("ECEFToLLA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = p.ToLLA()
		}
	})
	b.Run("ElevationAzimuth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = geo.ElevationAzimuth(p, sat)
		}
	})
}

// BenchmarkSubsystems covers the per-epoch cost of the receiver-stack
// layers that run alongside the positioning algorithms.
func BenchmarkSubsystems(b *testing.B) {
	st, err := scenario.StationByID("YYR1")
	if err != nil {
		b.Fatal(err)
	}
	g := scenario.NewGenerator(st, scenario.DefaultConfig(2009))
	epoch, err := g.EpochAt(4321)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("HatchSmooth", func(b *testing.B) {
		h := smoothing.NewHatch(100)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = h.Smooth(epoch)
		}
	})
	b.Run("EKFStep", func(b *testing.B) {
		f := tracking.NewFilter(tracking.Config{})
		var nr core.NRSolver
		obs := make([]core.Observation, 0, len(epoch.Obs))
		for _, o := range epoch.Obs {
			obs = append(obs, core.Observation{Pos: o.Pos, Pseudorange: o.Pseudorange})
		}
		sol, err := nr.Solve(epoch.T, obs)
		if err != nil {
			b.Fatal(err)
		}
		f.Init(sol, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.Step(float64(i+1), obs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("VelocitySolve", func(b *testing.B) {
		vel := make([]core.VelObservation, 0, len(epoch.Obs))
		for _, o := range epoch.Obs {
			vel = append(vel, core.VelObservation{Pos: o.Pos, Vel: o.Vel, RangeRate: o.Doppler})
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveVelocity(st.Pos, vel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NMEARender", func(b *testing.B) {
		fix := nmea.Fix{TimeOfDay: 3723.5, Pos: st.Pos.ToLLA(), Quality: nmea.QualityGPS, NumSats: 9, HDOP: 1.2}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = nmea.GGA(fix)
		}
	})
	b.Run("RAIMCheck", func(b *testing.B) {
		obs := make([]core.Observation, 0, 8)
		for _, o := range epoch.Obs[:8] {
			obs = append(obs, core.Observation{Pos: o.Pos, Pseudorange: o.Pseudorange, Elevation: o.Elevation})
		}
		r := &core.RAIM{Solver: &core.NRSolver{}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.Check(epoch.T, obs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRINEX covers the I/O substrate.
func BenchmarkRINEX(b *testing.B) {
	st, _ := scenario.StationByID("SRZN")
	g := scenario.NewGenerator(st, scenario.DefaultConfig(2009))
	ds, err := g.GenerateRange(0, 10)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rinex.WriteObs(&buf, ds); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.Run("WriteObs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if err := rinex.WriteObs(&w, ds); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ReadObs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rinex.ReadObs(bytes.NewReader(raw)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
