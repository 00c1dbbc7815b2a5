// Fault-degradation mode: -faults sweeps a fault program over increasing
// intensity (Program.Scale) and measures how gracefully each solver
// degrades: availability (epochs that produced a real fix), coasting and
// failure rates, mean position error of the surviving fixes, and the
// paper's accuracy rate η (eq. 5-2) against the NR baseline at the same
// intensity. -faults-json writes the series as BENCH_faults.json.
package main

import (
	"context"
	"fmt"

	"gpsdl/internal/engine"
	"gpsdl/internal/eval"
	"gpsdl/internal/fault"
	"gpsdl/internal/scenario"
)

// faultSweepIntensities is the x-axis of the degradation sweep: 0 is the
// fault-free baseline, 1 is the program as written.
var faultSweepIntensities = []float64{0, 0.25, 0.5, 0.75, 1}

// faultSweepSolvers are the chain primaries compared per intensity. NR is
// the eq. 5-2 reference; DLG is the paper's headline algorithm; "dlg-w"
// is DLG with C/N0 weighting plus the innovation-outlier disruption
// detector — the arm that survives the multi-satellite spoof and jam
// segments single-exclusion RAIM cannot resolve.
var faultSweepSolvers = []string{"nr", "dlg", "dlg-w"}

// defaultFaultSpec is the reference adversarial program: a satellite
// dropout, a gross step fault (RAIM bait), a diverging ramp, a wideband
// multipath burst, a receiver clock jump, an occlusion shrinking the sky
// below the 4-satellite solver minimum, a two-satellite coherent spoof
// (defeats single-fault exclusion), and a wideband jam that degrades
// both the pseudo-ranges and the advertised C/N0.
const defaultFaultSpec = "drop:prn=7,from=60,until=180;" +
	"step:prn=12,bias=350,from=120,until=240;" +
	"ramp:prn=5,rate=2,from=150,until=300;" +
	"burst:sigma=10,from=200,until=280;" +
	"clockjump:at=260,bias=2e-4;" +
	"shrink:n=3,from=320,until=380;" +
	"spoof:n=2,bias=300,from=400,until=480;" +
	"jam:sigma=15,from=500,until=560"

// benchFaultSeed seeds the fault injector of the -faults and -quality
// sweeps.
const benchFaultSeed = 1

// faultBenchConfig sizes the -faults sweep.
type faultBenchConfig struct {
	receivers int // sessions, round-robin over the Table 5.1 stations
	epochs    int // epochs per receiver
	seed      int64
	jsonPath  string
}

// faultBenchPoint is one (intensity, solver) measurement.
type faultBenchPoint struct {
	Intensity      float64 `json:"intensity"`
	Solver         string  `json:"solver"`
	Epochs         int     `json:"epochs"` // epoch slots across all receivers
	Fixes          uint64  `json:"fixes"`
	CoastFixes     uint64  `json:"coast_fixes"`
	SolveFailures  uint64  `json:"solve_failures"`
	FaultEvents    uint64  `json:"fault_events"`
	Fallbacks      uint64  `json:"fallbacks"`
	SuspectFixes   uint64  `json:"suspect_fixes"`
	RAIMExclusions uint64  `json:"raim_exclusions"`
	// AvailabilityPct counts epochs that produced a real (non-coast)
	// fix; coasting epochs are flagged dead reckoning, not availability.
	AvailabilityPct float64 `json:"availability_pct"`
	// MeanErrorM is the mean 3D position error of the real fixes against
	// the receiver's ground-truth station.
	MeanErrorM float64 `json:"mean_error_m"`
	// EtaPct is eq. 5-2's accuracy rate against the NR arm at the same
	// intensity (100 for the NR rows themselves).
	EtaPct float64 `json:"eta_pct"`
}

// faultBenchReport is the -faults-json document.
type faultBenchReport struct {
	Benchmark   string            `json:"benchmark"`
	Spec        string            `json:"spec"`
	Seed        int64             `json:"seed"`
	FaultSeed   int64             `json:"fault_seed"`
	Receivers   int               `json:"receivers"`
	Epochs      int               `json:"epochs_per_receiver"`
	Intensities []float64         `json:"intensities"`
	Series      []faultBenchPoint `json:"series"`
}

// runFaultBench sweeps the program over intensity × solver and prints the
// degradation table; with cfg.jsonPath it also writes the series as JSON.
func runFaultBench(cfg faultBenchConfig) error {
	prog, err := fault.ParseSpec(defaultFaultSpec)
	if err != nil {
		return err
	}
	report := faultBenchReport{
		Benchmark:   "faults",
		Spec:        prog.String(),
		Seed:        cfg.seed,
		FaultSeed:   benchFaultSeed,
		Receivers:   cfg.receivers,
		Epochs:      cfg.epochs,
		Intensities: faultSweepIntensities,
	}
	fmt.Printf("fault degradation sweep: receivers=%d epochs/receiver=%d seed=%d fault-seed=%d\n",
		cfg.receivers, cfg.epochs, cfg.seed, benchFaultSeed)
	fmt.Printf("program: %s\n", report.Spec)
	fmt.Printf("%9s %7s %8s %7s %6s %8s %10s %8s %8s %10s %9s\n",
		"intensity", "solver", "fixes", "coast", "fail", "avail%", "d_err(m)", "eta%", "faults", "fallbacks", "suspects")
	for _, s := range faultSweepIntensities {
		var nrErr float64
		for _, solver := range faultSweepSolvers {
			pt, err := benchFaultsOnce(cfg, prog.Scale(s), s, solver)
			if err != nil {
				return fmt.Errorf("intensity=%g solver=%s: %w", s, solver, err)
			}
			if solver == "nr" {
				nrErr = pt.MeanErrorM
			}
			pt.EtaPct = eval.AccuracyRate(pt.MeanErrorM, nrErr)
			report.Series = append(report.Series, pt)
			fmt.Printf("%9.2f %7s %8d %7d %6d %7.2f%% %10.3f %8.1f %8d %10d %9d\n",
				pt.Intensity, pt.Solver, pt.Fixes, pt.CoastFixes, pt.SolveFailures,
				pt.AvailabilityPct, pt.MeanErrorM, pt.EtaPct,
				pt.FaultEvents, pt.Fallbacks, pt.SuspectFixes)
		}
	}
	if cfg.jsonPath != "" {
		return writeReport(cfg.jsonPath, report)
	}
	return nil
}

// benchFaultsOnce runs one (program, solver) combination through the fix
// engine and reduces the fix stream to a degradation point. The sink is
// called from shard goroutines, but a receiver is pinned to one shard, so
// the per-receiver accumulators need no locking.
func benchFaultsOnce(cfg faultBenchConfig, prog fault.Program, intensity float64, solver string) (faultBenchPoint, error) {
	stations := scenario.Table51Stations()
	errSum := make([]float64, cfg.receivers)
	errN := make([]int, cfg.receivers)
	// "dlg-w" is the weighted arm: a DLG primary with C/N0 → σ mapping
	// and the disruption detector down-weighting innovation outliers.
	primary, weighted := solver, false
	if solver == "dlg-w" {
		primary, weighted = "dlg", true
	}
	eng, err := engine.New(engine.Config{
		Receivers:  cfg.receivers,
		Solver:     primary,
		Weighting:  weighted,
		Disruption: weighted,
		Seed:       cfg.seed,
		Stations:   stations,
		Faults:     prog,
		FaultSeed:  benchFaultSeed,
		Sink: func(e engine.FixEvent) {
			if e.Err != nil || e.Coast {
				return
			}
			truth := stations[e.Receiver%len(stations)].Pos
			errSum[e.Receiver] += e.Sol.Pos.DistanceTo(truth)
			errN[e.Receiver]++
		},
	})
	if err != nil {
		return faultBenchPoint{}, err
	}
	if err := eng.Pregenerate(cfg.epochs); err != nil {
		return faultBenchPoint{}, err
	}
	if err := eng.Run(context.Background(), cfg.epochs); err != nil {
		return faultBenchPoint{}, err
	}
	st := eng.Stats()
	total := cfg.epochs * cfg.receivers
	pt := faultBenchPoint{
		Intensity:      intensity,
		Solver:         solver,
		Epochs:         total,
		Fixes:          st.Fixes,
		CoastFixes:     st.CoastFixes,
		SolveFailures:  st.SolveFailures,
		FaultEvents:    st.FaultEvents,
		Fallbacks:      st.Fallbacks,
		SuspectFixes:   st.SuspectFixes,
		RAIMExclusions: st.RAIMExclusions,
	}
	if total > 0 {
		pt.AvailabilityPct = 100 * float64(st.Fixes) / float64(total)
	}
	var sum float64
	var n int
	for r := range errSum {
		sum += errSum[r]
		n += errN[r]
	}
	if n > 0 {
		pt.MeanErrorM = sum / float64(n)
	}
	return pt, nil
}
