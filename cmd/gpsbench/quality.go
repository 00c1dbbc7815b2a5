// Solution-quality mode: -quality runs each solver through a set of
// canonical degradation scenarios (clean sky, wideband noise burst,
// gross step fault, sky occlusion, clock jump) with the engine's quality
// layer enabled, and reports the resulting quality digests and SLO
// verdicts: availability, χ² consistency pass rate, residual-RMS
// quantiles, DOP, clock-innovation extremes, and whether the default
// error budgets would have paged. -quality-json writes the series as
// BENCH_quality.json (see EXPERIMENTS.md).
package main

import (
	"context"
	"fmt"

	"gpsdl/internal/engine"
	"gpsdl/internal/fault"
	"gpsdl/internal/quality"
	"gpsdl/internal/slo"
)

// qualityScenario is one degradation class of the sweep. The fault
// windows are expressed as fractions of the run so the sweep scales with
// its epoch count.
type qualityScenario struct {
	name string
	spec func(epochs int) string // fault spec; "" = clean
}

// qualitySweepScenarios spans the canonical failure classes: quiet
// quality rot (burst), a RAIM-visible gross fault (step), geometry
// collapse (shrink), and a timebase discontinuity (clockjump), bracketed
// by the clean-sky baseline.
var qualitySweepScenarios = []qualityScenario{
	{"clean", func(int) string { return "" }},
	{"burst", func(n int) string {
		return fmt.Sprintf("burst:sigma=10,from=%d,until=%d", n/6, 5*n/6)
	}},
	// PRN 14 is visible from every Table 5.1 station, so the step fault
	// bites at all receivers.
	{"step", func(n int) string {
		return fmt.Sprintf("step:prn=14,bias=350,from=%d,until=%d", n/6, 5*n/6)
	}},
	{"shrink", func(n int) string {
		return fmt.Sprintf("shrink:n=4,from=%d,until=%d", n/6, 5*n/6)
	}},
	{"clockjump", func(n int) string {
		return fmt.Sprintf("clockjump:at=%d,bias=2e-4;clockjump:at=%d,bias=-1e-4", n/4, n/2)
	}},
}

// qualityBenchConfig sizes the -quality sweep.
type qualityBenchConfig struct {
	receivers int // sessions, round-robin over the Table 5.1 stations
	epochs    int // epochs per receiver
	solvers   []string
	seed      int64
	jsonPath  string
}

// qualityBenchPoint is one (scenario, solver) measurement: the fleet
// quality digest over the whole run plus the SLO verdict it produced.
type qualityBenchPoint struct {
	Scenario string `json:"scenario"`
	Spec     string `json:"spec,omitempty"`
	Solver   string `json:"solver"`
	// Digest is the fleet-merged quality window reduction (the window
	// spans the entire run, so nothing is evicted).
	Digest quality.Digest `json:"digest"`
	// Worst and Objectives are the SLO verdict under the default error
	// budgets at the end of the run.
	Worst      slo.State    `json:"worst"`
	Objectives []slo.Status `json:"objectives"`
	// SLODowngrades counts healthy→degraded transitions forced by a
	// paging objective during the run.
	SLODowngrades uint64 `json:"slo_downgrades"`
}

// qualityBenchReport is the -quality-json document.
type qualityBenchReport struct {
	Benchmark string              `json:"benchmark"`
	Seed      int64               `json:"seed"`
	FaultSeed int64               `json:"fault_seed"`
	Receivers int                 `json:"receivers"`
	Epochs    int                 `json:"epochs_per_receiver"`
	Series    []qualityBenchPoint `json:"series"`
}

// runQualityBench sweeps scenario × solver and prints the quality table;
// with cfg.jsonPath it also writes the series as JSON.
func runQualityBench(cfg qualityBenchConfig) error {
	report := qualityBenchReport{
		Benchmark: "quality",
		Seed:      cfg.seed,
		FaultSeed: benchFaultSeed,
		Receivers: cfg.receivers,
		Epochs:    cfg.epochs,
	}
	fmt.Printf("solution-quality sweep: receivers=%d epochs/receiver=%d seed=%d fault-seed=%d\n",
		cfg.receivers, cfg.epochs, cfg.seed, benchFaultSeed)
	fmt.Printf("%10s %9s %7s %7s %7s %7s %7s %6s %6s %8s %6s %10s\n",
		"scenario", "solver", "avail%", "chi2%", "p50(m)", "p95(m)", "p99(m)",
		"pdop", "excl%", "clkmax", "slo", "downgrades")
	for _, sc := range qualitySweepScenarios {
		spec := sc.spec(cfg.epochs)
		for _, solver := range cfg.solvers {
			pt, err := benchQualityOnce(cfg, sc.name, spec, solver)
			if err != nil {
				return fmt.Errorf("scenario=%s solver=%s: %w", sc.name, solver, err)
			}
			report.Series = append(report.Series, pt)
			d := pt.Digest
			fmt.Printf("%10s %9s %6.2f%% %6.2f%% %7.2f %7.2f %7.2f %6.2f %5.2f%% %8.2f %6s %10d\n",
				pt.Scenario, pt.Solver,
				100*float64(d.Availability), 100*float64(d.Chi2PassRate),
				float64(d.RMSP50), float64(d.RMSP95), float64(d.RMSP99),
				float64(d.PDOPMean), 100*float64(d.ExcludedRate), float64(d.ClockMax),
				pt.Worst, pt.SLODowngrades)
		}
	}
	if cfg.jsonPath != "" {
		return writeReport(cfg.jsonPath, report)
	}
	return nil
}

// benchQualityOnce measures one (scenario, solver) cell: the quality
// window spans the whole run and snapshots publish every epoch, so the
// digest is the exact distribution over all epochs of all receivers.
func benchQualityOnce(cfg qualityBenchConfig, name, spec, solver string) (qualityBenchPoint, error) {
	var prog fault.Program
	if spec != "" {
		var err error
		prog, err = fault.ParseSpec(spec)
		if err != nil {
			return qualityBenchPoint{}, err
		}
	}
	objs := slo.DefaultObjectives()
	eng, err := engine.New(engine.Config{
		Receivers: cfg.receivers,
		Solver:    solver,
		Seed:      cfg.seed,
		Faults:    prog,
		FaultSeed: benchFaultSeed,
		Quality: &engine.QualityConfig{
			Window:     cfg.epochs,
			EvalEvery:  1,
			Objectives: objs,
		},
	})
	if err != nil {
		return qualityBenchPoint{}, err
	}
	if err := eng.Run(context.Background(), cfg.epochs); err != nil {
		return qualityBenchPoint{}, err
	}
	fq := eng.Quality(1)
	return qualityBenchPoint{
		Scenario:      name,
		Spec:          spec,
		Solver:        solver,
		Digest:        fq.Digest,
		Worst:         fq.Worst,
		Objectives:    fq.Objectives,
		SLODowngrades: eng.Stats().SLODowngrades,
	}, nil
}
