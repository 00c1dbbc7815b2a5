// Command gpsbench regenerates every table and figure of the paper's
// evaluation (Section 5) plus the ablation studies of the Section 6
// extensions:
//
//	gpsbench -fig table          # Table 5.1 (dataset specifications)
//	gpsbench -fig 5.1            # Fig 5.1 a-d (execution time rates)
//	gpsbench -fig 5.2            # Fig 5.2 a-d (accuracy rates)
//	gpsbench -fig all            # everything above
//	gpsbench -ablation base      # A1: base-satellite selection
//	gpsbench -ablation clock     # A2: clock-predictor quality
//	gpsbench -ablation gls       # A3: GLS covariance fast paths
//	gpsbench -ablation direct    # A4: direct baselines + NR robustness
//	gpsbench -ablation dgps      # A5: differential corrections (§3.3)
//	gpsbench -ablation noise     # A7: noise sensitivity of eta
//	gpsbench -ablation selection # A8: satellite-subset policy
//	gpsbench -ablation all
//
// The paper processes 86 400 epochs per station; the default here is a
// 2-hour window at 5-second steps so the full suite runs in seconds.
// Raise -duration/-step for publication-grade runs.
package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"gpsdl/internal/eval"
	"gpsdl/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gpsbench:", err)
		os.Exit(1)
	}
}

// record is one committed BENCH_<name>.json: the sweep that writes it,
// at the fixed size the committed file was written with. Its flags are
// -<name>, which runs the sweep, and -<name>-json, the output path.
type record struct {
	name  string
	usage string
	run   func(seed int64, jsonPath string) error
}

// records is the one list of committed records. TestCommittedRecords
// holds each file to the byte, and make bench-records rewrites them all.
var records = []record{
	{"faults", "run the fault-degradation sweep (availability and eta vs fault intensity)",
		func(seed int64, jsonPath string) error {
			return runFaultBench(faultBenchConfig{receivers: 4, epochs: 600, seed: seed, jsonPath: jsonPath})
		}},
	{"quality", "run the solution-quality sweep (quality digests and SLO verdicts per solver across degradation scenarios)",
		func(seed int64, jsonPath string) error {
			return runQualityBench(qualityBenchConfig{
				receivers: 4, epochs: 600, solvers: []string{"nr", "dlg"}, seed: seed, jsonPath: jsonPath,
			})
		}},
	{"recovery", "run the checkpoint-recovery benchmark (cold NR re-warm-up vs restored clock calibration)",
		func(seed int64, jsonPath string) error {
			return runRecoveryBench(recoveryBenchConfig{receivers: 4, cut: 300, epochs: 600, seed: seed, jsonPath: jsonPath})
		}},
	{"broadcast", "run the serving fan-out benchmark (NMEA text vs binary delta frames, bytes per fix through a wire.Hub)",
		func(seed int64, jsonPath string) error {
			return runBroadcastBench(broadcastBenchConfig{receivers: 4, epochs: 1500, seed: seed, jsonPath: jsonPath})
		}},
}

type benchConfig struct {
	duration float64
	step     float64
	seed     int64
	epochs   int
	plot     bool
	csvDir   string
}

func run(args []string) error {
	fs := flag.NewFlagSet("gpsbench", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "", "figure to reproduce: table, 5.1, 5.2 or all")
		ablation = fs.String("ablation", "", "ablation to run: base, clock, gls, direct, dgps, noise, selection or all")
		duration = fs.Float64("duration", 7200, "seconds of data per station")
		step     = fs.Float64("step", 5, "epoch spacing in seconds")
		seed     = fs.Int64("seed", 2009, "generation seed")
		epochs   = fs.Int("epochs", 0, "max epochs per satellite count (0 = all)")
		plot     = fs.Bool("plot", false, "render ASCII charts of the figure curves")
		csvDir   = fs.String("csv", "", "also write the figure series as CSV files into this directory")
	)
	on := make([]*bool, len(records))
	paths := make([]*string, len(records))
	for i, r := range records {
		on[i] = fs.Bool(r.name, false, r.usage)
		paths[i] = fs.String(r.name+"-json", "BENCH_"+r.name+".json",
			"write the -"+r.name+" record as JSON to this file (empty disables)")
	}
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil // -h printed the usage
	} else if err != nil {
		return err
	}
	anyRecord := false
	for i, r := range records {
		if !*on[i] {
			continue
		}
		anyRecord = true
		if err := r.run(*seed, *paths[i]); err != nil {
			return err
		}
	}
	if *fig == "" && *ablation == "" && !anyRecord {
		*fig = "all"
	}
	cfg := benchConfig{duration: *duration, step: *step, seed: *seed, epochs: *epochs, plot: *plot, csvDir: *csvDir}
	switch *fig {
	case "":
	case "table":
		if err := eval.FormatTable51(os.Stdout, scenario.Table51Stations()); err != nil {
			return err
		}
	case "5.1", "5.2", "all":
		if err := runFigures(cfg, *fig); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -fig %q", *fig)
	}
	single := map[string]func(benchConfig) error{
		"base": runAblationBase, "clock": runAblationClock, "gls": runAblationGLS,
		"direct": runAblationDirect, "dgps": runAblationDGPS,
		"noise": runAblationNoise, "selection": runAblationSelection,
	}
	switch {
	case *ablation == "":
	case *ablation == "all":
		for _, f := range []func(benchConfig) error{
			runAblationBase, runAblationClock, runAblationGLS, runAblationDirect,
			runAblationDGPS, runAblationNoise, runAblationSelection,
		} {
			if err := f(cfg); err != nil {
				return err
			}
		}
	case single[*ablation] != nil:
		if err := single[*ablation](cfg); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -ablation %q", *ablation)
	}
	return nil
}

// writeReport writes a benchmark report as 2-space-indented JSON with a
// trailing newline.
func writeReport(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// writeCSV dumps one station's sweep as a CSV with every per-m metric —
// the machine-readable form of both figure panels.
func writeCSV(dir string, res *eval.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create csv dir: %w", err)
	}
	path := filepath.Join(dir, "sweep_"+strings.ToLower(res.Station.ID)+".csv")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	header := []string{
		"sats", "epochs", "skipped_dop", "skipped_sats", "availability_nr_pct",
		"d_nr_m", "d_dlo_m", "d_dlg_m",
		"median_nr_m", "median_dlo_m", "median_dlg_m",
		"p95_nr_m", "p95_dlo_m", "p95_dlg_m",
		"tau_nr_ns", "tau_dlo_ns", "tau_dlg_ns",
		"eta_dlo_pct", "eta_dlg_pct", "theta_dlo_pct", "theta_dlg_pct",
	}
	if err := w.Write(header); err != nil {
		return fmt.Errorf("write csv header: %w", err)
	}
	ftoa := func(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
	for _, row := range res.Rows {
		rec := []string{
			strconv.Itoa(row.M), strconv.Itoa(row.Epochs), strconv.Itoa(row.SkippedDOP),
			strconv.Itoa(row.SkippedSats), ftoa(row.Availability(row.NR)),
		}
		// A row with no measured epoch has no error, τ, η or θ: those
		// cells stay empty, as the figure tables and plots skip the row.
		measured := make([]string, len(header)-len(rec))
		if row.Epochs > 0 {
			measured = []string{
				ftoa(row.NR.MeanError), ftoa(row.DLO.MeanError), ftoa(row.DLG.MeanError),
				ftoa(row.NR.MedianError), ftoa(row.DLO.MedianError), ftoa(row.DLG.MedianError),
				ftoa(row.NR.P95Error), ftoa(row.DLO.P95Error), ftoa(row.DLG.P95Error),
				ftoa(row.NR.MeanNanos), ftoa(row.DLO.MeanNanos), ftoa(row.DLG.MeanNanos),
				ftoa(row.AccuracyRateDLO()), ftoa(row.AccuracyRateDLG()),
				ftoa(row.TimeRateDLO()), ftoa(row.TimeRateDLG()),
			}
		}
		rec = append(rec, measured...)
		if err := w.Write(rec); err != nil {
			return fmt.Errorf("write csv row: %w", err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return fmt.Errorf("flush %s: %w", path, err)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// generate builds the dataset for one station under the bench config.
func generate(cfg benchConfig, st scenario.Station) (*scenario.Dataset, error) {
	gcfg := scenario.DefaultConfig(cfg.seed)
	gcfg.Step = cfg.step
	g := scenario.NewGenerator(st, gcfg)
	return g.GenerateRangeParallel(0, cfg.duration, 0)
}

// runFigures reproduces Fig 5.1 and/or Fig 5.2 (plus Table 5.1 with "all").
func runFigures(cfg benchConfig, which string) error {
	if which == "all" {
		if err := eval.FormatTable51(os.Stdout, scenario.Table51Stations()); err != nil {
			return err
		}
		fmt.Println()
	}
	for i, st := range scenario.Table51Stations() {
		ds, err := generate(cfg, st)
		if err != nil {
			return fmt.Errorf("generate %s: %w", st.ID, err)
		}
		res, err := eval.Sweep(ds, eval.Options{MaxEpochs: cfg.epochs, Seed: cfg.seed})
		if err != nil {
			return fmt.Errorf("sweep %s: %w", st.ID, err)
		}
		panel := string(rune('a' + i))
		if cfg.csvDir != "" {
			if err := writeCSV(cfg.csvDir, res); err != nil {
				return err
			}
		}
		if which == "5.1" || which == "all" {
			fmt.Printf("(%s) ", panel)
			if err := eval.FormatFig51(os.Stdout, res); err != nil {
				return err
			}
			if cfg.plot {
				if err := eval.PlotFig51(os.Stdout, res); err != nil {
					return err
				}
			}
			fmt.Println()
		}
		if which == "5.2" || which == "all" {
			fmt.Printf("(%s) ", panel)
			if err := eval.FormatFig52(os.Stdout, res); err != nil {
				return err
			}
			if cfg.plot {
				if err := eval.PlotFig52(os.Stdout, res); err != nil {
					return err
				}
			}
			fmt.Println()
		}
	}
	return nil
}
