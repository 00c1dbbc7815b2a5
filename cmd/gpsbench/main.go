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
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"gpsdl/internal/eval"
	"gpsdl/internal/scenario"
	"gpsdl/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gpsbench:", err)
		os.Exit(1)
	}
}

type benchConfig struct {
	duration float64
	step     float64
	seed     int64
	epochs   int
	plot     bool
	csvDir   string
	// registry, when non-nil, collects solver/clock metrics across every
	// sweep the run performs (-metrics-out).
	registry *telemetry.Registry
}

func run(args []string) error {
	fs := flag.NewFlagSet("gpsbench", flag.ContinueOnError)
	var (
		fig             = fs.String("fig", "", "figure to reproduce: table, 5.1, 5.2 or all")
		ablation        = fs.String("ablation", "", "ablation to run: base, clock, gls, direct, dgps, noise, selection or all")
		duration        = fs.Float64("duration", 7200, "seconds of data per station")
		step            = fs.Float64("step", 5, "epoch spacing in seconds")
		seed            = fs.Int64("seed", 2009, "generation seed")
		epochs          = fs.Int("epochs", 0, "max epochs per satellite count (0 = all)")
		plot            = fs.Bool("plot", false, "render ASCII charts of the figure curves")
		csvDir          = fs.String("csv", "", "also write the figure series as CSV files into this directory")
		engineOn        = fs.Bool("engine", false, "benchmark the multi-receiver fix engine (fixes/sec vs receiver count)")
		engineReceivers = fs.String("engine-receivers", "1,2,4,8", "comma-separated receiver counts for -engine")
		engineEpochs    = fs.Int("engine-epochs", 2000, "timed epochs per receiver for -engine")
		engineWarmup    = fs.Int("engine-warmup", 300, "warm-up epochs (clock-predictor calibration) before timing for -engine")
		engineSolver    = fs.String("engine-solver", "dlg", "solver for -engine: nr, dlo, dlg or bancroft")
		engineWorkers   = fs.Int("engine-workers", 0, "engine shard count for -engine (0 = GOMAXPROCS)")
		engineJSON      = fs.String("engine-json", "", "write the -engine throughput series as JSON to this file")
		engineLive      = fs.Bool("engine-live", true, "also run the live-generation arms (GOMAXPROCS 1 and 4) for -engine")
		engineLiveRecv  = fs.Int("engine-live-receivers", 8, "receiver count for the -engine live-generation arms")
		engineLiveEp    = fs.Int("engine-live-epochs", 800, "timed epochs per receiver for the -engine live-generation arms")
		faultsOn        = fs.Bool("faults", false, "run the fault-degradation sweep (availability and eta vs fault intensity)")
		faultsSpec      = fs.String("faults-spec", defaultFaultSpec, "fault program for -faults (fault spec grammar)")
		faultsReceivers = fs.Int("faults-receivers", 4, "receiver sessions for -faults (round-robin over the Table 5.1 stations)")
		faultsEpochs    = fs.Int("faults-epochs", 600, "epochs per receiver for -faults")
		faultsSeed      = fs.Int64("fault-seed", 1, "fault-injector seed for -faults")
		faultsJSON      = fs.String("faults-json", "BENCH_faults.json", "write the -faults degradation series as JSON to this file (empty disables)")
		qualityOn       = fs.Bool("quality", false, "run the solution-quality sweep (quality digests and SLO verdicts per solver across degradation scenarios)")
		qualityRecv     = fs.Int("quality-receivers", 4, "receiver sessions for -quality (round-robin over the Table 5.1 stations)")
		qualityEpochs   = fs.Int("quality-epochs", 600, "epochs per receiver for -quality")
		qualitySolvers  = fs.String("quality-solvers", "nr,dlg", "comma-separated solvers for -quality")
		qualityWorkers  = fs.Int("quality-workers", 0, "engine shard count for -quality (0 = GOMAXPROCS)")
		qualityJSON     = fs.String("quality-json", "BENCH_quality.json", "write the -quality sweep as JSON to this file (empty disables)")
		recoveryOn      = fs.Bool("recovery", false, "run the checkpoint-recovery benchmark (cold NR re-warm-up vs restored clock calibration)")
		recoveryRecv    = fs.Int("recovery-receivers", 4, "receiver sessions for -recovery (round-robin over the Table 5.1 stations)")
		recoveryCut     = fs.Int("recovery-cut", 300, "epoch the serving engine is killed (and checkpointed) at for -recovery")
		recoveryEpochs  = fs.Int("recovery-epochs", 600, "total epochs for -recovery; [cut, epochs) is the measured restart window")
		recoverySolver  = fs.String("recovery-solver", "dlg", "primary solver for -recovery: nr, dlo, dlg or bancroft")
		recoveryJSON    = fs.String("recovery-json", "BENCH_recovery.json", "write the -recovery comparison as JSON to this file (empty disables)")
		journalOn       = fs.Bool("journal", false, "run the flight-journal overhead benchmark (engine throughput with journaling off vs on)")
		journalRecv     = fs.Int("journal-receivers", 8, "receiver sessions for -journal")
		journalEpochs   = fs.Int("journal-epochs", 2000, "timed epochs per receiver for -journal")
		journalWarmup   = fs.Int("journal-warmup", 300, "warm-up epochs before timing for -journal")
		journalSolver   = fs.String("journal-solver", "dlg", "solver for -journal: nr, dlo, dlg or bancroft")
		journalWorkers  = fs.Int("journal-workers", 0, "engine shard count for -journal (0 = GOMAXPROCS)")
		journalSync     = fs.Int("journal-sync", 0, "record frames between journal sync points for -journal (0 = default, negative disables fsync)")
		journalTrials   = fs.Int("journal-trials", 5, "interleaved trials per arm for -journal; the fastest run of each arm is compared")
		journalJSON     = fs.String("journal-json", "BENCH_journal.json", "write the -journal overhead comparison as JSON to this file (empty disables)")
		broadcastOn     = fs.Bool("broadcast", false, "run the serving fan-out benchmark (NMEA text vs binary delta frames across subscriber counts)")
		broadcastRecv   = fs.Int("broadcast-receivers", 4, "receiver sessions generating the fix set for -broadcast")
		broadcastEpochs = fs.Int("broadcast-epochs", 1500, "epochs per receiver for -broadcast")
		broadcastCli    = fs.String("broadcast-clients", "1,4,16,64", "comma-separated subscriber counts for -broadcast")
		broadcastTrials = fs.Int("broadcast-trials", 5, "runs per (arm, clients) cell for -broadcast; the fastest is kept")
		broadcastJSON   = fs.String("broadcast-json", "BENCH_broadcast.json", "write the -broadcast sweep as JSON to this file (empty disables)")
		metricsOut      = fs.String("metrics-out", "", "write a final Prometheus-format metrics snapshot to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *engineOn {
		receivers, err := parseReceiverList(*engineReceivers)
		if err != nil {
			return fmt.Errorf("-engine-receivers: %w", err)
		}
		if *engineEpochs < 1 {
			return fmt.Errorf("-engine-epochs must be positive, have %d", *engineEpochs)
		}
		if *engineWarmup < 0 {
			return fmt.Errorf("-engine-warmup must be non-negative, have %d", *engineWarmup)
		}
		if *engineLive && (*engineLiveRecv < 1 || *engineLiveEp < 1) {
			return fmt.Errorf("-engine-live-receivers and -engine-live-epochs must be positive, have %d and %d",
				*engineLiveRecv, *engineLiveEp)
		}
		if err := runEngineBench(engineBenchConfig{
			receivers: receivers,
			epochs:    *engineEpochs,
			warmup:    *engineWarmup,
			solver:    *engineSolver,
			workers:   *engineWorkers,
			seed:      *seed,
			jsonPath:  *engineJSON,

			live:          *engineLive,
			liveReceivers: *engineLiveRecv,
			liveEpochs:    *engineLiveEp,
		}); err != nil {
			return err
		}
	}
	if *faultsOn {
		if *faultsEpochs < 1 {
			return fmt.Errorf("-faults-epochs must be positive, have %d", *faultsEpochs)
		}
		if *faultsReceivers < 1 {
			return fmt.Errorf("-faults-receivers must be positive, have %d", *faultsReceivers)
		}
		if err := runFaultBench(faultBenchConfig{
			spec:      *faultsSpec,
			receivers: *faultsReceivers,
			epochs:    *faultsEpochs,
			seed:      *seed,
			faultSeed: *faultsSeed,
			jsonPath:  *faultsJSON,
		}); err != nil {
			return err
		}
	}
	if *qualityOn {
		if *qualityEpochs < 60 {
			return fmt.Errorf("-quality-epochs must be >= 60, have %d", *qualityEpochs)
		}
		if *qualityRecv < 1 {
			return fmt.Errorf("-quality-receivers must be positive, have %d", *qualityRecv)
		}
		solvers, err := parseSolverList(*qualitySolvers)
		if err != nil {
			return fmt.Errorf("-quality-solvers: %w", err)
		}
		if err := runQualityBench(qualityBenchConfig{
			receivers: *qualityRecv,
			epochs:    *qualityEpochs,
			solvers:   solvers,
			workers:   *qualityWorkers,
			seed:      *seed,
			faultSeed: *faultsSeed,
			jsonPath:  *qualityJSON,
		}); err != nil {
			return err
		}
	}
	if *recoveryOn {
		if *recoveryRecv < 1 {
			return fmt.Errorf("-recovery-receivers must be positive, have %d", *recoveryRecv)
		}
		if *recoveryCut < 1 {
			return fmt.Errorf("-recovery-cut must be positive, have %d", *recoveryCut)
		}
		if *recoveryEpochs <= *recoveryCut {
			return fmt.Errorf("-recovery-epochs (%d) must exceed -recovery-cut (%d)", *recoveryEpochs, *recoveryCut)
		}
		if err := runRecoveryBench(recoveryBenchConfig{
			receivers: *recoveryRecv,
			cut:       *recoveryCut,
			epochs:    *recoveryEpochs,
			solver:    *recoverySolver,
			seed:      *seed,
			jsonPath:  *recoveryJSON,
		}); err != nil {
			return err
		}
	}
	if *journalOn {
		if *journalRecv < 1 {
			return fmt.Errorf("-journal-receivers must be positive, have %d", *journalRecv)
		}
		if *journalEpochs < 1 {
			return fmt.Errorf("-journal-epochs must be positive, have %d", *journalEpochs)
		}
		if *journalWarmup < 0 {
			return fmt.Errorf("-journal-warmup must be non-negative, have %d", *journalWarmup)
		}
		if err := runJournalBench(journalBenchConfig{
			receivers: *journalRecv,
			epochs:    *journalEpochs,
			warmup:    *journalWarmup,
			solver:    *journalSolver,
			workers:   *journalWorkers,
			syncEvery: *journalSync,
			trials:    *journalTrials,
			seed:      *seed,
			jsonPath:  *journalJSON,
		}); err != nil {
			return err
		}
	}
	if *broadcastOn {
		if *broadcastRecv < 1 {
			return fmt.Errorf("-broadcast-receivers must be positive, have %d", *broadcastRecv)
		}
		if *broadcastEpochs < 1 {
			return fmt.Errorf("-broadcast-epochs must be positive, have %d", *broadcastEpochs)
		}
		clients, err := parseClientList(*broadcastCli)
		if err != nil {
			return fmt.Errorf("-broadcast-clients: %w", err)
		}
		if err := runBroadcastBench(broadcastBenchConfig{
			receivers: *broadcastRecv,
			epochs:    *broadcastEpochs,
			clients:   clients,
			trials:    *broadcastTrials,
			seed:      *seed,
			jsonPath:  *broadcastJSON,
		}); err != nil {
			return err
		}
	}
	if *fig == "" && *ablation == "" && !*engineOn && !*faultsOn && !*recoveryOn && !*qualityOn && !*journalOn && !*broadcastOn {
		*fig = "all"
	}
	cfg := benchConfig{duration: *duration, step: *step, seed: *seed, epochs: *epochs, plot: *plot, csvDir: *csvDir}
	if *metricsOut != "" {
		cfg.registry = telemetry.NewRegistry()
	}
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
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, cfg.registry); err != nil {
			return err
		}
	}
	return nil
}

// writeMetrics dumps the registry's final Prometheus-format snapshot.
func writeMetrics(path string, reg *telemetry.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
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
			ftoa(row.NR.MeanError), ftoa(row.DLO.MeanError), ftoa(row.DLG.MeanError),
			ftoa(row.NR.MedianError), ftoa(row.DLO.MedianError), ftoa(row.DLG.MedianError),
			ftoa(row.NR.P95Error), ftoa(row.DLO.P95Error), ftoa(row.DLG.P95Error),
			ftoa(row.NR.MeanNanos), ftoa(row.DLO.MeanNanos), ftoa(row.DLG.MeanNanos),
			ftoa(row.AccuracyRateDLO()), ftoa(row.AccuracyRateDLG()),
			ftoa(row.TimeRateDLO()), ftoa(row.TimeRateDLG()),
		}
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
		sweep := &eval.Sweep{
			Dataset:   ds,
			MaxEpochs: cfg.epochs,
			Seed:      cfg.seed,
			Registry:  cfg.registry,
		}
		res, err := sweep.Run()
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
