// Engine throughput mode: -engine sweeps the multi-receiver fix engine
// over a list of receiver counts and reports steady-state fixes/sec for
// each. Epochs are pregenerated so the measurement isolates the solver
// hot path (linearize → solve → DOP → NMEA) from scenario synthesis,
// and every session is warmed past the clock predictor's calibration
// window before the timed run. -engine-json writes the series as a
// machine-readable file (see EXPERIMENTS.md).
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gpsdl/internal/engine"
)

// engineBenchConfig holds the -engine-* flag values.
type engineBenchConfig struct {
	receivers []int
	epochs    int
	warmup    int
	solver    string
	workers   int
	seed      int64
	jsonPath  string

	// Live-generation arms: epochs synthesized during the timed run
	// (no pregeneration), at GOMAXPROCS 1 and 4.
	live          bool
	liveReceivers int
	liveEpochs    int
}

// engineBenchPoint is one receiver-count measurement in the JSON series.
type engineBenchPoint struct {
	Receivers     int     `json:"receivers"`
	Workers       int     `json:"workers"`
	Fixes         uint64  `json:"fixes"`
	SolveFailures uint64  `json:"solve_failures"`
	EpochErrors   uint64  `json:"epoch_errors"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	FixesPerSec   float64 `json:"fixes_per_sec"`
}

// engineLivePoint is one live-generation arm: scenario synthesis (read
// through the shared epoch cache) runs inside the timed loop, measuring
// serving throughput. Arm is the first field on purpose —
// scripts/bench_gate.sh keys points by the "arm" value preceding their
// metrics.
type engineLivePoint struct {
	Arm           string  `json:"arm"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Receivers     int     `json:"receivers"`
	Workers       int     `json:"workers"`
	Fixes         uint64  `json:"fixes"`
	SolveFailures uint64  `json:"solve_failures"`
	EpochErrors   uint64  `json:"epoch_errors"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	FixesPerSec   float64 `json:"fixes_per_sec"`
}

// engineBenchReport is the -engine-json document.
type engineBenchReport struct {
	Benchmark  string             `json:"benchmark"`
	Solver     string             `json:"solver"`
	Epochs     int                `json:"epochs_per_receiver"`
	Warmup     int                `json:"warmup_epochs"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Series     []engineBenchPoint `json:"series"`
	// LiveSeries must stay after Series: the bench gate treats points
	// before the first "arm" key as the pregenerated sweep.
	LiveSeries []engineLivePoint `json:"live_series,omitempty"`
}

// parseReceiverList parses a comma-separated list of receiver counts.
func parseReceiverList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad receiver count %q (want positive integers, e.g. \"1,2,4,8\")", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty receiver list")
	}
	return out, nil
}

// runEngineBench sweeps the engine across receiver counts and prints a
// fixes/sec table; with cfg.jsonPath it also writes the series as JSON.
func runEngineBench(cfg engineBenchConfig) error {
	report := engineBenchReport{
		Benchmark:  "engine",
		Solver:     cfg.solver,
		Epochs:     cfg.epochs,
		Warmup:     cfg.warmup,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Series:     make([]engineBenchPoint, 0, len(cfg.receivers)),
	}
	fmt.Printf("engine throughput: solver=%s epochs/receiver=%d warmup=%d GOMAXPROCS=%d\n",
		cfg.solver, cfg.epochs, cfg.warmup, report.GOMAXPROCS)
	fmt.Printf("%10s %8s %12s %10s %14s\n", "receivers", "workers", "fixes", "elapsed", "fixes/sec")
	for _, r := range cfg.receivers {
		pt, err := benchEngineOnce(cfg, r)
		if err != nil {
			return fmt.Errorf("receivers=%d: %w", r, err)
		}
		report.Series = append(report.Series, pt)
		fmt.Printf("%10d %8d %12d %9.3fs %14.0f\n",
			pt.Receivers, pt.Workers, pt.Fixes, pt.ElapsedSec, pt.FixesPerSec)
	}
	if cfg.live {
		fmt.Printf("live generation: receivers=%d epochs/receiver=%d (no pregeneration)\n",
			cfg.liveReceivers, cfg.liveEpochs)
		fmt.Printf("%14s %6s %12s %10s %14s\n", "arm", "procs", "fixes", "elapsed", "fixes/sec")
		for _, procs := range []int{1, 4} {
			pt, err := benchEngineLiveOnce(cfg, procs)
			if err != nil {
				return fmt.Errorf("live procs=%d: %w", procs, err)
			}
			report.LiveSeries = append(report.LiveSeries, pt)
			fmt.Printf("%14s %6d %12d %9.3fs %14.0f\n",
				pt.Arm, pt.GOMAXPROCS, pt.Fixes, pt.ElapsedSec, pt.FixesPerSec)
		}
	}
	if cfg.jsonPath != "" {
		if err := writeEngineJSON(cfg.jsonPath, report); err != nil {
			return err
		}
	}
	return nil
}

// benchEngineLiveOnce measures one live-generation arm: no pregenerated
// epochs, so each timed step pays the shared epoch cache's constellation
// propagation, visibility, light-time emission and noise synthesis
// before solving. GOMAXPROCS is pinned per arm and restored afterwards.
func benchEngineLiveOnce(cfg engineBenchConfig, procs int) (engineLivePoint, error) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	eng, err := engine.New(engine.Config{
		Receivers: cfg.liveReceivers,
		Workers:   procs,
		Solver:    cfg.solver,
		Seed:      cfg.seed,
		Sink:      func(engine.FixEvent) {},
	})
	if err != nil {
		return engineLivePoint{}, err
	}
	ctx := context.Background()
	if cfg.warmup > 0 {
		if err := eng.Run(ctx, cfg.warmup); err != nil {
			return engineLivePoint{}, err
		}
	}
	before := eng.Stats()
	start := time.Now()
	if err := eng.Run(ctx, cfg.liveEpochs); err != nil {
		return engineLivePoint{}, err
	}
	elapsed := time.Since(start).Seconds()
	after := eng.Stats()
	pt := engineLivePoint{
		// The arm name is the bench gate's key into BENCH_engine.json.
		Arm:           fmt.Sprintf("live-cache-p%d", procs),
		GOMAXPROCS:    procs,
		Receivers:     cfg.liveReceivers,
		Workers:       eng.Workers(),
		Fixes:         after.Fixes - before.Fixes,
		SolveFailures: after.SolveFailures - before.SolveFailures,
		EpochErrors:   after.EpochErrors - before.EpochErrors,
		ElapsedSec:    elapsed,
	}
	if elapsed > 0 {
		pt.FixesPerSec = float64(pt.Fixes) / elapsed
	}
	return pt, nil
}

// benchEngineOnce measures one receiver count: build, pregenerate, warm
// every session past the predictor calibration window, then time a full
// run. The warm-up epochs are excluded from the timed stats by diffing
// the cumulative counters around the measured run.
func benchEngineOnce(cfg engineBenchConfig, receivers int) (engineBenchPoint, error) {
	eng, err := engine.New(engine.Config{
		Receivers: receivers,
		Workers:   cfg.workers,
		Solver:    cfg.solver,
		Seed:      cfg.seed,
		Sink:      func(engine.FixEvent) {},
	})
	if err != nil {
		return engineBenchPoint{}, err
	}
	pre := cfg.epochs
	if cfg.warmup > pre {
		pre = cfg.warmup
	}
	if err := eng.Pregenerate(pre); err != nil {
		return engineBenchPoint{}, err
	}
	ctx := context.Background()
	// Epoch indices restart at 0 every Run, so the warm-up pass trains
	// the clock predictors on the same epochs the timed pass replays.
	if cfg.warmup > 0 {
		if err := eng.Run(ctx, cfg.warmup); err != nil {
			return engineBenchPoint{}, err
		}
	}
	before := eng.Stats()
	start := time.Now()
	if err := eng.Run(ctx, cfg.epochs); err != nil {
		return engineBenchPoint{}, err
	}
	elapsed := time.Since(start).Seconds()
	after := eng.Stats()
	pt := engineBenchPoint{
		Receivers:     receivers,
		Workers:       eng.Workers(),
		Fixes:         after.Fixes - before.Fixes,
		SolveFailures: after.SolveFailures - before.SolveFailures,
		EpochErrors:   after.EpochErrors - before.EpochErrors,
		ElapsedSec:    elapsed,
	}
	if elapsed > 0 {
		pt.FixesPerSec = float64(pt.Fixes) / elapsed
	}
	return pt, nil
}

// writeEngineJSON dumps the throughput series for EXPERIMENTS.md /
// regression tracking.
func writeEngineJSON(path string, report engineBenchReport) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
