// Journal overhead mode: -journal runs the engine twice over identical
// pregenerated epochs — flight journal off, then on (recording to a
// real file, fsyncs included) — and reports the throughput cost of
// always-on black-box recording. The acceptance budget is < 5%;
// -journal-json writes both arms plus the computed overhead as
// BENCH_journal.json for regression tracking.
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"gpsdl/internal/engine"
)

// benchSolver is the primary solver of the journal and recovery
// benchmarks: the paper's headline algorithm.
const benchSolver = "dlg"

// journalBenchConfig sizes the -journal benchmark.
type journalBenchConfig struct {
	receivers int
	epochs    int // timed epochs per receiver
	warmup    int // epochs before timing
	trials    int // interleaved off/on pairs; the median pair is reported
	seed      int64
	jsonPath  string
}

// journalBenchArm is one measured arm (journal off or on).
type journalBenchArm struct {
	Journal       bool    `json:"journal"`
	Fixes         uint64  `json:"fixes"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	FixesPerSec   float64 `json:"fixes_per_sec"`
	JournalBytes  uint64  `json:"journal_bytes,omitempty"`
	JournalFrames uint64  `json:"journal_frames,omitempty"`
	Records       uint64  `json:"journal_records,omitempty"`
}

// journalBenchReport is the -journal-json document.
type journalBenchReport struct {
	Benchmark   string          `json:"benchmark"`
	Solver      string          `json:"solver"`
	Receivers   int             `json:"receivers"`
	Epochs      int             `json:"epochs_per_receiver"`
	Warmup      int             `json:"warmup_epochs"`
	Trials      int             `json:"trials"`
	GOMAXPROCS  int             `json:"gomaxprocs"`
	Off         journalBenchArm `json:"off"`
	On          journalBenchArm `json:"on"`
	OverheadPct float64         `json:"overhead_pct"`
}

// runJournalBench measures the journal-on/off pair and reports. Each
// trial runs the two arms back to back and yields one paired overhead
// figure; the median trial is reported. Pairing cancels machine-load
// drift (both arms of a trial see the same conditions) and the median
// sheds one-sided outliers that best-of-N would keep.
func runJournalBench(cfg journalBenchConfig) error {
	fmt.Printf("journal overhead: solver=%s receivers=%d epochs/receiver=%d warmup=%d trials=%d GOMAXPROCS=%d\n",
		benchSolver, cfg.receivers, cfg.epochs, cfg.warmup, cfg.trials, runtime.GOMAXPROCS(0))
	dir, err := os.MkdirTemp("", "gpsbench-journal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	type pairedTrial struct {
		off, on  journalBenchArm
		overhead float64
	}
	trials := make([]pairedTrial, 0, cfg.trials)
	for trial := 0; trial < cfg.trials; trial++ {
		o, err := benchJournalArm(cfg, "")
		if err != nil {
			return fmt.Errorf("journal off: %w", err)
		}
		j, err := benchJournalArm(cfg, filepath.Join(dir, fmt.Sprintf("bench-%d.gpsj", trial)))
		if err != nil {
			return fmt.Errorf("journal on: %w", err)
		}
		pt := pairedTrial{off: o, on: j}
		if o.FixesPerSec > 0 {
			pt.overhead = 100 * (o.FixesPerSec - j.FixesPerSec) / o.FixesPerSec
		}
		fmt.Printf("  trial %d: off %.0f fixes/sec, on %.0f fixes/sec, overhead %.2f%%\n",
			trial+1, o.FixesPerSec, j.FixesPerSec, pt.overhead)
		trials = append(trials, pt)
	}
	sort.Slice(trials, func(i, j int) bool { return trials[i].overhead < trials[j].overhead })
	median := trials[len(trials)/2]
	off, on := median.off, median.on
	report := journalBenchReport{
		Benchmark:  "journal",
		Solver:     benchSolver,
		Receivers:  cfg.receivers,
		Epochs:     cfg.epochs,
		Warmup:     cfg.warmup,
		Trials:     cfg.trials,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Off:        off,
		On:         on,
	}
	report.OverheadPct = median.overhead
	fmt.Printf("%8s %12s %10s %14s %14s\n", "journal", "fixes", "elapsed", "fixes/sec", "bytes")
	for _, arm := range []journalBenchArm{off, on} {
		fmt.Printf("%8v %12d %9.3fs %14.0f %14d\n",
			arm.Journal, arm.Fixes, arm.ElapsedSec, arm.FixesPerSec, arm.JournalBytes)
	}
	fmt.Printf("journal overhead: %.2f%% (budget < 5%%)\n", report.OverheadPct)
	if cfg.jsonPath != "" {
		return writeReport(cfg.jsonPath, report)
	}
	return nil
}

// benchJournalArm times one engine run; journalPath == "" is the
// control arm. Both arms run with the quality layer on — the gpsserve
// engine-mode default — so the delta isolates what journaling itself
// adds (per-satellite residual capture, delta/varint encoding, framed
// file writes and fsyncs) rather than re-measuring the shared fix-
// quality assessment.
func benchJournalArm(cfg journalBenchConfig, journalPath string) (journalBenchArm, error) {
	ecfg := engine.Config{
		Receivers: cfg.receivers,
		Solver:    benchSolver,
		Seed:      cfg.seed,
		Quality:   &engine.QualityConfig{},
		Sink:      func(engine.FixEvent) {},
	}
	arm := journalBenchArm{Journal: journalPath != ""}
	if journalPath != "" {
		f, err := os.Create(journalPath)
		if err != nil {
			return arm, err
		}
		defer f.Close()
		ecfg.JournalSink = f
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		return arm, err
	}
	pre := cfg.epochs
	if cfg.warmup > pre {
		pre = cfg.warmup
	}
	if err := eng.Pregenerate(pre); err != nil {
		return arm, err
	}
	ctx := context.Background()
	if cfg.warmup > 0 {
		if err := eng.Run(ctx, cfg.warmup); err != nil {
			return arm, err
		}
	}
	before := eng.Stats()
	start := time.Now()
	if err := eng.Run(ctx, cfg.epochs); err != nil {
		return arm, err
	}
	arm.ElapsedSec = time.Since(start).Seconds()
	after := eng.Stats()
	arm.Fixes = after.Fixes - before.Fixes
	if arm.ElapsedSec > 0 {
		arm.FixesPerSec = float64(arm.Fixes) / arm.ElapsedSec
	}
	if jw := eng.Journal(); jw != nil {
		if err := jw.Close(); err != nil {
			return arm, err
		}
		arm.JournalFrames, arm.Records, arm.JournalBytes = jw.Stats()
	}
	return arm, nil
}
