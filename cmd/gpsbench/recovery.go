// Recovery mode: -recovery prices what a checkpoint is worth. A serving
// engine is killed at a cut epoch; the benchmark then races two restart
// arms over the same post-cut window. The cold arm loses the clock
// calibration and must re-warm its predictors through the NR fallback
// (the expensive recalibration case the paper's Section 5 prices);
// the restored arm resumes from the checkpointed D and r of eq. 4-3 and
// produces primary-solver fixes immediately. BENCH_recovery.json records
// the recovery gap in epochs, both arms' accuracy, their ratio on the
// eq. 5-2 scale, and the checkpoint's encoded size. The checkpoint
// round-trips in memory through checkpoint.Encode and Decode, the codec
// the cluster handoff uses, so every field is exact for a seed; what a
// checkpoint costs in time is fixbench's to measure.
package main

import (
	"context"
	"fmt"

	"gpsdl/internal/checkpoint"
	"gpsdl/internal/engine"
	"gpsdl/internal/eval"
	"gpsdl/internal/geo"
	"gpsdl/internal/scenario"
)

// benchSolver is the recovery benchmark's primary solver: the paper's
// headline algorithm.
const benchSolver = "dlg"

// recoveryBenchConfig sizes the -recovery benchmark.
type recoveryBenchConfig struct {
	receivers int
	cut       int // epoch the serving process dies at
	epochs    int // total epochs; [cut, epochs) is the measured window
	seed      int64
	jsonPath  string
}

// recoveryArm summarizes one restart strategy over the post-cut window.
type recoveryArm struct {
	Arm string `json:"arm"` // "cold" | "restored"
	// RecoveryEpochs is how many epochs past the cut the slowest
	// receiver needed before its primary solver produced a fix again
	// (-1: some receiver never recovered). The cold arm pays the clock
	// predictor's full calibration window here; the restored arm should
	// be at or near zero.
	RecoveryEpochs int `json:"recovery_epochs"`
	// FirstPrimaryFix is the absolute epoch of each receiver's first
	// post-cut primary-solver fix (-1: never).
	FirstPrimaryFix []int `json:"first_primary_fix"`
	// Fixes and MeanErrorM cover every non-coast fix in the window,
	// fallback fixes included — exactly what a client would have seen.
	Fixes      uint64  `json:"fixes"`
	MeanErrorM float64 `json:"mean_error_m"`
}

// recoveryReport is the -recovery-json document.
type recoveryReport struct {
	Benchmark string `json:"benchmark"`
	Solver    string `json:"solver"`
	Receivers int    `json:"receivers"`
	CutEpoch  int    `json:"cut_epoch"`
	Epochs    int    `json:"epochs"`
	Seed      int64  `json:"seed"`
	// CheckpointBytes is the encoded checkpoint's size, header included.
	CheckpointBytes  int         `json:"checkpoint_bytes"`
	RestoredSessions int         `json:"restored_sessions"`
	Cold             recoveryArm `json:"cold"`
	Restored         recoveryArm `json:"restored"`
	// EtaPct is eq. 5-2 applied to the two arms (100·d_restored/d_cold):
	// below 100 means the restored arm was more accurate over the window.
	EtaPct float64 `json:"eta_pct"`
	// RecoveryAdvantageEpochs is the warm-up the checkpoint saved:
	// cold recovery epochs minus restored recovery epochs.
	RecoveryAdvantageEpochs int `json:"recovery_advantage_epochs"`
}

// recoveryCollector accumulates per-receiver outcomes. Each receiver is
// owned by exactly one shard, so indexing by receiver is race-free.
type recoveryCollector struct {
	primary string // FixEvent.Solver of a primary fix, set once the engine is built
	truth   []geo.ECEF
	first   []int // epoch of the first primary fix, -1 until seen
	sumErr  []float64
	fixes   []uint64
}

func newRecoveryCollector(truth []geo.ECEF) *recoveryCollector {
	c := &recoveryCollector{
		truth:  truth,
		first:  make([]int, len(truth)),
		sumErr: make([]float64, len(truth)),
		fixes:  make([]uint64, len(truth)),
	}
	for i := range c.first {
		c.first[i] = -1
	}
	return c
}

func (c *recoveryCollector) sink(e engine.FixEvent) {
	if e.Err != nil || e.Coast {
		return
	}
	r := e.Receiver
	if c.first[r] < 0 && e.Solver == c.primary {
		c.first[r] = e.Epoch
	}
	c.sumErr[r] += e.Sol.Pos.DistanceTo(c.truth[r])
	c.fixes[r]++
}

// arm folds the collector into the report form, over every receiver.
func (c *recoveryCollector) arm(name string, cut int) recoveryArm {
	a := recoveryArm{Arm: name, FirstPrimaryFix: c.first}
	var sum float64
	never := false
	for r := range c.first {
		a.Fixes += c.fixes[r]
		sum += c.sumErr[r]
		if c.first[r] < 0 {
			never = true
		} else if d := c.first[r] - cut; d > a.RecoveryEpochs {
			a.RecoveryEpochs = d
		}
	}
	if never {
		a.RecoveryEpochs = -1
	}
	if a.Fixes > 0 {
		a.MeanErrorM = sum / float64(a.Fixes)
	}
	return a
}

// runRecoveryBench runs the kill-and-restart experiment and prints (and
// optionally writes) the comparison.
func runRecoveryBench(cfg recoveryBenchConfig) error {
	stations := scenario.Table51Stations()
	truth := make([]geo.ECEF, cfg.receivers)
	for r := range truth {
		truth[r] = stations[r%len(stations)].Pos
	}
	base := engine.Config{
		Receivers: cfg.receivers,
		Solver:    benchSolver,
		Seed:      cfg.seed,
		Stations:  stations,
	}
	ctx := context.Background()

	// Serve until the cut, then checkpoint the dying process's state.
	serving, err := engine.New(base)
	if err != nil {
		return err
	}
	if err := serving.Run(ctx, cfg.cut); err != nil {
		return err
	}
	data, err := checkpoint.Encode(serving.SnapshotFinal())
	if err != nil {
		return err
	}
	loaded, err := checkpoint.Decode(data)
	if err != nil {
		return err
	}

	runArm := func(name string, restore *checkpoint.State) (recoveryArm, int, error) {
		col := newRecoveryCollector(truth)
		c := base
		c.Sink = col.sink
		eng, err := engine.New(c)
		if err != nil {
			return recoveryArm{}, 0, err
		}
		// The fallback-chain member name FixEvent.Solver reports for the
		// benchSolver primary, as the engine built it.
		col.primary = eng.PrimarySolver()
		restored := 0
		if restore != nil {
			if restored, err = eng.Restore(restore); err != nil {
				return recoveryArm{}, 0, err
			}
		}
		if err := eng.RunRange(ctx, cfg.cut, cfg.epochs); err != nil {
			return recoveryArm{}, 0, err
		}
		return col.arm(name, cfg.cut), restored, nil
	}
	cold, _, err := runArm("cold", nil)
	if err != nil {
		return fmt.Errorf("cold arm: %w", err)
	}
	restoredArm, nRestored, err := runArm("restored", loaded)
	if err != nil {
		return fmt.Errorf("restored arm: %w", err)
	}

	report := recoveryReport{
		Benchmark:        "recovery",
		Solver:           benchSolver,
		Receivers:        cfg.receivers,
		CutEpoch:         cfg.cut,
		Epochs:           cfg.epochs,
		Seed:             cfg.seed,
		CheckpointBytes:  len(data),
		RestoredSessions: nRestored,
		Cold:             cold,
		Restored:         restoredArm,
		EtaPct:           eval.AccuracyRate(restoredArm.MeanErrorM, cold.MeanErrorM),
	}
	if cold.RecoveryEpochs >= 0 && restoredArm.RecoveryEpochs >= 0 {
		report.RecoveryAdvantageEpochs = cold.RecoveryEpochs - restoredArm.RecoveryEpochs
	}
	fmt.Printf("recovery: solver=%s receivers=%d cut=%d window=[%d,%d) checkpoint=%dB\n",
		benchSolver, cfg.receivers, cfg.cut, cfg.cut, cfg.epochs, len(data))
	fmt.Printf("%10s %16s %12s %14s\n", "arm", "recovery_epochs", "fixes", "mean_error_m")
	for _, a := range []recoveryArm{cold, restoredArm} {
		fmt.Printf("%10s %16d %12d %14.3f\n", a.Arm, a.RecoveryEpochs, a.Fixes, a.MeanErrorM)
	}
	fmt.Printf("eta (restored vs cold, eq. 5-2 scale) = %.1f%%, warm-up saved = %d epochs\n",
		report.EtaPct, report.RecoveryAdvantageEpochs)
	if cfg.jsonPath != "" {
		return writeReport(cfg.jsonPath, report)
	}
	return nil
}
