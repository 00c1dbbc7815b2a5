package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpsdl/internal/clock"
	"gpsdl/internal/telemetry"
)

// collect runs an engine over epochs and returns each receiver's output
// sequence as strings ("epoch:GGA" or "epoch:err"). Receivers never share
// a shard slot, so writing to out[e.Receiver] from the sink is race-free.
func collect(t *testing.T, receivers, workers, batch, epochs int) [][]string {
	t.Helper()
	out := make([][]string, receivers)
	eng, err := New(Config{
		Receivers: receivers,
		Workers:   workers,
		BatchSize: batch,
		Seed:      42,
		Sink: func(e FixEvent) {
			if e.Err != nil {
				out[e.Receiver] = append(out[e.Receiver], fmt.Sprintf("%d:err:%v", e.Epoch, e.Err))
				return
			}
			out[e.Receiver] = append(out[e.Receiver], fmt.Sprintf("%d:%s", e.Epoch, e.GGA))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEngineDeterminism is the engine's core guarantee: per-receiver
// output sequences do not depend on worker count or batch size.
func TestEngineDeterminism(t *testing.T) {
	const receivers, epochs = 4, 90
	ref := collect(t, receivers, 1, 32, epochs)
	for _, alt := range []struct{ workers, batch int }{{4, 32}, {2, 7}, {4, 1}} {
		got := collect(t, receivers, alt.workers, alt.batch, epochs)
		for r := 0; r < receivers; r++ {
			if len(got[r]) != len(ref[r]) {
				t.Fatalf("workers=%d batch=%d receiver %d: %d events, want %d",
					alt.workers, alt.batch, r, len(got[r]), len(ref[r]))
			}
			for i := range ref[r] {
				if got[r][i] != ref[r][i] {
					t.Fatalf("workers=%d batch=%d receiver %d event %d:\n  got  %s\n  want %s",
						alt.workers, alt.batch, r, i, got[r][i], ref[r][i])
				}
			}
		}
	}
	// Sanity: the run must actually produce fixes once predictors
	// calibrate, not just a wall of errors.
	fixes := 0
	for r := range ref {
		for _, ev := range ref[r] {
			if strings.Contains(ev, ":$") {
				fixes++
			}
		}
	}
	if fixes == 0 {
		t.Fatal("no successful fixes in the reference run")
	}
}

// TestEngineShutdown cancels mid-run and checks the engine winds down
// completely: no leaked goroutines and the batch conservation law
// enqueued == done + aborted.
func TestEngineShutdown(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var events atomic.Uint64
	var once sync.Once
	eng, err := New(Config{
		Receivers: 6,
		Workers:   3,
		BatchSize: 4,
		Seed:      7,
		Sink: func(e FixEvent) {
			events.Add(1)
			// Cancel from inside the run, guaranteed mid-batch.
			if events.Load() > 40 {
				once.Do(cancel)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	runErr := eng.Run(ctx, 100000)
	if runErr != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", runErr)
	}
	st := eng.Stats()
	if !st.BatchesConserved() {
		t.Errorf("batch conservation violated: enqueued %d != done %d + aborted %d + drained %d",
			st.BatchesEnqueued, st.BatchesDone, st.BatchesAborted, st.BatchesDrained)
	}
	if st.BatchesAborted == 0 {
		t.Error("cancellation mid-run aborted no batches")
	}
	if got := st.Fixes + st.CoastFixes + st.SolveFailures + st.EpochErrors; got != events.Load() {
		t.Errorf("event conservation violated: fixes %d + coast %d + failures %d + errors %d != %d sink calls",
			st.Fixes, st.CoastFixes, st.SolveFailures, st.EpochErrors, events.Load())
	}
	// All shard goroutines must exit promptly after Run returns.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutine leak: %d after shutdown, baseline %d", n, baseline)
	}
}

// TestEngineRunPaced drives the paced mode: every delivered tick either
// schedules an epoch on each shard or bumps the skipped-ticks counter.
func TestEngineRunPaced(t *testing.T) {
	eng, err := New(Config{Receivers: 2, Workers: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ticks := make(chan time.Time)
	done := make(chan error, 1)
	go func() { done <- eng.RunPaced(context.Background(), ticks) }()
	const n = 50
	for i := 0; i < n; i++ {
		ticks <- time.Time{}
	}
	close(ticks)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	// n ticks × 2 shards, each either enqueued or skipped.
	if got := st.BatchesEnqueued + st.SkippedTicks; got != 2*n {
		t.Errorf("paced accounting: enqueued %d + skipped %d = %d, want %d",
			st.BatchesEnqueued, st.SkippedTicks, got, 2*n)
	}
	if st.BatchesEnqueued != st.BatchesDone+st.BatchesAborted {
		t.Errorf("batch conservation violated: enqueued %d != done %d + aborted %d",
			st.BatchesEnqueued, st.BatchesDone, st.BatchesAborted)
	}
}

// TestEngineHotPathZeroAlloc pins the tentpole property: with a
// calibrated predictor, a session step (warm NR solve, predictor update,
// DLG solve, DOP, two NMEA sentences, metrics) performs zero heap
// allocations, on pregenerated epochs and on live ones alike. A live
// step is measured once each epoch's constellation snapshot is cached,
// as the shard warms it before stepping its sessions.
func TestEngineHotPathZeroAlloc(t *testing.T) {
	for _, solver := range []string{"nr", "dlo", "dlg", "bancroft"} {
		t.Run(solver, func(t *testing.T) {
			for _, live := range []bool{false, true} {
				eng, err := New(Config{Receivers: 1, Workers: 1, Solver: solver, Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				const warm, measured = 300, 120
				if !live {
					if err := eng.Pregenerate(warm + measured + 10); err != nil {
						t.Fatal(err)
					}
				}
				s := eng.sessions[0]
				for i := 0; i < warm; i++ {
					s.step(i)
				}
				if live {
					// AllocsPerRun makes one extra warm-up call.
					for i := warm; i <= warm+measured; i++ {
						if _, err := eng.cache.At(i); err != nil {
							t.Fatal(err)
						}
					}
				}
				i := warm
				if n := testing.AllocsPerRun(measured, func() {
					s.step(i)
					i++
				}); n != 0 {
					t.Errorf("solver %s, live %t: %v allocs per step, want 0", solver, live, n)
				}
			}
		})
	}
}

// TestEngineNoFixEventTime: an epoch past the pregenerated (or
// preloaded) range is a no-fix epoch, and like every other no-fix event
// it carries T = epoch·Step.
func TestEngineNoFixEventTime(t *testing.T) {
	const n, step = 8, 2.5
	var misses []FixEvent
	eng, err := New(Config{Receivers: 1, Workers: 1, Seed: 1, Step: step,
		Sink: func(e FixEvent) {
			if errors.Is(e.Err, errPastPregenerated) {
				misses = append(misses, e)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Pregenerate(n); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), n+2); err != nil {
		t.Fatal(err)
	}
	if len(misses) != 2 {
		t.Fatalf("%d past-the-end events, want 2", len(misses))
	}
	for k, e := range misses {
		if i := n + k; e.Epoch != i || e.T != float64(i)*step {
			t.Errorf("past-the-end event %d: epoch %d T %g, want epoch %d T %g", k, e.Epoch, e.T, i, float64(i)*step)
		}
	}
}

// TestEngineConfigValidation covers the constructor's error paths.
func TestEngineConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("Receivers=0 accepted")
	}
	if _, err := New(Config{Receivers: 1, Solver: "kalman"}); err == nil {
		t.Error("unknown solver accepted")
	}
	eng, err := New(Config{Receivers: 3, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Workers(); got != 3 {
		t.Errorf("workers not clamped to receivers: %d", got)
	}
}

// The engine exports the clock predictor's gps_clock_* counters: each
// session's calibration is counted once, and a restored session keeps
// counting into its own engine's registry.
func TestEngineClockMetrics(t *testing.T) {
	cfg := Config{Receivers: 2, Workers: 1, Seed: 3, Registry: telemetry.NewRegistry()}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), 150); err != nil {
		t.Fatal(err)
	}
	if got := clock.NewMetrics(cfg.Registry).Calibrations.Value(); got != 2 {
		t.Errorf("gps_clock_calibrations_total = %d after 150 epochs, want one per session (2)", got)
	}

	cfg.Registry = telemetry.NewRegistry()
	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Restore(eng.SnapshotFinal()); err != nil {
		t.Fatal(err)
	}
	for _, s := range restored.sessions {
		lp, ok := s.pred.(*clock.LinearPredictor)
		if !ok || lp.Metrics == nil || lp.Metrics != restored.cm.clock {
			t.Errorf("receiver %d predictor %T does not count into the engine's clock metrics", s.recv, s.pred)
		}
	}
}
