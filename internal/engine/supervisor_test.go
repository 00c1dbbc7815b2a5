package engine

import (
	"context"
	"math"
	"sync"
	"testing"

	"gpsdl/internal/checkpoint"
	"gpsdl/internal/fault"
)

// recorder captures every sink event, keyed by (receiver, epoch), with
// copies of the NMEA bytes (the originals are session-owned buffers).
type recorder struct {
	mu     sync.Mutex
	gga    map[[2]int]string
	states map[[2]int]SessionState
	events int
}

func newRecorder() *recorder {
	return &recorder{gga: make(map[[2]int]string), states: make(map[[2]int]SessionState)}
}

func (rc *recorder) sink(e FixEvent) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.events++
	k := [2]int{e.Receiver, e.Epoch}
	rc.gga[k] = string(e.GGA)
	rc.states[k] = e.State
}

// checkEventConservation asserts the supervised event law: every epoch
// of every receiver produced exactly one sink call, accounted to exactly
// one of the outcome counters.
func checkEventConservation(t *testing.T, st Stats, events int) {
	t.Helper()
	got := st.Fixes + st.CoastFixes + st.SolveFailures + st.EpochErrors +
		st.Panics + st.QuarantinedEpochs + st.FailedEpochs
	if got != uint64(events) {
		t.Errorf("event conservation violated: fixes %d + coast %d + failures %d + errors %d + panics %d + quarantined %d + failed %d = %d != %d sink calls",
			st.Fixes, st.CoastFixes, st.SolveFailures, st.EpochErrors,
			st.Panics, st.QuarantinedEpochs, st.FailedEpochs, got, events)
	}
}

// TestEnginePanicIsolation is the tentpole's isolation guarantee: one
// receiver with an injected panic is quarantined, restarted, and
// recovers, while every other receiver's fix stream stays bit-identical
// to a clean run — including the panicking receiver's shard neighbour.
func TestEnginePanicIsolation(t *testing.T) {
	// 50 epochs keeps every predictor inside its 60-fix warm-up window,
	// so the three warm fixes receiver 2 loses to the panic cannot shift
	// its later solutions — recovery must be bit-identical too. (Past
	// calibration the lost fixes would legitimately perturb DLG output.)
	const epochs = 50
	base := Config{Receivers: 4, Workers: 2, Seed: 11, BatchSize: 8}

	clean := newRecorder()
	cfg := base
	cfg.Sink = clean.sink
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}

	chaos := newRecorder()
	cfg = base
	cfg.Sink = chaos.sink
	cfg.ReceiverFaults = func(r int) fault.Program {
		if r != 2 {
			return nil
		}
		return fault.Program{{Kind: fault.KindPanic, From: 10, Until: 13}}
	}
	eng2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	st := eng2.Stats()

	// Panic at epoch 10 → restart with backoff 2 → epochs 11, 12
	// quarantined → epoch 13 (outside the fault window) steps cleanly.
	if st.Panics != 1 || st.Restarts != 1 || st.QuarantinedEpochs != 2 || st.FailedEpochs != 0 {
		t.Errorf("supervision counters = panics %d restarts %d quarantined %d failed %d, want 1/1/2/0",
			st.Panics, st.Restarts, st.QuarantinedEpochs, st.FailedEpochs)
	}
	checkEventConservation(t, st, chaos.events)

	// Isolation: receivers 0, 1, 3 bit-identical to the clean run.
	for _, r := range []int{0, 1, 3} {
		for i := 0; i < epochs; i++ {
			k := [2]int{r, i}
			if clean.gga[k] != chaos.gga[k] {
				t.Fatalf("receiver %d epoch %d diverged under neighbour panic:\n  clean %q\n  chaos %q",
					r, i, clean.gga[k], chaos.gga[k])
			}
		}
	}
	// Recovery: receiver 2 produces normal fixes again after quarantine,
	// identical to its own clean-run fixes (the predictor survived).
	for i := 13; i < epochs; i++ {
		k := [2]int{2, i}
		if clean.gga[k] != chaos.gga[k] {
			t.Fatalf("receiver 2 epoch %d did not recover to the clean stream:\n  clean %q\n  chaos %q",
				i, clean.gga[k], chaos.gga[k])
		}
	}
	// Pre-calibration both runs ride the NR fallback (degraded); the
	// point is the chaos run ends in the same place, not quarantined or
	// failed.
	last := [2]int{2, epochs - 1}
	if chaos.states[last] != clean.states[last] {
		t.Errorf("receiver 2 final state %v, clean run says %v", chaos.states[last], clean.states[last])
	}
}

// TestEngineRestartBudget drives a permanently panicking session through
// its whole restart budget into StateFailed, checking the exponential
// backoff arithmetic and the failed-session census.
func TestEngineRestartBudget(t *testing.T) {
	const epochs = 50
	rec := newRecorder()
	eng, err := New(Config{
		Receivers:     1,
		Seed:          3,
		RestartBudget: 2,
		Sink:          rec.sink,
		Faults:        fault.Program{{Kind: fault.KindPanic, From: 0, Until: math.Inf(1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	// Panic at 0 (backoff 2: quarantine 1–2), panic at 3 (backoff 4:
	// quarantine 4–7), panic at 8 exhausts the budget → failed for the
	// remaining 41 epochs.
	if st.Panics != 3 || st.Restarts != 2 {
		t.Errorf("panics %d restarts %d, want 3/2", st.Panics, st.Restarts)
	}
	if st.QuarantinedEpochs != 6 || st.FailedEpochs != 41 {
		t.Errorf("quarantined %d failed %d, want 6/41", st.QuarantinedEpochs, st.FailedEpochs)
	}
	if st.Fixes != 0 || st.CoastFixes != 0 {
		t.Errorf("a permanently panicking session produced %d fixes, %d coasts", st.Fixes, st.CoastFixes)
	}
	checkEventConservation(t, st, rec.events)
	sh := eng.ShardHealth()
	if len(sh) != 1 || sh[0].Failed != 1 || sh[0].Healthy != 0 {
		t.Errorf("shard census = %+v, want 1 failed session", sh)
	}
}

// TestEngineBreakerDefault: every epoch runs the full chain, so the
// breaker opens after K consecutive failures, stays open through the
// outage, closes on the first success — and the fix/coast counts match
// the breaker-free arithmetic exactly.
func TestEngineBreakerDefault(t *testing.T) {
	const epochs = 200
	rec := newRecorder()
	eng, err := New(Config{
		Receivers: 1,
		Seed:      5,
		Sink:      rec.sink,
		// Occlusion to 3 satellites for epochs [40, 120): no solver can
		// fix, the session coasts on its clock model.
		Faults: fault.Program{{Kind: fault.KindShrink, N: 3, From: 40, Until: 120}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.CoastFixes != 80 {
		t.Errorf("CoastFixes = %d, want 80 (the breaker must not change outcomes)", st.CoastFixes)
	}
	if st.BreakerOpens != 1 {
		t.Errorf("BreakerOpens = %d, want 1 (failures 40–47 trip K=8)", st.BreakerOpens)
	}
	sh := eng.ShardHealth()
	if sh[0].BreakerOpen != 0 {
		t.Error("breaker still open after recovery")
	}
	if got := rec.states[[2]int{0, epochs - 1}]; got != StateHealthy {
		t.Errorf("final state %v, want healthy", got)
	}
	checkEventConservation(t, st, rec.events)
}

// TestEngineCheckpointRestore is the recovery tentpole's core law: an
// engine restored from a (serialized) checkpoint at epoch E and run over
// [E, N) produces bit-identical output to an uninterrupted engine over
// [0, N) on those epochs — no NR re-warm-up, no divergence.
func TestEngineCheckpointRestore(t *testing.T) {
	const cut, end = 200, 300
	base := Config{Receivers: 3, Workers: 3, Seed: 5, CheckpointEvery: 50}

	// Arm A: run [0, cut), checkpoint, serialize through the file codec.
	cfg := base
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(context.Background(), cut); err != nil {
		t.Fatal(err)
	}
	if cells := a.Snapshot(); len(cells.Sessions) != base.Receivers {
		t.Fatalf("lock-free Snapshot has %d sessions, want %d", len(cells.Sessions), base.Receivers)
	}
	stateA := a.SnapshotFinal()
	if stateA.Epoch != cut {
		t.Fatalf("final snapshot epoch %d, want %d", stateA.Epoch, cut)
	}
	data, err := checkpoint.Encode(stateA)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}

	// Arm B: fresh engine, restore, run the tail.
	restoredRec := newRecorder()
	cfg = base
	cfg.Sink = restoredRec.sink
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := b.Restore(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if n != base.Receivers {
		t.Fatalf("restored %d sessions, want %d", n, base.Receivers)
	}
	if b.ResumeEpoch() != cut {
		t.Errorf("ResumeEpoch = %d, want %d", b.ResumeEpoch(), cut)
	}
	if err := b.RunRange(context.Background(), cut, end); err != nil {
		t.Fatal(err)
	}

	// Arm C: uninterrupted control run [0, end).
	controlRec := newRecorder()
	cfg = base
	cfg.Sink = controlRec.sink
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background(), end); err != nil {
		t.Fatal(err)
	}

	for r := 0; r < base.Receivers; r++ {
		for i := cut; i < end; i++ {
			k := [2]int{r, i}
			if restoredRec.gga[k] != controlRec.gga[k] {
				t.Fatalf("receiver %d epoch %d diverged after restore:\n  restored %q\n  control  %q",
					r, i, restoredRec.gga[k], controlRec.gga[k])
			}
		}
	}
}

// TestEngineRestoreMismatch: a checkpoint from an incompatible
// configuration is refused, leaving the engine cold.
func TestEngineRestoreMismatch(t *testing.T) {
	a, err := New(Config{Receivers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	state := a.SnapshotFinal()

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"seed", Config{Receivers: 2, Seed: 6}},
		{"receivers", Config{Receivers: 3, Seed: 5}},
		{"solver", Config{Receivers: 2, Seed: 5, Solver: "nr"}},
		{"step", Config{Receivers: 2, Seed: 5, Step: 30}},
	} {
		b, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Restore(state); err == nil {
			t.Errorf("%s mismatch: Restore accepted an incompatible checkpoint", tc.name)
		}
		if b.ResumeEpoch() != 0 {
			t.Errorf("%s mismatch: refused restore still moved the resume epoch", tc.name)
		}
	}
}
