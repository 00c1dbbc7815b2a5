package engine

import (
	"context"
	"fmt"

	"gpsdl/internal/checkpoint"
)

// header fills the configuration-echo fields of a checkpoint state, so
// Restore can refuse a checkpoint taken under an incompatible run.
func (e *Engine) header() *checkpoint.State {
	return &checkpoint.State{
		Solver:    e.cfg.Solver,
		Seed:      e.cfg.Seed,
		Step:      e.cfg.Step,
		Receivers: e.cfg.Receivers,
	}
}

// Snapshot assembles a checkpoint from the sessions' lock-free cells.
// Safe to call from any goroutine while a run is in flight; requires
// Config.CheckpointEvery > 0 (otherwise the cells are never refreshed
// and the snapshot is empty). Sessions that have not completed a refresh
// interval yet are omitted — they had nothing worth persisting.
func (e *Engine) Snapshot() *checkpoint.State {
	st := e.header()
	for _, s := range e.sessions {
		cs := s.ckpt.Load()
		if cs == nil {
			continue
		}
		st.Sessions = append(st.Sessions, *cs)
		if cs.Epoch > st.Epoch {
			st.Epoch = cs.Epoch
		}
	}
	return st
}

// SnapshotFinal assembles an exact checkpoint by reading session state
// directly. It must only be called while no run is in flight (before the
// first run, or after Run/RunPaced has returned) — it takes no locks.
// The graceful-drain path uses it for the final checkpoint.
func (e *Engine) SnapshotFinal() *checkpoint.State {
	st := e.header()
	for _, s := range e.sessions {
		cs := s.snapshot(s.nextEpoch)
		st.Sessions = append(st.Sessions, *cs)
		if cs.Epoch > st.Epoch {
			st.Epoch = cs.Epoch
		}
	}
	return st
}

// Restore loads a checkpoint into a freshly built engine, before any
// run: per-session clock calibration (skipping the NR warm-up window the
// paper prices as the expensive recalibration case), last good fix, and
// health state. RunPaced resumes at the checkpoint epoch; batch mode
// should use RunRange(ctx, st.Epoch, end). It returns the number of
// sessions restored, or an error for a mismatch — after which earlier
// records may already be applied: a cold start needs a fresh engine.
func (e *Engine) Restore(st *checkpoint.State) (int, error) {
	if st.Solver != e.cfg.Solver || st.Seed != e.cfg.Seed ||
		st.Step != e.cfg.Step || st.Receivers != e.cfg.Receivers {
		return 0, fmt.Errorf("engine: checkpoint for (solver=%s seed=%d step=%g receivers=%d), running (solver=%s seed=%d step=%g receivers=%d)",
			st.Solver, st.Seed, st.Step, st.Receivers,
			e.cfg.Solver, e.cfg.Seed, e.cfg.Step, e.cfg.Receivers)
	}
	byID := make(map[int]*session, len(e.sessions))
	for _, s := range e.sessions {
		byID[s.recv] = s
	}
	restored := 0
	for i := range st.Sessions {
		cs := &st.Sessions[i]
		// Checkpoint records are keyed by global receiver id; records
		// for sessions this engine does not host are skipped (a handoff
		// may filter the state, or hand a superset to a subset engine).
		s, ok := byID[cs.Receiver]
		if !ok {
			continue
		}
		if err := s.restore(cs); err != nil {
			return restored, err
		}
		restored++
	}
	e.resume = st.Epoch
	return restored, nil
}

// FastForward advances the engine from its restore point to epoch `to`
// by running the full solve path unpaced over [ResumeEpoch, to) — the
// session-migration catch-up: a survivor that restored a dead node's
// periodic checkpoint at epoch C replays C..head so its predictor,
// breaker and fix state land exactly where the dead node's were, and
// every replayed epoch flows through the Sink (the wire hub's replay
// ring plus client ack filtering turn those into dedup-able frames,
// never duplicate deliveries). Must be called before RunPaced; no-op
// when to ≤ ResumeEpoch.
func (e *Engine) FastForward(ctx context.Context, to int) error {
	if to <= e.resume {
		return nil
	}
	if err := e.RunRange(ctx, e.resume, to); err != nil {
		return err
	}
	e.resume = to
	return nil
}

// SkipTo moves the resume point forward without computing the skipped
// epochs — the graceful-degradation fallback when a handed-off
// checkpoint cannot be restored: the adopting node cold-starts the
// sessions at the cluster's current epoch instead of refusing them
// (the clients see a declared gap plus the NR re-warm-up, not a dead
// session). Must be called before any run; no-op when epoch is behind
// the current resume point.
func (e *Engine) SkipTo(epoch int) {
	if epoch > e.resume {
		e.resume = epoch
	}
}

// ResumeEpoch reports the epoch index RunPaced will start from (set by
// Restore; 0 on a cold engine).
func (e *Engine) ResumeEpoch() int { return e.resume }
