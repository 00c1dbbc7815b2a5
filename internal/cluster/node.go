// Node-side cluster serving: one Node owns the wire hub plus every fix
// engine serving sessions on this process — the primary engine built
// from the launch flags and one adopted engine per accepted checkpoint
// handoff. The HTTP handlers it exposes under /cluster/* are the
// control plane a gpsproxy drives:
//
//	GET  /cluster/sessions    hosted sessions and their stream heads
//	GET  /cluster/checkpoint  merged periodic checkpoint (file codec)
//	POST /cluster/handoff     adopt sessions from a dead peer
//
// A handoff never refuses: a checkpoint that is corrupt, rejected by
// the engine, or simply absent degrades to a cold start at the
// requested resume epoch — the adopting node reports the downgrade
// (and counts it on gps_restore_failures_total) instead of leaving the
// sessions homeless.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpsdl/internal/checkpoint"
	"gpsdl/internal/engine"
	"gpsdl/internal/telemetry"
	"gpsdl/internal/wire"
)

// RestoreOutcome records how a checkpoint restore attempt ended — the
// satellite observability for both the startup -restore path and every
// handoff adoption.
type RestoreOutcome struct {
	// Outcome is one of:
	//   ok         — sessions restored, fast-forwarded to the resume epoch
	//   cold-start — no usable checkpoint; sessions start cold at resume
	//   corrupt    — checkpoint bytes failed decoding; cold start
	//   rejected   — engine refused the checkpoint (config mismatch); cold start
	//   duplicate  — every requested session is already hosted here; no-op
	Outcome string `json:"outcome"`
	// Detail carries the error behind a non-ok outcome.
	Detail string `json:"detail,omitempty"`
	// Sessions is how many session records were actually restored.
	Sessions int `json:"sessions"`
	// Epoch is the epoch the adopted engine resumed (or cold-started) at.
	Epoch int `json:"epoch"`
}

// NodeConfig configures a serving Node.
type NodeConfig struct {
	// Base is the engine configuration template adopted engines are
	// built from. Restore checks its solver, seed and step, and each
	// session's station, against a checkpoint; it does not check
	// weighting, disruption or the fault program, so peers must agree
	// on those too. Base.Sink must publish fix events to this Node's hub
	// (Node.Publish), or handed-off sessions would be adopted but never
	// served. Adopted engines get their own SessionIDs and run without
	// Registry, journal, incident hook or quality windows.
	Base engine.Config
	// Rate is the paced serving rate (epochs per second) for adopted
	// engines; ≤ 0 means 1.
	Rate float64
	// Hub is the fan-out the node publishes into and serves from; nil
	// builds one with default sizes.
	Hub *wire.Hub
	// Registry receives the node's cluster metrics; nil disables them.
	Registry *telemetry.Registry
	// Log, when set, receives restore outcomes and engine stop
	// summaries.
	Log *slog.Logger
	// OnRestore, when set, observes every restore outcome (the
	// /debug/status surface hook).
	OnRestore func(RestoreOutcome)
}

// Node is the per-process cluster serving state.
type Node struct {
	// Hub is the wire fan-out every hosted engine publishes into.
	Hub *wire.Hub

	cfg NodeConfig
	ctx context.Context

	restoreFailures *telemetry.Counter
	handoffs        *telemetry.Counter
	adopted         *telemetry.Counter

	mu      sync.Mutex
	engines []*engine.Engine
	runs    sync.WaitGroup
}

// NewNode builds a Node whose engines run until ctx ends.
func NewNode(ctx context.Context, cfg NodeConfig) *Node {
	if cfg.Rate <= 0 {
		cfg.Rate = 1
	}
	if cfg.Hub == nil {
		cfg.Hub = wire.NewHub(wire.HubConfig{})
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := cfg.Registry
	return &Node{
		Hub: cfg.Hub,
		cfg: cfg,
		ctx: ctx,
		restoreFailures: reg.Counter("gps_restore_failures_total",
			"Checkpoint restore attempts that fell back to cold start (corrupt, unreadable, or rejected checkpoints)."),
		handoffs: reg.Counter("gps_cluster_handoffs_total",
			"Checkpoint handoffs accepted from a dying peer."),
		adopted: reg.Counter("gps_cluster_adopted_sessions_total",
			"Sessions adopted through checkpoint handoffs."),
	}
}

// Publish encodes one fix event onto the wire hub. It is the piece of
// the serving sink that Base.Sink must include; solve failures publish
// MISS frames so subscribers can tell "no fix this epoch" from a
// stream gap.
func (n *Node) Publish(e engine.FixEvent) {
	f := e.Wire()
	n.Hub.Publish(&f)
}

// trackLocked makes eng one of the node's engines: its sessions are
// marked hosted on the hub and its state joins the merged checkpoint.
func (n *Node) trackLocked(eng *engine.Engine) {
	n.engines = append(n.engines, eng)
	n.Hub.Register(eng.SessionIDs()...)
}

// hostedLocked reports every session id currently hosted by an engine.
func (n *Node) hostedLocked() map[int]bool {
	out := make(map[int]bool)
	for _, e := range n.engines {
		for _, id := range e.SessionIDs() {
			out[id] = true
		}
	}
	return out
}

// Wait blocks until every adopted engine's paced run has returned
// (they stop when the Node's context ends).
func (n *Node) Wait() { n.runs.Wait() }

// hostedState narrows st to the records of ids and moves its epoch
// to the newest of theirs, the restore point: a merged node checkpoint
// holds each engine's records at that engine's own epoch. A handoff
// drops the records behind that epoch: restoring old clock state and
// replaying from the newer epoch would silently diverge from the
// stream the dead peer served, while a dropped record cold-starts
// loudly. A restart serves no peer's stream, so it keeps them; such a
// session skips ahead to the restore point as if it had missed ticks.
func hostedState(st *checkpoint.State, ids []int, handoff bool) *checkpoint.State {
	st = st.Filter(ids)
	st.Epoch = 0
	for _, s := range st.Sessions {
		st.Epoch = max(st.Epoch, s.Epoch)
	}
	if handoff {
		kept := st.Sessions[:0]
		for _, s := range st.Sessions {
			if s.Epoch == st.Epoch {
				kept = append(kept, s)
			}
		}
		st.Sessions = kept
	}
	return st
}

// Snapshot merges the periodic lock-free checkpoints of every hosted
// engine — what /cluster/checkpoint serves, the proxy caches and the
// checkpoint file holds.
func (n *Node) Snapshot() *checkpoint.State { return n.merge((*engine.Engine).Snapshot) }

// SnapshotFinal merges exact quiescent checkpoints; callers must first
// stop every run (the primary's Pace and Wait() for adopted engines).
func (n *Node) SnapshotFinal() *checkpoint.State { return n.merge((*engine.Engine).SnapshotFinal) }

// merge unions one checkpoint per hosted engine into a node-wide
// state. Each engine's records keep their own epochs: nodes count
// epochs from their own boot, so an adopted engine may run far ahead
// of or behind the primary. A restore picks one epoch per hosted set
// (hostedState).
func (n *Node) merge(snapshot func(*engine.Engine) *checkpoint.State) *checkpoint.State {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := &checkpoint.State{}
	for i, e := range n.engines {
		s := snapshot(e)
		if i == 0 {
			out.Solver, out.Seed, out.Step = s.Solver, s.Seed, s.Step
		}
		out.Epoch = max(out.Epoch, s.Epoch)
		out.Sessions = append(out.Sessions, s.Sessions...)
	}
	out.Receivers = len(out.Sessions)
	return out
}

// NodeStatus is the /debug/status cluster block.
type NodeStatus struct {
	Engines         int                `json:"engines"`
	Handoffs        uint64             `json:"handoffs"`
	AdoptedSessions uint64             `json:"adopted_sessions"`
	RestoreFailures uint64             `json:"restore_failures"`
	Hub             wire.HubStats      `json:"hub"`
	Sessions        []wire.SessionInfo `json:"sessions"`
}

// Status snapshots the node's cluster state.
func (n *Node) Status() NodeStatus {
	n.mu.Lock()
	engines := len(n.engines)
	n.mu.Unlock()
	return NodeStatus{
		Engines:         engines,
		Handoffs:        n.handoffs.Value(),
		AdoptedSessions: n.adopted.Value(),
		RestoreFailures: n.restoreFailures.Value(),
		Hub:             n.Hub.Stats(),
		Sessions:        n.Hub.Sessions(),
	}
}

// Host builds the process's own engine with build and tracks it. With
// a non-empty ckptPath its sessions are restored from that file first:
// startup restore is an adoption of the engine's sessions at the
// checkpoint's own epoch, so nothing is fast-forwarded, and a missing,
// corrupt or rejected file degrades to a cold start. build must return
// a fresh engine on every call; it runs again when a checkpoint is not
// restored.
func (n *Node) Host(build func() (*engine.Engine, error), ckptPath string) (*engine.Engine, RestoreOutcome, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ckptPath == "" {
		return n.hostLocked(build, nil, RestoreOutcome{}, 0, false)
	}
	out := RestoreOutcome{Outcome: "cold-start"}
	st, err := checkpoint.Load(ckptPath)
	switch {
	case errors.Is(err, os.ErrNotExist):
		out.Detail = "no checkpoint file" // the normal first boot
	case err != nil:
		out.Outcome, out.Detail = "corrupt", err.Error()
	}
	return n.hostLocked(build, st, out, 0, false)
}

// Adopt takes over the given sessions: decode and restore the
// handed-off checkpoint, fast-forward to the resume epoch, and serve
// them paced from a freshly built engine. Graceful degradation is the
// contract — a missing/corrupt/rejected checkpoint cold-starts the
// sessions at resume instead of refusing them. The error return is
// reserved for configuration bugs (the template engine cannot be
// built at all).
func (n *Node) Adopt(ids []int, resume int, ckptData []byte) (RestoreOutcome, error) {
	n.mu.Lock()
	defer n.mu.Unlock()

	// Idempotency guard: re-adopting a session already hosted here
	// would double-publish its stream. A retried handoff whose first
	// attempt succeeded is a no-op, and partially new requests adopt
	// only the missing sessions.
	hosted := n.hostedLocked()
	fresh := ids[:0:0]
	for _, id := range ids {
		if !hosted[id] {
			fresh = append(fresh, id)
		}
	}
	if len(fresh) == 0 {
		out := RestoreOutcome{Outcome: "duplicate", Detail: "sessions already hosted", Epoch: resume}
		n.report(out)
		return out, nil
	}
	ids = fresh

	// Register before restoring so subscribers racing the handoff
	// attach to the streams and catch the first published frames.
	n.Hub.Register(ids...)

	out := RestoreOutcome{Outcome: "cold-start", Epoch: resume}
	var st *checkpoint.State
	if len(ckptData) > 0 {
		var err error
		if st, err = checkpoint.Decode(ckptData); err != nil {
			out.Outcome, out.Detail = "corrupt", err.Error()
		}
	}
	build := func() (*engine.Engine, error) {
		cfg := n.cfg.Base
		cfg.Receivers = 0
		cfg.SessionIDs = append([]int(nil), ids...)
		cfg.Registry = nil // the primary engine owns the per-shard families
		cfg.JournalSink = nil
		cfg.OnIncident = nil
		cfg.Quality = nil
		return engine.New(cfg)
	}
	eng, out, err := n.hostLocked(build, st, out, resume, true)
	if err != nil {
		return RestoreOutcome{}, fmt.Errorf("cluster: adopt %v: %w", ids, err)
	}
	n.handoffs.Inc()
	n.adopted.Add(uint64(len(ids)))
	n.runs.Add(1)
	go func() {
		defer n.runs.Done()
		t := time.NewTicker(time.Duration(float64(time.Second) / n.cfg.Rate))
		defer t.Stop()
		n.Pace(eng, t.C)
	}()
	return out, nil
}

// hostLocked is the one way an engine joins the node: build it,
// restore st's records for its sessions, rebuild it cold unless that
// restore took, move it to resume (replaying the epochs in between
// after a restore) and track it. out arrives as the outcome of
// obtaining st, empty when no restore was asked for; st is nil when
// there is nothing usable to restore. handoff marks an adoption from
// a peer rather than a restart.
func (n *Node) hostLocked(build func() (*engine.Engine, error), st *checkpoint.State,
	out RestoreOutcome, resume int, handoff bool) (*engine.Engine, RestoreOutcome, error) {
	eng, err := build()
	if err != nil {
		return nil, RestoreOutcome{}, err
	}
	if st != nil {
		restored, err := eng.Restore(hostedState(st, eng.SessionIDs(), handoff))
		switch {
		case err != nil:
			out.Outcome, out.Detail = "rejected", err.Error()
		case restored == 0:
			out.Detail = "checkpoint held no records for these sessions"
		default:
			out.Outcome, out.Sessions, out.Epoch = "ok", restored, eng.ResumeEpoch()
		}
		if out.Outcome != "ok" {
			// A rejected restore may have applied the sessions before
			// the one it refused, and any restore moves the resume
			// point: start over from a cold engine. Closing the
			// journal stops the discarded engine's sync goroutine.
			if jw := eng.Journal(); jw != nil {
				_ = jw.Close()
			}
			if eng, err = build(); err != nil {
				return nil, RestoreOutcome{}, err
			}
		}
	}
	if out.Outcome == "ok" {
		// Catch up from the checkpoint to the resume epoch. Every
		// replayed epoch flows through the sink into the hub's replay
		// ring, so resuming clients bridge a failover without
		// duplicated or silently skipped fixes.
		if err := eng.FastForward(n.ctx, resume); err != nil {
			return nil, RestoreOutcome{}, fmt.Errorf("fast-forward to %d: %w", resume, err)
		}
	} else {
		eng.SkipTo(resume)
	}
	if out.Outcome == "corrupt" || out.Outcome == "rejected" {
		n.restoreFailures.Inc()
	}
	n.trackLocked(eng)
	if out.Outcome == "" {
		return eng, out, nil
	}
	attrs := []any{"handoff", handoff, "sessions", eng.SessionIDs(), "outcome", out.Outcome,
		"restored", out.Sessions, "epoch", out.Epoch, "detail", out.Detail}
	if out.Outcome == "ok" {
		n.cfg.Log.Info("restored from checkpoint", attrs...)
	} else {
		n.cfg.Log.Warn("checkpoint not restored; cold start", attrs...)
	}
	n.report(out)
	return eng, out, nil
}

func (n *Node) report(out RestoreOutcome) {
	if n.cfg.OnRestore != nil {
		n.cfg.OnRestore(out)
	}
}

// Pace drives eng off ticks until the node's context ends or ticks
// closes, then logs the engine's stop summary. It is the node's one
// pacing loop: the primary engine passes its own tick source, adopted
// engines a ticker at Rate.
func (n *Node) Pace(eng *engine.Engine, ticks <-chan time.Time) {
	_ = eng.RunPaced(n.ctx, ticks) // only ever the context's error
	st := eng.Stats()
	n.cfg.Log.Info("engine stopped",
		"fixes", st.Fixes,
		"coast_fixes", st.CoastFixes,
		"solve_failures", st.SolveFailures,
		"epoch_errors", st.EpochErrors,
		"fault_events", st.FaultEvents,
		"fallbacks", st.Fallbacks,
		"suspect_fixes", st.SuspectFixes,
		"raim_exclusions", st.RAIMExclusions,
		"batches_done", st.BatchesDone,
		"batches_aborted", st.BatchesAborted,
		"batches_drained", st.BatchesDrained,
		"batches_conserved", st.BatchesConserved(),
		"skipped_ticks", st.SkippedTicks,
		"panics", st.Panics,
		"restarts", st.Restarts,
		"quarantined_epochs", st.QuarantinedEpochs,
		"failed_epochs", st.FailedEpochs,
		"breaker_opens", st.BreakerOpens)
}

// Routes registers the cluster control-plane handlers on mux.
func (n *Node) Routes(mux *http.ServeMux) {
	mux.HandleFunc("/cluster/sessions", n.SessionsHandler)
	mux.HandleFunc("/cluster/checkpoint", n.CheckpointHandler)
	mux.HandleFunc("/cluster/handoff", n.HandoffHandler)
}

// SessionsHandler serves GET /cluster/sessions: the hosted session ids
// and their latest published epochs.
func (n *Node) SessionsHandler(w http.ResponseWriter, r *http.Request) {
	st := n.Status()
	body := struct {
		Engines  int                `json:"engines"`
		Sessions []wire.SessionInfo `json:"sessions"`
	}{st.Engines, st.Sessions}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(body)
}

// CheckpointHandler serves GET /cluster/checkpoint: the merged node
// checkpoint in file format, ready to Filter and hand to a survivor.
func (n *Node) CheckpointHandler(w http.ResponseWriter, r *http.Request) {
	data, err := checkpoint.Encode(n.Snapshot())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

// HandoffHandler serves POST /cluster/handoff?sessions=1,3&resume=230
// with the filtered checkpoint bytes (possibly empty) as the body.
func (n *Node) HandoffHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	ids, err := ParseSessionIDs(r.URL.Query().Get("sessions"))
	if err != nil {
		http.Error(w, fmt.Sprintf("sessions: %v", err), http.StatusBadRequest)
		return
	}
	resume, err := strconv.Atoi(r.URL.Query().Get("resume"))
	if err != nil || resume < 0 {
		http.Error(w, "resume: want a non-negative epoch", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out, err := n.Adopt(ids, resume, body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(out)
}

// ParseSessionIDs parses a comma-separated list of non-negative,
// unique session ids ("0,2,5") — the -session-ids flag grammar and the
// handoff query format.
func ParseSessionIDs(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("empty session id list")
	}
	parts := strings.Split(s, ",")
	ids := make([]int, 0, len(parts))
	seen := make(map[int]bool, len(parts))
	for _, p := range parts {
		id, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad session id %q", p)
		}
		if id < 0 {
			return nil, fmt.Errorf("negative session id %d", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("duplicate session id %d", id)
		}
		seen[id] = true
		ids = append(ids, id)
	}
	return ids, nil
}
