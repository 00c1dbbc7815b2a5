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
	"fmt"
	"io"
	"log/slog"
	"net/http"
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
	// built from. Seed, solver, stations and step must match the peers'
	// — engine.Restore enforces it — and Base.Sink must publish fix
	// events to this Node's hub (Node.Publish), or handed-off sessions
	// would be adopted but never served. Receivers/SessionIDs, Registry
	// and the journal/incident/quality hooks are overridden per
	// adoption.
	Base engine.Config
	// Rate is the paced serving rate (epochs per second) for adopted
	// engines; ≤ 0 means 1.
	Rate float64
	// Hub is the fan-out the node publishes into and serves from; nil
	// builds one with default sizes.
	Hub *wire.Hub
	// Registry receives the node's cluster metrics; nil disables them.
	Registry *telemetry.Registry
	// Log, when set, receives adoption and restore events.
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

// NewNode builds a Node whose adopted engines run until ctx ends.
func NewNode(ctx context.Context, cfg NodeConfig) *Node {
	if cfg.Rate <= 0 {
		cfg.Rate = 1
	}
	if cfg.Hub == nil {
		cfg.Hub = wire.NewHub(wire.HubConfig{})
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

// Track registers an externally built engine (the primary) with the
// node: its sessions are marked hosted on the hub and its state joins
// the merged checkpoint.
func (n *Node) Track(eng *engine.Engine) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.trackLocked(eng)
}

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

// mergeSnapshots unions per-engine checkpoints into one node-wide
// state. Engines refresh their checkpoint cells at the same absolute
// epoch boundaries, so records normally agree on the epoch; a record
// lagging the newest boundary (an engine adopted moments ago) is
// dropped rather than kept — restoring old clock state and then
// fast-forwarding past the missing epochs would silently diverge,
// while a dropped record cold-starts loudly on the next failover.
func mergeSnapshots(snaps []*checkpoint.State) *checkpoint.State {
	out := &checkpoint.State{}
	for i, s := range snaps {
		if i == 0 {
			out.Solver, out.Seed, out.Step = s.Solver, s.Seed, s.Step
		}
		if s.Epoch > out.Epoch {
			out.Epoch = s.Epoch
		}
	}
	for _, s := range snaps {
		for i := range s.Sessions {
			if s.Sessions[i].Epoch == out.Epoch {
				out.Sessions = append(out.Sessions, s.Sessions[i])
			}
		}
	}
	out.Receivers = len(out.Sessions)
	return out
}

// Snapshot merges the periodic lock-free checkpoints of every hosted
// engine — what /cluster/checkpoint serves and the proxy caches.
func (n *Node) Snapshot() *checkpoint.State {
	n.mu.Lock()
	defer n.mu.Unlock()
	snaps := make([]*checkpoint.State, 0, len(n.engines))
	for _, e := range n.engines {
		snaps = append(snaps, e.Snapshot())
	}
	return mergeSnapshots(snaps)
}

// SnapshotFinal merges exact quiescent checkpoints; callers must first
// stop every run (primary and Wait() for adopted).
func (n *Node) SnapshotFinal() *checkpoint.State {
	n.mu.Lock()
	defer n.mu.Unlock()
	snaps := make([]*checkpoint.State, 0, len(n.engines))
	for _, e := range n.engines {
		snaps = append(snaps, e.SnapshotFinal())
	}
	return mergeSnapshots(snaps)
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
		st, err = checkpoint.Decode(ckptData)
		if err != nil {
			out.Outcome, out.Detail = "corrupt", err.Error()
			n.restoreFailures.Inc()
			st = nil
		} else {
			// Defensive filter: only records for the adopted ids, with
			// the Receivers echo rewritten to match the engine below.
			st = st.Filter(ids)
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
	eng, err := build()
	if err != nil {
		return RestoreOutcome{}, fmt.Errorf("cluster: adopt %v: %w", ids, err)
	}
	if st != nil {
		restored, err := eng.Restore(st)
		switch {
		case err != nil:
			// Restore may have half-applied; rebuild cold.
			out.Outcome, out.Detail = "rejected", err.Error()
			n.restoreFailures.Inc()
			if eng, err = build(); err != nil {
				return RestoreOutcome{}, fmt.Errorf("cluster: adopt %v: %w", ids, err)
			}
		case restored == 0:
			out.Detail = "checkpoint held no records for these sessions"
		default:
			out.Outcome, out.Sessions, out.Epoch = "ok", restored, eng.ResumeEpoch()
		}
	}

	if out.Outcome == "ok" {
		// Catch up from the checkpoint to the cluster's resume epoch.
		// Every replayed epoch flows through the sink into the hub's
		// replay ring, so resuming clients bridge the failover without
		// duplicated or silently skipped fixes.
		if err := eng.FastForward(n.ctx, resume); err != nil {
			return RestoreOutcome{}, fmt.Errorf("cluster: adopt %v: fast-forward to %d: %w", ids, resume, err)
		}
	} else {
		eng.SkipTo(resume)
	}

	n.trackLocked(eng)
	n.runs.Add(1)
	go n.pace(eng)
	n.handoffs.Inc()
	n.adopted.Add(uint64(len(ids)))
	if n.cfg.Log != nil {
		n.cfg.Log.Info("sessions adopted", "sessions", ids, "outcome", out.Outcome,
			"restored", out.Sessions, "resume", resume, "detail", out.Detail)
	}
	n.report(out)
	return out, nil
}

func (n *Node) report(out RestoreOutcome) {
	if n.cfg.OnRestore != nil {
		n.cfg.OnRestore(out)
	}
}

// pace drives one adopted engine at the node serving rate until the
// node context ends.
func (n *Node) pace(eng *engine.Engine) {
	defer n.runs.Done()
	t := time.NewTicker(time.Duration(float64(time.Second) / n.cfg.Rate))
	defer t.Stop()
	if err := eng.RunPaced(n.ctx, t.C); err != nil && n.ctx.Err() == nil && n.cfg.Log != nil {
		n.cfg.Log.Error("adopted engine stopped", "err", err)
	}
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
	body := struct {
		Engines  int                `json:"engines"`
		Sessions []wire.SessionInfo `json:"sessions"`
	}{}
	n.mu.Lock()
	body.Engines = len(n.engines)
	n.mu.Unlock()
	body.Sessions = n.Hub.Sessions()
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
