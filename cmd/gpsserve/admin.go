// Admin HTTP endpoint: /metrics (Prometheus text format), /healthz
// (liveness with last-fix age, broadcaster backpressure and the engine's
// shard census), /debug/status, /debug/incidents, and /debug/pprof/* for
// live profiling. Enabled with -admin addr; everything is stdlib-only.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"gpsdl/internal/cluster"
	"gpsdl/internal/engine"
	"gpsdl/internal/telemetry"
)

// health tracks epoch-loop liveness for /healthz: how many epochs have
// been processed, how many produced broadcast fixes, and how stale the
// latest fix is.
type health struct {
	// maxAge is the last-fix staleness above which the server reports
	// unhealthy; 0 means 10 s.
	maxAge time.Duration

	started      time.Time
	lastFixNanos atomic.Int64 // wall-clock ns of the last fix; 0 = none yet

	// epochs/fixes also back gpsserve_epochs_total / gpsserve_fixes_total.
	epochs *telemetry.Counter
	fixes  *telemetry.Counter
	hdop   *telemetry.Gauge

	// b, when non-nil, contributes broadcaster backpressure (current
	// client count and cumulative drops) to the health JSON, so a
	// degraded broadcaster is visible without scraping /metrics.
	b *Broadcaster

	// shards, when non-nil, contributes the engine's per-shard
	// session-state census so /healthz shows which shards are degraded
	// or coasting under fault injection.
	shards func() []engine.ShardHealth

	// ckptPath, when non-empty, surfaces checkpoint liveness on
	// /healthz: the file path, the epoch of the last successful save,
	// and its wall-clock age.
	ckptPath      string
	lastCkptNanos atomic.Int64 // wall-clock ns of the last save; 0 = none yet
	lastCkptEpoch atomic.Int64

	// draining flips once shutdown starts flushing client queues, so
	// /healthz and /debug/status distinguish a deliberate drain from a
	// stall during the grace window.
	draining atomic.Bool

	// lastRestore holds the most recent checkpoint-restore verdict —
	// startup -restore or a cluster handoff adoption — so a node that
	// silently fell back to cold start is visible on /healthz.
	lastRestore atomic.Pointer[cluster.RestoreOutcome]
}

// newHealth returns a tracker whose instruments are registered in reg
// (nil reg leaves them disabled; liveness still works).
func newHealth(reg *telemetry.Registry, maxAge time.Duration, b *Broadcaster) *health {
	return &health{
		maxAge:  maxAge,
		started: time.Now(),
		epochs:  reg.Counter(metricEpochs, "Epochs pulled from the observation source."),
		fixes:   reg.Counter(metricFixes, "Epochs that produced a broadcast fix."),
		hdop:    reg.Gauge(metricHDOP, "HDOP of the most recent fix."),
		b:       b,
	}
}

// recordEpoch notes one epoch-loop tick.
func (h *health) recordEpoch() {
	if h != nil {
		h.epochs.Inc()
	}
}

// recordFix notes one successful broadcast fix and its HDOP.
func (h *health) recordFix(hdop float64) {
	if h == nil {
		return
	}
	h.fixes.Inc()
	h.hdop.Set(hdop)
	h.lastFixNanos.Store(time.Now().UnixNano())
}

// startDrain marks the server as draining (shutdown flush in progress).
func (h *health) startDrain() {
	if h != nil {
		h.draining.Store(true)
	}
}

// recordRestore notes a checkpoint-restore outcome (startup or handoff).
func (h *health) recordRestore(o cluster.RestoreOutcome) {
	if h != nil {
		h.lastRestore.Store(&o)
	}
}

// recordCheckpoint notes one successful checkpoint save.
func (h *health) recordCheckpoint(epoch int) {
	if h == nil {
		return
	}
	h.lastCkptEpoch.Store(int64(epoch))
	h.lastCkptNanos.Store(time.Now().UnixNano())
}

// checkpointStatus is the /healthz checkpoint block (with -checkpoint
// only).
type checkpointStatus struct {
	Path string `json:"path"`
	// Epoch is the engine epoch of the last successful save; AgeSeconds
	// its wall-clock age (-1 before the first save).
	Epoch      int     `json:"epoch"`
	AgeSeconds float64 `json:"age_seconds"`
}

// healthStatus is the /healthz response body.
type healthStatus struct {
	Status            string  `json:"status"` // ok | starting | stalled
	UptimeSeconds     float64 `json:"uptime_seconds"`
	Epochs            uint64  `json:"epochs"`
	Fixes             uint64  `json:"fixes"`
	LastFixAgeSeconds float64 `json:"last_fix_age_seconds"` // -1 before the first fix
	// Clients and Drops expose broadcaster backpressure: connected NMEA
	// clients right now, and cumulative disconnections for any reason.
	Clients int    `json:"clients"`
	Drops   uint64 `json:"drops"`
	// Draining reports that shutdown is flushing client queues; the
	// server is going away on purpose, not stalled.
	Draining bool `json:"draining,omitempty"`
	// Shards is the engine's per-shard session-state census
	// (healthy / degraded / coasting).
	Shards []engine.ShardHealth `json:"shards,omitempty"`
	// DegradedSessions and CoastingSessions total the census across
	// shards, so a load balancer can alert on one number. The
	// supervision totals below do the same for the isolation machinery:
	// sessions in backoff quarantine after a panic, sessions whose
	// restart budget ran out, sessions behind an open circuit breaker,
	// and the cumulative worker-loop panic / restart counts.
	DegradedSessions    uint64 `json:"degraded_sessions,omitempty"`
	CoastingSessions    uint64 `json:"coasting_sessions,omitempty"`
	QuarantinedSessions uint64 `json:"quarantined_sessions,omitempty"`
	FailedSessions      uint64 `json:"failed_sessions,omitempty"`
	BreakerOpenSessions uint64 `json:"breaker_open_sessions,omitempty"`
	Panics              uint64 `json:"panics,omitempty"`
	Restarts            uint64 `json:"restarts,omitempty"`
	// Checkpoint reports checkpoint liveness when -checkpoint is set.
	Checkpoint *checkpointStatus `json:"checkpoint,omitempty"`
	// Restore is the most recent checkpoint-restore verdict (startup
	// -restore or handoff adoption); absent before any restore attempt.
	Restore *cluster.RestoreOutcome `json:"restore,omitempty"`
}

// status snapshots the current liveness verdict.
func (h *health) status() (healthStatus, int) {
	maxAge := h.maxAge
	if maxAge <= 0 {
		maxAge = 10 * time.Second
	}
	s := healthStatus{
		UptimeSeconds:     time.Since(h.started).Seconds(),
		Epochs:            h.epochs.Value(),
		Fixes:             h.fixes.Value(),
		LastFixAgeSeconds: -1,
		Draining:          h.draining.Load(),
	}
	if h.b != nil {
		// One locked snapshot keeps clients and drops mutually
		// consistent (connects − drops == clients).
		s.Clients, _, s.Drops = h.b.Stats()
	}
	if h.shards != nil {
		s.Shards = h.shards()
		for _, sh := range s.Shards {
			s.DegradedSessions += sh.Degraded
			s.CoastingSessions += sh.Coasting
			s.QuarantinedSessions += sh.Quarantined
			s.FailedSessions += sh.Failed
			s.BreakerOpenSessions += sh.BreakerOpen
			s.Panics += sh.Panics
			s.Restarts += sh.Restarts
		}
	}
	s.Restore = h.lastRestore.Load()
	if h.ckptPath != "" {
		cs := &checkpointStatus{Path: h.ckptPath, AgeSeconds: -1}
		if last := h.lastCkptNanos.Load(); last != 0 {
			cs.Epoch = int(h.lastCkptEpoch.Load())
			cs.AgeSeconds = time.Since(time.Unix(0, last)).Seconds()
		}
		s.Checkpoint = cs
	}
	last := h.lastFixNanos.Load()
	if last == 0 {
		s.Status = "starting"
		return s, http.StatusServiceUnavailable
	}
	age := time.Since(time.Unix(0, last))
	s.LastFixAgeSeconds = age.Seconds()
	if age > maxAge {
		s.Status = "stalled"
		return s, http.StatusServiceUnavailable
	}
	s.Status = "ok"
	return s, http.StatusOK
}

// handler serves /healthz.
func (h *health) handler(w http.ResponseWriter, _ *http.Request) {
	body, code := h.status()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}

// newAdminMux wires the admin routes. st.eng may be nil (/debug/status
// then serves liveness without the quality/SLO block).
func newAdminMux(st *serverTelemetry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.Handler(st.reg))
	mux.HandleFunc("/healthz", st.health.handler)
	mux.HandleFunc("/debug/status", st.statusHandler)
	mux.HandleFunc("/debug/incidents", st.incidentsHandler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if st.node != nil {
		// Cluster control plane: session discovery, checkpoint fetch,
		// and handoff adoption (gpsproxy drives these).
		st.node.Routes(mux)
	}
	return mux
}

// serveAdmin runs the admin HTTP server on ln until ctx ends.
func serveAdmin(ctx context.Context, ln net.Listener, handler http.Handler, log *slog.Logger) {
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	stop := context.AfterFunc(ctx, func() { srv.Close() })
	defer stop()
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed && ctx.Err() == nil && log != nil {
		log.Error("admin server failed", "err", err)
	}
}

// serverTelemetry is gpsserve's instrument set around the engine: the
// registry, the health tracker, and the engine, incident capturer and
// cluster node the admin routes report on.
type serverTelemetry struct {
	reg    *telemetry.Registry
	health *health
	eng    *engine.Engine
	inc    *incidentCapturer // with -incident-dir; nil otherwise
	node   *cluster.Node     // cluster serving tier (-wire); nil otherwise
}

// newServerTelemetry registers gpsserve's own instruments in reg — build
// info, the broadcaster's connection families and the liveness tracker —
// so run() and the admin tests expose identical families from startup.
// logs may be nil (silent). The engine, capturer and node are attached
// by the caller once built.
func newServerTelemetry(reg *telemetry.Registry, b *Broadcaster, logs *telemetry.Logging, fixMaxAge time.Duration) *serverTelemetry {
	telemetry.RegisterBuildInfo(reg)
	b.Metrics = NewBroadcasterMetrics(reg)
	b.Logger = logs.Component("broadcaster")
	return &serverTelemetry{reg: reg, health: newHealth(reg, fixMaxAge, b)}
}

// sink is the engine's FixSink: each fix event feeds liveness, the wire
// hub (with -wire) and the NMEA broadcaster. It runs on shard
// goroutines; health counters are atomic and Broadcast locks
// internally, so no extra synchronization is needed. GGA/RMC must be
// copied (string conversion does) before the callback returns.
func (st *serverTelemetry) sink(b *Broadcaster) engine.FixSink {
	return func(e engine.FixEvent) {
		st.health.recordEpoch()
		if st.node != nil {
			// The wire hub gets every event, misses included: a MISS
			// frame tells subscribers "no fix this epoch" where a
			// skipped epoch would read as a stream gap.
			st.node.Publish(e)
		}
		if e.Err != nil {
			return
		}
		st.health.recordFix(e.HDOP)
		b.Broadcast(string(e.GGA))
		b.Broadcast(string(e.RMC))
	}
}

// listenAdmin binds the admin address and starts the admin server,
// returning the bound address (useful with ":0").
func listenAdmin(ctx context.Context, addr string, st *serverTelemetry, log *slog.Logger) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin listen %s: %w", addr, err)
	}
	mux := newAdminMux(st)
	go serveAdmin(ctx, ln, mux, log)
	return ln.Addr(), nil
}
