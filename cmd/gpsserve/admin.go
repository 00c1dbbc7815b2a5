// Admin HTTP endpoint: /metrics (Prometheus text format), /healthz
// (liveness with last-fix age, NMEA client backpressure and the engine's
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
	"sync"
	"sync/atomic"
	"time"

	"gpsdl/internal/cluster"
	"gpsdl/internal/engine"
	"gpsdl/internal/telemetry"
	"gpsdl/internal/wire"
)

// Metric names exported by gpsserve around the engine: the NMEA client
// families (mirrored from the hub's text stream) and the epoch loop.
const (
	metricClients          = "gpsserve_clients"
	metricConnects         = "gpsserve_connects_total"
	metricDrops            = "gpsserve_drops_total"
	metricSentences        = "gpsserve_sentences_total"
	metricSentencesDropped = "gpsserve_sentences_dropped_total"
	metricEpochs           = "gpsserve_epochs_total"
	metricFixes            = "gpsserve_fixes_total"
	metricHDOP             = "gpsserve_hdop"
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

	// hub, when non-nil, contributes NMEA client backpressure (current
	// client count and cumulative drops) to the health JSON, so a
	// degraded fan-out is visible without scraping /metrics.
	hub *wire.Hub

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
func newHealth(reg *telemetry.Registry, maxAge time.Duration, hub *wire.Hub) *health {
	return &health{
		maxAge:  maxAge,
		started: time.Now(),
		epochs:  reg.Counter(metricEpochs, "Epochs pulled from the observation source."),
		fixes:   reg.Counter(metricFixes, "Epochs that produced a broadcast fix."),
		hdop:    reg.Gauge(metricHDOP, "HDOP of the most recent fix."),
		hub:     hub,
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
	// Clients and Drops expose fan-out backpressure: connected NMEA
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
	if h.hub != nil {
		// One locked snapshot keeps clients and drops mutually
		// consistent (connects − drops == clients).
		ts := h.hub.TextStats()
		s.Clients, s.Drops = ts.Clients, ts.Drops[0]+ts.Drops[1]+ts.Drops[2]
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
	mux.Handle("/metrics", st.metricsHandler())
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
// registry, the health tracker, the hub every fix fans out through, and
// the engine, incident capturer and cluster node the admin routes
// report on.
type serverTelemetry struct {
	reg    *telemetry.Registry
	health *health
	hub    *wire.Hub
	text   *textFamilies
	eng    *engine.Engine
	inc    *incidentCapturer // with -incident-dir; nil otherwise
	node   *cluster.Node     // cluster serving tier (-wire); nil otherwise
}

// newServerTelemetry registers gpsserve's own instruments in reg — build
// info, the NMEA client families and the liveness tracker — so run()
// and the admin tests expose identical families from startup. The
// engine, capturer and node are attached by the caller once built.
func newServerTelemetry(reg *telemetry.Registry, hub *wire.Hub, fixMaxAge time.Duration) *serverTelemetry {
	telemetry.RegisterBuildInfo(reg)
	return &serverTelemetry{
		reg: reg, health: newHealth(reg, fixMaxAge, hub), hub: hub, text: newTextFamilies(reg),
	}
}

// textFamilies are the gpsserve_* NMEA client families. The hub owns
// the counts; each scrape copies one TextStats snapshot into them.
type textFamilies struct {
	mu        sync.Mutex
	clients   *telemetry.Gauge
	connects  *telemetry.Counter
	drops     [3]*telemetry.Counter // indexed like wire.TextStats.Drops
	sentences *telemetry.Counter
	shed      *telemetry.Counter
}

func newTextFamilies(reg *telemetry.Registry) *textFamilies {
	reason := func(v string) telemetry.Label { return telemetry.Label{Key: "reason", Value: v} }
	const dropHelp = "Client disconnections by reason."
	f := &textFamilies{
		clients:   reg.Gauge(metricClients, "Currently connected NMEA clients."),
		connects:  reg.Counter(metricConnects, "Accepted client connections."),
		sentences: reg.Counter(metricSentences, "NMEA sentences fanned out to clients (two per fix)."),
		shed: reg.Counter(metricSentencesDropped,
			"Sentences discarded oldest-first from stalled clients' queues (two per fix)."),
	}
	f.drops[wire.DropSlow] = reg.Counter(metricDrops, dropHelp, reason("slow"))
	f.drops[wire.DropWrite] = reg.Counter(metricDrops, dropHelp, reason("write"))
	f.drops[wire.DropShutdown] = reg.Counter(metricDrops, dropHelp, reason("shutdown"))
	return f
}

// update raises every family to snapshot s; the hub's counts only grow.
func (f *textFamilies) update(s wire.TextStats) {
	f.mu.Lock()
	defer f.mu.Unlock()
	raise := func(c *telemetry.Counter, v uint64) { c.Add(v - c.Value()) }
	f.clients.Set(float64(s.Clients))
	raise(f.connects, s.Connects)
	for i, c := range f.drops {
		raise(c, s.Drops[i])
	}
	raise(f.sentences, 2*s.Fixes)
	raise(f.shed, 2*s.Shed)
}

// metricsHandler serves /metrics with the NMEA client families brought
// up to date first (when a hub is attached).
func (st *serverTelemetry) metricsHandler() http.Handler {
	h := telemetry.Handler(st.reg)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if st.hub != nil {
			st.text.update(st.hub.TextStats())
		}
		h.ServeHTTP(w, r)
	})
}

// sink is the engine's FixSink: each fix event feeds liveness, the
// binary streams (with -wire) and the NMEA text stream, all through one
// hub. It runs on shard goroutines; health counters are atomic and the
// hub locks internally, so no extra synchronization is needed.
// PublishText copies GGA/RMC before the callback returns.
func (st *serverTelemetry) sink() engine.FixSink {
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
		st.hub.PublishText(e.GGA, e.RMC)
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
