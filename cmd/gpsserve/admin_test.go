package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpsdl/internal/clock"
	"gpsdl/internal/engine"
	"gpsdl/internal/scenario"
	"gpsdl/internal/telemetry"
	"gpsdl/internal/wire"
)

// discardLog is a no-output logger for components under test.
func discardLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestTelemetry wires the server instrument set the way run() does,
// around a one-session DLG engine on YYR1 whose sink feeds the health
// tracker. The engine has not run yet.
func newTestTelemetry(t *testing.T, maxAge time.Duration) *serverTelemetry {
	t.Helper()
	st, err := scenario.StationByID("YYR1")
	if err != nil {
		t.Fatal(err)
	}
	tel := newServerTelemetry(telemetry.NewRegistry(), wire.NewHub(wire.HubConfig{}), maxAge)
	eng, err := engine.New(engine.Config{
		Receivers: 1, Seed: 11, Stations: []scenario.Station{st},
		Registry: tel.reg, Sink: tel.sink(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tel.eng = eng
	tel.health.shards = eng.ShardHealth
	return tel
}

// The acceptance criterion: /metrics must serve Prometheus text format
// containing every key metric family from startup, before any traffic.
func TestAdminMetricsEndpoint(t *testing.T) {
	tel := newTestTelemetry(t, 0)
	srv := httptest.NewServer(newAdminMux(tel))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4; charset=utf-8", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		// Required families: the engine's solve path and the clock
		// predictor's counters.
		"engine_solve_seconds",
		"engine_solve_failures_total",
		"engine_fixes_total",
		clock.MetricResets,
		clock.MetricCalibrations,
		metricClients,
		// Per-shard histogram series in Prometheus text shape.
		`engine_solve_seconds_bucket{shard="0",le="+Inf"} 0`,
		`engine_solve_failures_total{shard="0"} 0`,
		"# TYPE engine_solve_seconds histogram",
		"# TYPE gpsserve_clients gauge",
		// Connection and epoch-loop families.
		metricConnects,
		`gpsserve_drops_total{reason="slow"}`,
		metricEpochs,
		metricFixes,
		// DLG covariance-path counters.
		`gps_dlg_solves_total{path="fast"} 0`,
		"gps_build_info",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// /metrics must reflect the engine's activity: every epoch reaches the
// health tracker through the sink, and the predictor's calibration is
// counted once its window fills.
func TestAdminMetricsReflectActivity(t *testing.T) {
	tel := newTestTelemetry(t, 0)
	if err := tel.eng.Run(context.Background(), 80); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newAdminMux(tel))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		`engine_fixes_total{shard="0"} 80`,
		`engine_solve_seconds_count{shard="0"} 80`,
		"gps_clock_calibrations_total 1",
		"gpsserve_epochs_total 80",
		"gpsserve_fixes_total 80",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "gpsserve_hdop 0\n") {
		t.Error("gpsserve_hdop not set by the fixes")
	}
}

func TestHealthzLifecycle(t *testing.T) {
	tel := newTestTelemetry(t, time.Hour)
	srv := httptest.NewServer(newAdminMux(tel))
	defer srv.Close()

	get := func() (healthStatus, int) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Errorf("/healthz Content-Type = %q, want application/json; charset=utf-8", ct)
		}
		var hs healthStatus
		if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
			t.Fatal(err)
		}
		return hs, resp.StatusCode
	}

	// Before any fix: starting, unavailable.
	hs, code := get()
	if code != http.StatusServiceUnavailable || hs.Status != "starting" {
		t.Errorf("pre-fix healthz = %d %q, want 503 starting", code, hs.Status)
	}
	if hs.LastFixAgeSeconds != -1 {
		t.Errorf("pre-fix age = %v, want -1", hs.LastFixAgeSeconds)
	}

	// After a fix: ok.
	tel.health.recordEpoch()
	tel.health.recordFix(0.9)
	hs, code = get()
	if code != http.StatusOK || hs.Status != "ok" {
		t.Errorf("post-fix healthz = %d %q, want 200 ok", code, hs.Status)
	}
	if hs.Epochs != 1 || hs.Fixes != 1 {
		t.Errorf("healthz counters = %d epochs %d fixes", hs.Epochs, hs.Fixes)
	}
	if hs.LastFixAgeSeconds < 0 {
		t.Errorf("age = %v after a fix", hs.LastFixAgeSeconds)
	}
}

func TestHealthzStalled(t *testing.T) {
	tel := newTestTelemetry(t, time.Nanosecond)
	tel.health.recordFix(1)
	time.Sleep(2 * time.Millisecond)
	srv := httptest.NewServer(newAdminMux(tel))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hs healthStatus
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || hs.Status != "stalled" {
		t.Errorf("stale healthz = %d %q, want 503 stalled", resp.StatusCode, hs.Status)
	}
}

// Every mounted pprof route must answer 200 with a non-empty body —
// including the named profiles the index handler dispatches to.
func TestAdminPprofRoutes(t *testing.T) {
	tel := newTestTelemetry(t, 0)
	srv := httptest.NewServer(newAdminMux(tel))
	defer srv.Close()
	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/cmdline",
		"/debug/pprof/symbol",
		"/debug/pprof/heap",
		"/debug/pprof/goroutine?debug=1",
		"/debug/pprof/allocs",
		"/debug/pprof/threadcreate",
		"/debug/pprof/block",
		"/debug/pprof/mutex",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Errorf("GET %s returned an empty body", path)
		}
	}
}

// /healthz must expose NMEA client backpressure: the live client count
// and the cumulative drop total.
func TestHealthzBackpressure(t *testing.T) {
	hub := wire.NewHub(wire.HubConfig{})
	tel := newServerTelemetry(telemetry.NewRegistry(), hub, time.Hour)
	// One attached text subscriber and two that left; the socket
	// lifecycle itself is covered by the server tests.
	defer hub.SubscribeText().Close()
	hub.SubscribeText().Close()
	hub.SubscribeText().Close()
	tel.health.recordEpoch()
	tel.health.recordFix(1)
	srv := httptest.NewServer(newAdminMux(tel))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hs healthStatus
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		t.Fatal(err)
	}
	if hs.Clients != 1 {
		t.Errorf("healthz clients = %d, want 1", hs.Clients)
	}
	if hs.Drops != 2 {
		t.Errorf("healthz drops = %d, want 2", hs.Drops)
	}
}

// No /debug/trace route is served (the flight journal is the replay
// record): those paths must answer 404.
func TestAdminTraceDisabled(t *testing.T) {
	tel := newTestTelemetry(t, 0)
	srv := httptest.NewServer(newAdminMux(tel))
	defer srv.Close()
	for _, path := range []string{"/debug/trace", "/debug/trace/chrome", "/debug/trace/exemplars"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}
