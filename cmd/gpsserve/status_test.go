package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpsdl/internal/engine"
	"gpsdl/internal/slo"
	"gpsdl/internal/telemetry"
)

// A one-session engine with the quality layer off (-quality=false):
// /debug/status serves the liveness block without a quality section, in
// both JSON and text renderings.
func TestStatusSingleMode(t *testing.T) {
	tel := newTestTelemetry(t, time.Hour)
	tel.health.recordEpoch()
	tel.health.recordFix(1.1)
	srv := httptest.NewServer(newAdminMux(tel))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("Content-Type = %q, want application/json; charset=utf-8", ct)
	}
	var sr statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Health.Status != "ok" || sr.Health.Fixes != 1 {
		t.Errorf("health block = %+v", sr.Health)
	}
	if sr.Quality != nil {
		t.Errorf("quality-off status carries a quality block: %+v", sr.Quality)
	}

	text, err := http.Get(srv.URL + "/debug/status?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer text.Body.Close()
	if ct := text.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("text Content-Type = %q, want text/plain; charset=utf-8", ct)
	}
	body, _ := io.ReadAll(text.Body)
	for _, want := range []string{"status", "ok", "quality", "disabled"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("text status missing %q:\n%s", want, body)
		}
	}

	bad, err := http.Get(srv.URL + "/debug/status?top=zero")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("top=zero status = %d, want 400", bad.StatusCode)
	}
}

// Engine mode with the quality layer on: /debug/status merges shard
// health with SLO verdicts, error budgets and the worst-sessions
// ranking, and /metrics carries the build-info and SLO gauge families.
func TestStatusEngineMode(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg)
	eng, err := engine.New(engine.Config{
		Receivers: 3,
		Workers:   2,
		Seed:      5,
		Registry:  reg,
		Quality: &engine.QualityConfig{
			Window:    128,
			EvalEvery: 32,
			Objectives: []slo.Objective{
				{Name: "availability", Kind: slo.KindAvailability, Target: 99, Window: 120},
				{Name: "p99_rms", Kind: slo.KindRMSQuantile, Target: 13, Quantile: 0.99, Window: 120},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), 128); err != nil {
		t.Fatal(err)
	}
	h := newHealth(reg, time.Hour, nil)
	h.shards = eng.ShardHealth
	h.recordEpoch()
	h.recordFix(1.0)
	tel := &serverTelemetry{reg: reg, health: h, eng: eng}
	srv := httptest.NewServer(newAdminMux(tel))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/status?top=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Health.Shards) != 2 {
		t.Errorf("%d shard health entries, want 2", len(sr.Health.Shards))
	}
	q := sr.Quality
	if q == nil || !q.Enabled {
		t.Fatalf("quality block = %+v", q)
	}
	if len(q.Objectives) != 2 {
		t.Errorf("%d objectives, want 2", len(q.Objectives))
	}
	if q.Window.Count != 3*128 {
		t.Errorf("fleet window count = %d, want 384", q.Window.Count)
	}
	if len(q.Sessions) != 2 {
		t.Errorf("top=2 returned %d worst sessions", len(q.Sessions))
	}

	text, err := http.Get(srv.URL + "/debug/status?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer text.Body.Close()
	body, _ := io.ReadAll(text.Body)
	for _, want := range []string{
		"SHARD", "OBJECTIVE", "availability", "p99_rms",
		"slo verdict", "fleet window", "WORST", "rms p50/p95/p99",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("text status missing %q:\n%s", want, body)
		}
	}

	metrics, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	mb, _ := io.ReadAll(metrics.Body)
	for _, want := range []string{
		telemetry.MetricBuildInfo,
		telemetry.MetricProcessStartEpoch,
		`engine_slo_state{objective="availability"}`,
		`engine_slo_budget_remaining{objective="p99_rms"}`,
		"engine_slo_worst_state",
		"engine_quality_fleet_rms_p99_meters",
		"engine_slo_downgrades_total",
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// The draining flag must surface on both /healthz and /debug/status
// once shutdown starts flushing.
func TestStatusDraining(t *testing.T) {
	tel := newTestTelemetry(t, time.Hour)
	tel.health.recordFix(1.0)
	srv := httptest.NewServer(newAdminMux(tel))
	defer srv.Close()

	get := func() statusResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + "/debug/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr statusResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	if get().Health.Draining {
		t.Error("draining before shutdown")
	}
	tel.health.startDrain()
	if !get().Health.Draining {
		t.Error("draining flag did not surface")
	}
}
