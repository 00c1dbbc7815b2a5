package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpsdl/internal/checkpoint"
	"gpsdl/internal/engine"
	"gpsdl/internal/eval"
	"gpsdl/internal/fault"
	"gpsdl/internal/journal"
	"gpsdl/internal/telemetry"
)

// runIncidentEngine drives a journaling engine under a paging fault
// with incident capture into dir, returning the capturer and the
// telemetry set serving /debug/incidents.
func runIncidentEngine(t *testing.T, dir string) (*incidentCapturer, *serverTelemetry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	capturer, err := newIncidentCapturer(dir, 0, reg, discardLog())
	if err != nil {
		t.Fatal(err)
	}
	var jbuf bytes.Buffer
	eng, err := engine.New(engine.Config{
		Receivers: 2, Workers: 2, Seed: 2, Registry: reg,
		Quality:         &engine.QualityConfig{},
		CheckpointEvery: 50,
		JournalSink:     &jbuf,
		Faults:          fault.Program{{Kind: fault.KindStep, PRN: 14, Bias: 30, From: 50, Until: math.Inf(1)}},
		FaultSeed:       5,
		OnIncident:      capturer.handle,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := newHealth(reg, time.Hour, nil)
	h.shards = eng.ShardHealth
	h.recordEpoch()
	h.recordFix(1.0)
	capturer.start(eng, h, json.RawMessage(`{"receivers":2}`))
	if err := eng.Run(context.Background(), 400); err != nil {
		t.Fatal(err)
	}
	capturer.close()
	return capturer, &serverTelemetry{reg: reg, health: h, eng: eng, inc: capturer}
}

// The tentpole acceptance path: a forced SLO page must produce a
// self-contained bundle — incident provenance, a scannable journal
// segment whose captured epochs replay bit-for-bit, a loadable
// checkpoint, status and config snapshots.
func TestIncidentCaptureBundle(t *testing.T) {
	dir := t.TempDir()
	capturer, _ := runIncidentEngine(t, dir)

	if got := capturer.captured.Value(); got < 1 {
		t.Fatalf("engine_incidents_captured_total = %d, want >= 1", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bundle string
	for _, e := range entries {
		if e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			bundle = filepath.Join(dir, e.Name())
			break
		}
	}
	if bundle == "" {
		t.Fatalf("no bundle directory in %s: %v", dir, entries)
	}

	var rec incidentRecord
	data, err := os.ReadFile(filepath.Join(bundle, incidentFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Kind != engine.IncidentSLOPage || rec.Objective == "" {
		t.Errorf("incident.json = %+v, want an slo_page with an objective", rec)
	}
	if rec.GoVersion == "" || rec.CapturedAt == "" {
		t.Errorf("incident.json missing provenance: %+v", rec)
	}

	seg, err := os.ReadFile(filepath.Join(bundle, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	res, err := journal.Scan(bytes.NewReader(seg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn || len(res.Records) == 0 {
		t.Fatalf("bundle journal torn=%v records=%d", res.Torn, len(res.Records))
	}

	// The segment's captured observation sets re-solve bit-identically,
	// the check gpsinspect replay runs on a bundle.
	replayed := 0
	for i := range res.Records {
		in, err := eval.ReplayInputFromRecord(&res.Meta, &res.Records[i])
		if err != nil {
			continue // not a captured solve epoch
		}
		sv := in.ReplaySolver()
		if sv == nil {
			t.Fatalf("captured solver %q not replayable", in.Solver)
		}
		sol, err := sv.Solve(in.T, in.Obs)
		if err != nil {
			t.Fatalf("replay (epoch %d): %v", in.EpochIndex, err)
		}
		if sol.Pos != in.Solution {
			t.Fatalf("replay not bit-identical: %+v != %+v", sol.Pos, in.Solution)
		}
		replayed++
	}
	if replayed == 0 {
		t.Error("bundle journal segment captured no replayable epochs")
	}
	if _, err := os.Stat(filepath.Join(bundle, "exemplars.json")); err == nil {
		t.Error("bundle still carries exemplars.json")
	}
	if st, err := checkpoint.Load(filepath.Join(bundle, checkpointFile)); err != nil {
		t.Fatal(err)
	} else if len(st.Sessions) == 0 {
		t.Error("bundle checkpoint has no sessions")
	}
	var status statusResponse
	if data, err := os.ReadFile(filepath.Join(bundle, statusFile)); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(data, &status); err != nil {
		t.Fatal(err)
	} else if status.Quality == nil || !status.Quality.Enabled {
		t.Errorf("bundle status.json quality block = %+v", status.Quality)
	}
	if _, err := os.Stat(filepath.Join(bundle, configFile)); err != nil {
		t.Error(err)
	}
}

// /debug/incidents must list captured bundles newest-first, and report
// enabled=false when capture is off.
func TestIncidentsEndpoint(t *testing.T) {
	dir := t.TempDir()
	_, tel := runIncidentEngine(t, dir)
	srv := httptest.NewServer(newAdminMux(tel))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/incidents")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	var list incidentList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if !list.Enabled || list.Dir != dir {
		t.Errorf("listing = enabled=%v dir=%q, want enabled in %q", list.Enabled, list.Dir, dir)
	}
	if len(list.Incidents) < 1 {
		t.Fatalf("no incidents listed")
	}
	for i := 1; i < len(list.Incidents); i++ {
		if list.Incidents[i-1].Bundle < list.Incidents[i].Bundle {
			t.Errorf("incidents not newest-first: %q before %q",
				list.Incidents[i-1].Bundle, list.Incidents[i].Bundle)
		}
	}

	// The capture counter must surface on /metrics.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"engine_incidents_captured_total",
		"gps_journal_bytes_written_total",
		"gps_journal_fsyncs_total",
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Capture disabled: the endpoint still answers, explicitly off.
	off := newTestTelemetry(t, time.Hour)
	osrv := httptest.NewServer(newAdminMux(off))
	defer osrv.Close()
	oresp, err := http.Get(osrv.URL + "/debug/incidents")
	if err != nil {
		t.Fatal(err)
	}
	defer oresp.Body.Close()
	var olist incidentList
	if err := json.NewDecoder(oresp.Body).Decode(&olist); err != nil {
		t.Fatal(err)
	}
	if olist.Enabled {
		t.Error("capture reported enabled without -incident-dir")
	}
}

// The rate limit must coalesce an incident storm into one bundle.
func TestIncidentRateLimit(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	capturer, err := newIncidentCapturer(dir, time.Hour, reg, discardLog())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Receivers: 1, Workers: 1, Seed: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	capturer.start(eng, newHealth(reg, time.Hour, nil), json.RawMessage(`{}`))
	for i := 0; i < 5; i++ {
		capturer.handle(engine.Incident{Kind: engine.IncidentPanic, Receiver: 0, Epoch: uint64(i)})
	}
	capturer.close()
	if got := capturer.captured.Value(); got != 1 {
		t.Errorf("captured %d bundles under a 1h rate limit, want 1", got)
	}
	if got := capturer.dropped.Value(); got != 4 {
		t.Errorf("dropped %d incidents, want 4", got)
	}
}
