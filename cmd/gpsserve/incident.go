// Automatic incident capture: when the engine reports an incident (an
// SLO objective paging, a recovered panic, a session out of restarts),
// a self-contained forensics bundle is written under -incident-dir —
// the recent flight-journal segment, a checkpoint of every session, the
// operator status view, the serving configuration and build info.
// gpsinspect replays and attributes a bundle through its journal
// segment. Bundles appear atomically (tmp dir + rename) and are listed
// on /debug/incidents.
package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"gpsdl/internal/checkpoint"
	"gpsdl/internal/engine"
	"gpsdl/internal/telemetry"
)

// Bundle file names. Every bundle directory holds incidentFile; the
// rest are best-effort (a missing journal or checkpoint never blocks
// capture of the others).
const (
	incidentFile   = "incident.json"
	journalFile    = "journal.gpsj"
	checkpointFile = "checkpoint.ckpt"
	statusFile     = "status.json"
	configFile     = "config.json"
)

// incidentRecord is the incident.json body: the engine's incident
// event plus capture provenance.
type incidentRecord struct {
	engine.Incident
	CapturedAt string `json:"captured_at"`
	GoVersion  string `json:"go_version"`
	Build      string `json:"build,omitempty"` // main module version when stamped
	Bundle     string `json:"bundle"`          // bundle directory name
}

// incidentCapturer turns engine incidents into on-disk bundles. The
// engine delivers incidents on shard goroutines, so handle() only
// enqueues; a single worker goroutine does the file I/O, and a
// per-bundle rate limit keeps a flapping SLO from filling the disk.
type incidentCapturer struct {
	dir    string
	minGap time.Duration
	log    *slog.Logger

	// Set by start() before the worker runs.
	eng    *engine.Engine
	health *health
	config json.RawMessage

	ch   chan engine.Incident
	done chan struct{}
	seq  atomic.Uint64

	captured *telemetry.Counter
	dropped  *telemetry.Counter
}

// newIncidentCapturer prepares dir and registers the incident counters
// in reg. minGap <= 0 disables rate limiting.
func newIncidentCapturer(dir string, minGap time.Duration, reg *telemetry.Registry, log *slog.Logger) (*incidentCapturer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("incident dir: %w", err)
	}
	return &incidentCapturer{
		dir:      dir,
		minGap:   minGap,
		log:      log,
		ch:       make(chan engine.Incident, 16),
		done:     make(chan struct{}),
		captured: reg.Counter("engine_incidents_captured_total", "Incident bundles written to the incident directory."),
		dropped:  reg.Counter("engine_incidents_dropped_total", "Incidents dropped by the capture rate limit or a full queue."),
	}, nil
}

// start wires the capture sources and launches the worker. config is
// the serving configuration snapshot written into every bundle.
func (c *incidentCapturer) start(eng *engine.Engine, h *health, config json.RawMessage) {
	c.eng, c.health, c.config = eng, h, config
	go c.run()
}

// handle is the engine.Config.OnIncident hook: cheap, concurrency-safe,
// never blocks a shard goroutine.
func (c *incidentCapturer) handle(inc engine.Incident) {
	select {
	case c.ch <- inc:
	default:
		c.dropped.Inc()
	}
}

// close stops the worker after the engine has quiesced (no further
// handle calls) and waits for an in-flight capture to finish.
func (c *incidentCapturer) close() {
	close(c.ch)
	<-c.done
}

// run drains the incident queue, enforcing the bundle rate limit.
func (c *incidentCapturer) run() {
	defer close(c.done)
	var last time.Time
	for inc := range c.ch {
		if c.minGap > 0 && !last.IsZero() && time.Since(last) < c.minGap {
			c.dropped.Inc()
			continue
		}
		name, err := c.capture(inc)
		if err != nil {
			c.log.Warn("incident capture failed", "kind", inc.Kind, "err", err)
			continue
		}
		last = time.Now()
		c.captured.Inc()
		c.log.Info("incident bundle captured",
			"bundle", name, "kind", inc.Kind, "receiver", inc.Receiver, "epoch", inc.Epoch)
	}
}

// capture writes one bundle. The bundle is assembled in a hidden temp
// directory and renamed into place so observers (the admin endpoint,
// gpsinspect, an operator's rsync) never see a partial bundle.
func (c *incidentCapturer) capture(inc engine.Incident) (string, error) {
	name := fmt.Sprintf("%s-%04d-%s-r%d",
		time.Now().UTC().Format("20060102T150405"), c.seq.Add(1), inc.Kind, inc.Receiver)
	tmp, err := os.MkdirTemp(c.dir, ".tmp-"+name+"-*")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename

	rec := incidentRecord{
		Incident:   inc,
		CapturedAt: time.Now().UTC().Format(time.RFC3339Nano),
		GoVersion:  runtime.Version(),
		Bundle:     name,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rec.Build = bi.Main.Version
	}
	if err := writeJSON(filepath.Join(tmp, incidentFile), rec); err != nil {
		return "", err
	}
	if err := writeJSON(filepath.Join(tmp, configFile), c.config); err != nil {
		return "", err
	}
	st, _ := c.health.status()
	status := statusResponse{Health: st}
	if c.eng.QualityEnabled() {
		status.Quality = c.eng.Quality(statusTopDefault)
	}
	if err := writeJSON(filepath.Join(tmp, statusFile), status); err != nil {
		return "", err
	}
	if jw := c.eng.Journal(); jw != nil {
		seg := jw.TailSegment()
		if err := os.WriteFile(filepath.Join(tmp, journalFile), seg, 0o644); err != nil {
			return "", err
		}
	}
	if snap := c.eng.Snapshot(); len(snap.Sessions) > 0 {
		if err := checkpoint.Save(filepath.Join(tmp, checkpointFile), snap); err != nil {
			return "", err
		}
	}
	if err := os.Rename(tmp, filepath.Join(c.dir, name)); err != nil {
		return "", err
	}
	return name, nil
}

// writeJSON writes v as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// incidentList is the /debug/incidents response body.
type incidentList struct {
	Enabled   bool             `json:"enabled"`
	Dir       string           `json:"dir,omitempty"`
	Incidents []incidentRecord `json:"incidents"`
}

// incidentsHandler serves /debug/incidents: every bundle's
// incident.json, newest first. Unreadable entries are skipped — a
// listing must not fail because one bundle is being rsynced away.
func (st *serverTelemetry) incidentsHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	out := incidentList{Incidents: []incidentRecord{}}
	if st.inc != nil {
		out.Enabled = true
		out.Dir = st.inc.dir
		entries, err := os.ReadDir(st.inc.dir)
		if err == nil {
			for _, e := range entries {
				if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
					continue
				}
				data, err := os.ReadFile(filepath.Join(st.inc.dir, e.Name(), incidentFile))
				if err != nil {
					continue
				}
				var rec incidentRecord
				if json.Unmarshal(data, &rec) != nil {
					continue
				}
				rec.Bundle = e.Name()
				out.Incidents = append(out.Incidents, rec)
			}
		}
		sort.Slice(out.Incidents, func(i, j int) bool {
			return out.Incidents[i].Bundle > out.Incidents[j].Bundle
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}
