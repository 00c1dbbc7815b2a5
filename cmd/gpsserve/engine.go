// The serving pipeline: gpsserve always runs internal/engine's sharded
// fix engine, with one session by default. Every receiver's GGA/RMC
// pair fans out through one wire.Hub, as the node-wide NMEA text stream
// (and, with -wire, as binary frames too), the admin endpoint serves the
// engine's per-shard metrics (fixes, queue depth, solve-latency
// histograms) next to the NMEA client and health families, and /healthz
// is fed by fix events from all receivers. -dataset serves a recorded
// file through a one-session engine instead of live generation.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"os"
	"time"

	"gpsdl/internal/checkpoint"
	"gpsdl/internal/cluster"
	"gpsdl/internal/engine"
	"gpsdl/internal/fault"
	"gpsdl/internal/journal"
	"gpsdl/internal/scenario"
	"gpsdl/internal/slo"
	"gpsdl/internal/telemetry"
	"gpsdl/internal/wire"
)

// engineParams is the resolved gpsserve flag set.
type engineParams struct {
	receivers  int
	sessions   []int  // explicit global session ids (cluster mode); empty uses receivers
	wireAddr   string // binary fix-stream listener; "" disables the cluster tier
	workers    int
	station    string
	dataset    string // recorded dataset served once by one session; "" generates live
	solver     string
	addr       string
	adminAddr  string
	rate       float64
	seed       int64
	faults     string // fault-program spec (fault.ParseSpec grammar); "" = none
	faultSeed  int64
	ckptPath   string        // checkpoint file; "" disables checkpointing
	ckptEvery  int           // epochs between per-session checkpoint refreshes
	ckptPeriod time.Duration // wall-clock period between file saves
	restore    bool          // resume from ckptPath at startup
	drainWait  time.Duration // shutdown budget for flushing client queues
	quality    bool          // enable quality windows + SLO evaluation
	qualityWin int           // quality sliding-window span in epochs
	sloSpec    string        // slo.ParseObjectives grammar; "" = defaults

	journalPath string        // flight-journal file; "" disables journaling
	journalSync int           // record frames between journal sync points
	incidentDir string        // incident bundle directory; "" disables capture
	incidentGap time.Duration // minimum wall-clock spacing between bundles

	weighting  bool // C/N0 → sigma weighting on the solve paths
	disruption bool // innovation-outlier down-weighting before RAIM

	logs *telemetry.Logging
}

// servingConfig is the config.json snapshot written into every
// incident bundle: the flags that shaped this serving process, so a
// bundle is interpretable without the launch command line.
type servingConfig struct {
	Receivers     int     `json:"receivers"`
	Workers       int     `json:"workers"`
	Station       string  `json:"station"`
	Dataset       string  `json:"dataset,omitempty"`
	Solver        string  `json:"solver"`
	Rate          float64 `json:"rate"`
	Seed          int64   `json:"seed"`
	Faults        string  `json:"faults,omitempty"`
	FaultSeed     int64   `json:"fault_seed,omitempty"`
	Checkpoint    string  `json:"checkpoint,omitempty"`
	Quality       bool    `json:"quality"`
	QualityWindow int     `json:"quality_window,omitempty"`
	SLO           string  `json:"slo,omitempty"`
	Journal       string  `json:"journal,omitempty"`
	JournalSync   int     `json:"journal_sync,omitempty"`
	IncidentDir   string  `json:"incident_dir,omitempty"`
	Weights       bool    `json:"weights,omitempty"`
	Disrupt       bool    `json:"disrupt,omitempty"`
}

// configSnapshot marshals the bundle config block (errors degrade to
// an empty object; capture must not fail over provenance).
func configSnapshot(p engineParams) json.RawMessage {
	raw, err := json.Marshal(servingConfig{
		Receivers:     p.receivers,
		Workers:       p.workers,
		Station:       p.station,
		Dataset:       p.dataset,
		Solver:        p.solver,
		Rate:          p.rate,
		Seed:          p.seed,
		Faults:        p.faults,
		FaultSeed:     p.faultSeed,
		Checkpoint:    p.ckptPath,
		Quality:       p.quality,
		QualityWindow: p.qualityWin,
		SLO:           p.sloSpec,
		Journal:       p.journalPath,
		JournalSync:   p.journalSync,
		IncidentDir:   p.incidentDir,
		Weights:       p.weighting,
		Disrupt:       p.disruption,
	})
	if err != nil {
		return json.RawMessage("{}")
	}
	return raw
}

// resolveStations maps the -station flag to receiver templates: a named
// station pins every receiver to it; "all" round-robins the four Table
// 5.1 stations across receivers.
func resolveStations(id string) ([]scenario.Station, error) {
	if id == "all" || id == "ALL" {
		return scenario.Table51Stations(), nil
	}
	st, err := scenario.StationByID(id)
	if err != nil {
		return nil, err
	}
	return []scenario.Station{st}, nil
}

// runEngine serves fixes from p.receivers concurrent sessions, paced at
// p.rate epochs per second per receiver, until ctx ends (or, with
// -dataset, until the recording's last epoch has been served).
func runEngine(ctx context.Context, p engineParams) error {
	var (
		ds       *scenario.Dataset
		stations []scenario.Station
		step     float64
		err      error
	)
	if p.dataset != "" {
		if ds, err = scenario.LoadFile(p.dataset); err != nil {
			return err
		}
		stations, step = []scenario.Station{ds.Station}, ds.Config.Step
	} else if stations, err = resolveStations(p.station); err != nil {
		return err
	}
	var prog fault.Program
	if p.faults != "" {
		prog, err = fault.ParseSpec(p.faults)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
	}
	var qcfg *engine.QualityConfig
	if p.quality {
		objs, err := slo.ParseObjectives(p.sloSpec)
		if err != nil {
			return fmt.Errorf("-slo: %w", err)
		}
		qcfg = &engine.QualityConfig{Window: p.qualityWin, Objectives: objs}
	}
	reg := telemetry.NewRegistry()
	ckptEvery := 0
	if p.ckptPath != "" || p.incidentDir != "" || p.wireAddr != "" {
		// Live checkpoint cells feed the checkpoint file, the snapshot
		// an incident bundle embeds and the cluster handoff payload. The
		// hub's keyframe blocks share the cadence, so a handoff point
		// always lands on a chain-restart boundary.
		ckptEvery = p.ckptEvery
	}
	hub := wire.NewHub(wire.HubConfig{KeyframeEvery: ckptEvery})
	// A fix is stale once ~10 epoch periods have passed without one
	// (floored at 10 s so slow streaming rates are not declared dead).
	maxAge := time.Duration(10 * float64(time.Second) / p.rate)
	if maxAge < 10*time.Second {
		maxAge = 10 * time.Second
	}
	tel := newServerTelemetry(reg, hub, maxAge)
	h := tel.health
	h.ckptPath = p.ckptPath
	var capturer *incidentCapturer
	var onIncident func(engine.Incident)
	if p.incidentDir != "" {
		capturer, err = newIncidentCapturer(p.incidentDir, p.incidentGap, reg, p.logs.Component("incident"))
		if err != nil {
			return fmt.Errorf("-incident-dir: %w", err)
		}
		onIncident = capturer.handle
	}
	ecfg := engine.Config{
		Receivers:       p.receivers,
		Workers:         p.workers,
		Solver:          p.solver,
		Seed:            p.seed,
		Step:            step,
		Faults:          prog,
		FaultSeed:       p.faultSeed,
		Stations:        stations,
		Registry:        reg,
		CheckpointEvery: ckptEvery,
		Weighting:       p.weighting,
		Disruption:      p.disruption,
		Quality:         qcfg,
		OnIncident:      onIncident,
		Sink:            tel.sink(),
	}
	if len(p.sessions) > 0 {
		ecfg.Receivers = 0
		ecfg.SessionIDs = p.sessions
	}
	// The Node hosts every engine of this process: the primary built
	// here and, with -wire, one per accepted handoff. Adopted engines
	// are built from a copy of this exact config (same seed/solver/
	// stations), which is what makes handed-off streams bit-identical
	// to the dead node's.
	node := cluster.NewNode(ctx, cluster.NodeConfig{
		Base:      ecfg,
		Rate:      p.rate,
		Hub:       hub,
		Registry:  reg,
		Log:       p.logs.Component("cluster"),
		OnRestore: h.recordRestore,
	})
	if p.wireAddr != "" {
		// Set before any engine runs, so shard goroutines only ever
		// observe the final value in the sink.
		tel.node = node
	}
	var jfile *os.File
	defer func() {
		if jfile != nil {
			jfile.Close()
		}
	}()
	// build makes the primary engine. The node builds it again, cold,
	// when the checkpoint is not restored, so each call (re)creates the
	// journal file: the engine that serves writes it from the start.
	build := func() (*engine.Engine, error) {
		cfg := ecfg
		if p.journalPath != "" {
			if jfile != nil {
				jfile.Close()
			}
			f, err := os.Create(p.journalPath)
			if err != nil {
				return nil, fmt.Errorf("-journal: %w", err)
			}
			jfile, cfg.JournalSink = f, f
			cfg.JournalOptions = journal.Options{SyncEvery: p.journalSync}
		}
		eng, err := engine.New(cfg)
		if err == nil && ds != nil {
			eng.Preload(ds.Epochs)
		}
		return eng, err
	}
	restorePath := ""
	if p.restore {
		restorePath = p.ckptPath
	}
	eng, restored, err := node.Host(build, restorePath)
	if err != nil {
		return err
	}
	if restored.Outcome == "ok" {
		fmt.Printf("gpsserve: restored %d sessions from %s, resuming at epoch %d\n",
			restored.Sessions, p.ckptPath, restored.Epoch)
	}
	tel.eng, tel.inc = eng, capturer
	h.shards = eng.ShardHealth
	if capturer != nil {
		capturer.start(eng, h, configSnapshot(p))
	}
	clog := p.logs.Component("checkpoint")
	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", p.addr, err)
	}
	fmt.Printf("gpsserve: engine mode, %d receivers × %s over %d workers on %s (%g epoch/s each)\n",
		len(eng.SessionIDs()), p.solver, eng.Workers(), ln.Addr(), p.rate)
	if ds != nil {
		fmt.Printf("gpsserve: serving dataset %s once (%d epochs, station %s)\n", p.dataset, ds.Len(), ds.Station.ID)
	}
	if p.faults != "" {
		fmt.Printf("gpsserve: fault injection active: %s (seed %d)\n", prog.String(), p.faultSeed)
	}
	if p.journalPath != "" {
		fmt.Printf("gpsserve: flight journal -> %s\n", p.journalPath)
	}
	if p.incidentDir != "" {
		fmt.Printf("gpsserve: incident capture -> %s\n", p.incidentDir)
	}
	// The listeners and admin endpoint run on their own context so the
	// SIGTERM drain is ordered: the engine stops first, the final
	// checkpoint is written, binary subscribers are let go, queued
	// sentences flush to well-behaved NMEA clients, and only then do
	// connections (and /healthz) go away.
	bctx, bcancel := context.WithCancel(context.Background())
	defer bcancel()
	if p.adminAddr != "" {
		bound, err := listenAdmin(bctx, p.adminAddr, tel, p.logs.Component("admin"))
		if err != nil {
			ln.Close()
			return err
		}
		fmt.Printf("gpsserve: admin on http://%s (/metrics /healthz /debug/status /debug/incidents)\n", bound)
	}
	flog := p.logs.Component("fanout")
	srv := &wire.Server{Hub: hub, OnError: func(err error) { flog.Info("client dropped", "err", err) }}
	if p.wireAddr != "" {
		wln, err := net.Listen("tcp", p.wireAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("wire listen %s: %w", p.wireAddr, err)
		}
		go func() { _ = srv.Serve(bctx, wln) }()
		fmt.Printf("gpsserve: wire fix streams on %s (resume tokens honored)\n", wln.Addr())
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ServeText(bctx, ln) }()

	// Periodic checkpointing off the hosted engines' lock-free snapshot cells.
	saverStop := make(chan struct{})
	saverDone := make(chan struct{})
	go func() {
		defer close(saverDone)
		if p.ckptPath == "" {
			return
		}
		t := time.NewTicker(p.ckptPeriod)
		defer t.Stop()
		for {
			select {
			case <-saverStop:
				return
			case <-t.C:
				saveCheckpoint(node.Snapshot(), p.ckptPath, h, clog)
			}
		}
	}()

	ticker := time.NewTicker(time.Duration(float64(time.Second) / p.rate))
	defer ticker.Stop()
	var ticks <-chan time.Time = ticker.C
	if ds != nil {
		// A recording is served once, never wrapped: journal records,
		// checkpoints and wire resume tokens all key on a monotonically
		// increasing epoch index.
		ticks = countTicks(ctx, ticker.C, ds.Len()-eng.ResumeEpoch())
	}
	node.Pace(eng, ticks)

	// Ordered drain. The primary engine is quiescent once Pace returns
	// and adopted engines once node.Wait returns (their runs share ctx),
	// so SnapshotFinal reads exact session state for the final checkpoint.
	close(saverStop)
	<-saverDone
	node.Wait()
	if p.ckptPath != "" {
		saveCheckpoint(node.SnapshotFinal(), p.ckptPath, h, clog)
	}
	// The engine is quiescent: no further incidents will be delivered,
	// so the capturer can drain its queue and the journal take its final
	// sync frame.
	if capturer != nil {
		capturer.close()
	}
	if jw := eng.Journal(); jw != nil {
		if cerr := jw.Close(); cerr != nil {
			p.logs.Component("journal").Warn("journal close failed", "err", cerr)
		} else {
			frames, records, bytes := jw.Stats()
			fmt.Printf("gpsserve: journal closed: %d frames, %d records, %d bytes\n", frames, records, bytes)
		}
	}
	h.startDrain()
	// Binary subscribers go first; a reconnecting client carries its
	// resume token to the node that adopts these sessions.
	hub.Shutdown()
	flushed := hub.Flush(p.drainWait)
	bcancel()
	serveFailed := <-serveErr
	st := eng.Stats()
	fmt.Printf("gpsserve: drained: batches enqueued=%d done=%d aborted=%d drained=%d conserved=%v flushed=%v\n",
		st.BatchesEnqueued, st.BatchesDone, st.BatchesAborted, st.BatchesDrained,
		st.BatchesConserved(), flushed)
	return serveFailed
}

// saveCheckpoint writes one checkpoint state to path and records it on
// the health tracker. An empty state (no session has completed a refresh
// interval yet) is skipped rather than overwriting a previous save.
func saveCheckpoint(st *checkpoint.State, path string, h *health, log *slog.Logger) {
	if len(st.Sessions) == 0 {
		return
	}
	if err := checkpoint.Save(path, st); err != nil {
		log.Warn("checkpoint save failed", "path", path, "err", err)
		return
	}
	h.recordCheckpoint(st.Epoch)
	log.Debug("checkpoint saved", "path", path, "epoch", st.Epoch, "sessions", len(st.Sessions))
}

// countTicks forwards the first n ticks of src and then closes, which
// ends a RunPaced run after exactly n epochs.
func countTicks(ctx context.Context, src <-chan time.Time, n int) <-chan time.Time {
	out := make(chan time.Time)
	go func() {
		defer close(out)
		for ; n > 0; n-- {
			select {
			case t := <-src:
				select {
				case out <- t:
				case <-ctx.Done():
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}
