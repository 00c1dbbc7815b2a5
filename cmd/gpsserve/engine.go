// The serving pipeline: gpsserve always runs internal/engine's sharded
// fix engine, with one session by default. Every receiver's GGA/RMC
// stream is fanned out through the same broadcaster, the admin endpoint
// serves the engine's per-shard metrics (fixes, queue depth,
// solve-latency histograms) next to the broadcaster/health families, and
// /healthz is fed by fix events from all receivers. -dataset serves a
// recorded file through a one-session engine instead of live generation.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"strings"
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

// loadDataset loads a dataset in either on-disk format by extension and
// rejects an empty one.
func loadDataset(path string) (*scenario.Dataset, error) {
	var ds *scenario.Dataset
	var err error
	if strings.HasSuffix(path, ".bin") {
		ds, err = scenario.LoadBinaryFile(path)
	} else {
		ds, err = scenario.LoadFile(path)
	}
	if err != nil {
		return nil, err
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("dataset %s has no epochs", path)
	}
	return ds, nil
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
		if ds, err = loadDataset(p.dataset); err != nil {
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
	b := NewBroadcaster()
	// A fix is stale once ~10 epoch periods have passed without one
	// (floored at 10 s so slow streaming rates are not declared dead).
	maxAge := time.Duration(10 * float64(time.Second) / p.rate)
	if maxAge < 10*time.Second {
		maxAge = 10 * time.Second
	}
	tel := newServerTelemetry(reg, b, p.logs, maxAge)
	h := tel.health
	h.ckptPath = p.ckptPath
	ckptEvery := 0
	if p.ckptPath != "" {
		ckptEvery = p.ckptEvery
	}
	if p.incidentDir != "" && ckptEvery == 0 {
		// Incident bundles embed a live snapshot; the lock-free
		// checkpoint cells must refresh even without -checkpoint.
		ckptEvery = p.ckptEvery
	}
	if p.wireAddr != "" && ckptEvery == 0 {
		// Cluster serving needs live checkpoint cells (the handoff
		// payload) and uses the same cadence as the wire keyframe blocks,
		// so a handoff point always lands on a chain-restart boundary.
		ckptEvery = p.ckptEvery
	}
	var jfile *os.File
	if p.journalPath != "" {
		jfile, err = os.Create(p.journalPath)
		if err != nil {
			return fmt.Errorf("-journal: %w", err)
		}
		defer jfile.Close()
	}
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
		Sink:            tel.sink(b),
	}
	if len(p.sessions) > 0 {
		ecfg.Receivers = 0
		ecfg.SessionIDs = p.sessions
	}
	if jfile != nil {
		ecfg.JournalSink = jfile
		ecfg.JournalOptions = journal.Options{SyncEvery: p.journalSync}
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		return err
	}
	if ds != nil {
		eng.Preload(ds.Epochs)
	}
	tel.eng, tel.inc = eng, capturer
	h.shards = eng.ShardHealth
	var node *cluster.Node
	if p.wireAddr != "" {
		// The cluster serving tier: a Node owning the wire hub plus this
		// primary engine, with the /cluster/* control plane on the admin
		// mux. Adopted engines are built from a copy of this exact config
		// (same seed/solver/stations), which is what makes handed-off
		// streams bit-identical to the dead node's.
		node = cluster.NewNode(ctx, cluster.NodeConfig{
			Base:      ecfg,
			Rate:      p.rate,
			Hub:       wire.HubConfig{KeyframeEvery: ckptEvery},
			Registry:  reg,
			Log:       p.logs.Component("cluster"),
			OnRestore: h.recordRestore,
		})
		node.Track(eng)
		// Set before the engine runs, so shard goroutines only ever
		// observe the final value in the sink.
		tel.node = node
	}
	if capturer != nil {
		capturer.start(eng, h, configSnapshot(p))
	}
	clog := p.logs.Component("checkpoint")
	// One shared family for every restore path (startup and handoff
	// adoptions) — the registry dedupes by name, so this is the same
	// counter cluster.NewNode registered when -wire is on.
	restoreFails := reg.Counter("gps_restore_failures_total",
		"Checkpoint restore attempts that fell back to cold start (corrupt, unreadable, or rejected checkpoints).")
	if p.restore {
		restoreCheckpoint(eng, p.ckptPath, h, restoreFails, clog)
	}
	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", p.addr, err)
	}
	nSessions := p.receivers
	if len(p.sessions) > 0 {
		nSessions = len(p.sessions)
	}
	fmt.Printf("gpsserve: engine mode, %d receivers × %s over %d workers on %s (%g epoch/s each)\n",
		nSessions, p.solver, eng.Workers(), ln.Addr(), p.rate)
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
	// The broadcaster and admin endpoint run on their own context so the
	// SIGTERM drain is ordered: the engine stops first, the final
	// checkpoint is written, queued sentences flush to well-behaved
	// clients, and only then do connections (and /healthz) go away.
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
	if node != nil {
		wln, err := net.Listen("tcp", p.wireAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("wire listen %s: %w", p.wireAddr, err)
		}
		ws := &wire.Server{Hub: node.Hub}
		go func() { _ = ws.Serve(bctx, wln) }()
		fmt.Printf("gpsserve: wire fix streams on %s (resume tokens honored)\n", wln.Addr())
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- b.Serve(bctx, ln) }()

	// Periodic checkpointing off the engine's lock-free snapshot cells.
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
				if node != nil {
					// The merged node snapshot covers adopted sessions too.
					saveCheckpoint(node.Snapshot(), p.ckptPath, h, clog)
				} else {
					saveCheckpoint(eng.Snapshot(), p.ckptPath, h, clog)
				}
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
	err = paceEngine(ctx, eng, ticks, p.logs.Component("engine"))

	// Ordered drain. The engine is quiescent once RunPaced returns (and
	// adopted engines once node.Wait returns — their pacers share ctx),
	// so SnapshotFinal reads exact session state for the final checkpoint.
	close(saverStop)
	<-saverDone
	if node != nil {
		node.Wait()
	}
	if p.ckptPath != "" {
		if node != nil {
			saveCheckpoint(node.SnapshotFinal(), p.ckptPath, h, clog)
		} else {
			saveCheckpoint(eng.SnapshotFinal(), p.ckptPath, h, clog)
		}
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
	if node != nil {
		// Binary subscribers get their channels closed; a reconnecting
		// client carries its resume token to the node that adopts these
		// sessions.
		node.Hub.Shutdown()
	}
	flushed := b.Flush(p.drainWait)
	bcancel()
	cancelErr := <-serveErr
	st := eng.Stats()
	fmt.Printf("gpsserve: drained: batches enqueued=%d done=%d aborted=%d drained=%d conserved=%v flushed=%v\n",
		st.BatchesEnqueued, st.BatchesDone, st.BatchesAborted, st.BatchesDrained,
		st.BatchesConserved(), flushed)
	if err != nil && ctx.Err() == nil {
		return err
	}
	if cancelErr != nil && !errors.Is(cancelErr, context.Canceled) {
		return cancelErr
	}
	return nil
}

// restoreCheckpoint resumes eng from the checkpoint at path. Every
// failure mode — missing file, corrupt or truncated payload,
// configuration mismatch — degrades to a logged cold start rather than
// an error: a server that cannot resume should still serve. Failures
// are no longer silent beyond the log line: each one increments
// gps_restore_failures_total, and the outcome (ok / cold-start /
// corrupt / rejected) is recorded on the health tracker for /healthz
// and /debug/status.
func restoreCheckpoint(eng *engine.Engine, path string, h *health,
	failures *telemetry.Counter, log *slog.Logger) {
	record := func(outcome, detail string, sessions, epoch int) {
		h.recordRestore(cluster.RestoreOutcome{
			Outcome: outcome, Detail: detail, Sessions: sessions, Epoch: epoch,
		})
	}
	st, err := checkpoint.Load(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// A missing file is the normal first boot, not a failure.
		record("cold-start", "no checkpoint file", 0, 0)
		log.Info("no checkpoint; cold start", "path", path)
		return
	case errors.Is(err, checkpoint.ErrCorrupt):
		failures.Inc()
		record("corrupt", err.Error(), 0, 0)
		log.Warn("checkpoint corrupt; cold start", "path", path, "err", err)
		return
	case err != nil:
		failures.Inc()
		record("corrupt", err.Error(), 0, 0)
		log.Warn("checkpoint unreadable; cold start", "path", path, "err", err)
		return
	}
	n, err := eng.Restore(st)
	if err != nil {
		failures.Inc()
		record("rejected", err.Error(), 0, 0)
		log.Warn("checkpoint rejected; cold start", "path", path, "err", err)
		return
	}
	record("ok", "", n, st.Epoch)
	log.Info("restored from checkpoint", "path", path, "sessions", n, "epoch", st.Epoch)
	fmt.Printf("gpsserve: restored %d sessions from %s, resuming at epoch %d\n", n, path, st.Epoch)
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

// paceEngine drives RunPaced off wall-clock ticks and logs a summary
// when the run ends.
func paceEngine(ctx context.Context, eng *engine.Engine, ticks <-chan time.Time, log *slog.Logger) error {
	err := eng.RunPaced(ctx, ticks)
	st := eng.Stats()
	log.Info("engine stopped",
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
	if err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}
