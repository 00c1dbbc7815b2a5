// Package engine runs many independent GPS receiver sessions — each with
// its own station, trajectory, clock predictor and solver — over a sharded
// worker pool. It is the multi-receiver serving core behind cmd/gpsserve's
// -receivers mode and cmd/gpsbench's engine mode.
//
// Sharding model: receiver r is owned by shard r mod Workers for the
// engine's whole lifetime. A shard is one goroutine that steps its
// receivers through epochs strictly in order, so all per-receiver state
// (clock predictor, solver scratch) is single-threaded and the engine
// never locks on the fix path.
//
// Scratch ownership: each session owns one core.Scratch shared by its
// warm-start NR solver and its main solver (they run sequentially within
// a step). Combined with the reusable observation and NMEA buffers, the
// steady-state per-fix hot path — generate-free step over pregenerated
// epochs: linearize, solve, DOP, NMEA — performs zero heap allocations.
//
// Constellation sharing: all sessions observe the same sky, so the engine
// builds one constellation and one epochcache.Cache over the canonical
// epoch grid. Each epoch's satellite states are propagated once,
// published as an immutable snapshot, and read by every session on every
// shard; the per-receiver work (visibility mask, light-time/Sagnac
// emission, noise, solve) stays in the sessions.
//
// Determinism guarantee: every epoch is a pure function of (the receiver's
// mixed seed, station, index·Step), each receiver's epochs are processed
// in index order by exactly one shard, and batches only group consecutive
// indices for scheduling. Per-receiver output sequences are therefore
// identical for any Workers and BatchSize (cached snapshots hold exactly
// the state a lone generator computes); only interleaving across
// receivers varies.
package engine

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gpsdl/internal/clock"
	"gpsdl/internal/core"
	"gpsdl/internal/epochcache"
	"gpsdl/internal/fault"
	"gpsdl/internal/journal"
	"gpsdl/internal/orbit"
	"gpsdl/internal/quality"
	"gpsdl/internal/scenario"
	"gpsdl/internal/slo"
	"gpsdl/internal/telemetry"
)

// FixEvent is the engine's per-epoch output. GGA, RMC and Faults point
// into session-owned buffers and are valid only for the duration of the
// sink callback; copy them to retain. Err is set (and the solution fields
// zero) when the epoch failed to solve and the session could not coast.
type FixEvent struct {
	Receiver int
	Shard    int
	Epoch    int
	T        float64
	Sol      core.Solution
	HDOP     float64
	Sats     int
	// Solver names the fallback-chain member that produced the fix
	// ("coast" for a dead-reckoning fix).
	Solver string
	// Excluded is the observation index RAIM excluded, or -1.
	Excluded int
	// Suspect marks a fix carrying an unresolved integrity fault.
	Suspect bool
	// Coast marks a position-hold fix computed from the clock model.
	Coast bool
	// State is the session's health state after this epoch.
	State SessionState
	// Quality is the per-fix quality evidence (residual RMS, χ² test at
	// ChiSquareSigma). Populated when the epoch solved and either
	// Config.Quality or Config.JournalSink is set; zero otherwise.
	Quality core.FixQuality
	// Faults lists the fault-injector events applied to this epoch.
	Faults   []fault.Event
	Err      error
	GGA, RMC []byte
}

// FixSink receives every FixEvent. Shards call it concurrently, so it
// must be safe for concurrent use. A nil sink discards events.
type FixSink func(FixEvent)

// Config sizes and wires an Engine.
type Config struct {
	// Receivers is the number of independent receiver sessions (≥ 1).
	Receivers int
	// SessionIDs, when non-nil, names the global receiver ids this
	// engine hosts instead of the implicit 0..Receivers-1. Everything
	// derived per receiver — the mixed scenario seed, the station
	// template, fault programs, FixEvent.Receiver and checkpoint
	// records — is keyed by the global id, not the engine-local index,
	// so an engine hosting {1, 3} produces bit-identical output for
	// those receivers to a larger engine hosting {0, 1, 2, 3}. This is
	// what makes cross-node session migration possible: a survivor
	// node builds an engine over exactly the orphaned ids and restores
	// their checkpoint records. Ids must be unique and ≥ 0; Receivers
	// must be zero or match len(SessionIDs).
	SessionIDs []int
	// Workers is the shard count; ≤ 0 means GOMAXPROCS. It is clamped
	// to Receivers (a shard with no receivers would be useless).
	Workers int
	// Solver selects the per-receiver solver: "nr", "dlo", "dlg" or
	// "bancroft". Empty means "dlg" (the paper's headline algorithm).
	Solver string
	// Weighting maps each observation's reported C/N0 to a per-satellite
	// σ (core.SigmaFromCN0) and solves heteroscedastically: weighted
	// rows in NR, σ-scaled covariance terms in DLG. Off by default;
	// sigma-free epochs solve identically either way, so enabling it on
	// a CN0-free dataset is a no-op by construction.
	Weighting bool
	// Disruption runs the robust disruption detector before each solve:
	// pseudo-range innovations against the last good fix are scored with
	// median/MAD statistics and suspects have their σ inflated, so the
	// weighted solvers pull spoofed or jammed satellites toward
	// irrelevance without waiting for RAIM to exclude them. Implies
	// weighted solvers (the inflated σ must be honored); epochs with
	// down-weighted suspects report the session Degraded.
	Disruption bool
	// Seed is the base scenario seed; receiver r's seed is derived by
	// mixing (splitmix64), so every receiver sees distinct, reproducible
	// measurements and no (Seed, receiver) pair aliases another — the old
	// additive Seed+r scheme made e.g. Seed 7 receiver 0 identical to
	// Seed 6 receiver 1.
	Seed int64
	// Step is the epoch spacing in seconds; ≤ 0 means 1.
	Step float64
	// BatchSize is the number of consecutive epochs per scheduled job;
	// ≤ 0 means 32. It affects scheduling only, never results.
	BatchSize int
	// Stations supplies the receiver templates, assigned round-robin;
	// nil means scenario.Table51Stations().
	Stations []scenario.Station
	// Registry receives the engine's per-shard metrics; nil means a
	// private registry (Stats still works).
	Registry *telemetry.Registry
	// Sink receives every fix event; nil discards.
	Sink FixSink
	// Faults is an optional fault program applied to every receiver's
	// epoch stream (see internal/fault). Empty means fault-free.
	Faults fault.Program
	// FaultSeed drives the fault injector's burst noise; receiver r's
	// injector seed is mixed the same way as Seed. The same (Faults,
	// FaultSeed, Seed) triple reproduces bit-identical fix streams and
	// fault-event logs for any worker count.
	FaultSeed int64
	// ReceiverFaults, when non-nil, supplies a per-receiver fault program
	// that overrides Faults for receivers where it returns a non-nil
	// program — chaos tests use it to panic one receiver while its shard
	// neighbours run clean. Must be deterministic in r.
	ReceiverFaults func(r int) fault.Program
	// RestartBudget is how many panic restarts a session gets before it
	// is failed for the rest of the run; ≤ 0 means 8.
	RestartBudget int
	// CheckpointEvery refreshes each session's lock-free checkpoint cell
	// every N epochs, making Engine.Snapshot safe mid-run; 0 disables
	// (the default: refreshing allocates, and the hot path stays
	// allocation-free without it).
	CheckpointEvery int
	// Quality enables the solution-quality observability layer (sliding
	// quality windows, SLO/error-budget evaluation, /debug/status data).
	// Nil disables it and the fix path pays nothing for it.
	Quality *QualityConfig
	// JournalSink, when non-nil, enables the black-box flight journal:
	// every session-epoch is recorded (see internal/journal), encoded
	// off the solve path and framed to the sink at shard batch
	// boundaries. Typically an *os.File; the engine writes the header
	// in New and a caller retrieves the writer via Journal() for tail
	// segments and the final Close.
	JournalSink io.Writer
	// JournalOptions tunes the journal writer (sync cadence, tail-ring
	// depth). A nil Registry inside is replaced with Config.Registry so
	// the gps_journal_* counters land in the engine's registry.
	JournalOptions journal.Options
	// JournalCaptureEvery is the per-session cadence (in epochs) of
	// full observation-set captures for offline replay; flagged epochs
	// (χ² failure, RAIM exclusion, suspect fix) are always captured.
	// ≤ 0 means 64.
	JournalCaptureEvery int
	// OnIncident, when non-nil, receives incident events (SLO page
	// transitions, recovered panics, exhausted restart budgets). See
	// Incident for the delivery contract.
	OnIncident func(Incident)
}

// queueDepth is each shard's job-channel capacity.
const queueDepth = 4

// job is a half-open range of epoch indices [e0, e1) for one shard.
type job struct {
	e0, e1 int
}

// shard owns a disjoint subset of the sessions and a job queue.
type shard struct {
	id       int
	sessions []*session
	jobs     chan job
	m        *shardMetrics

	// cache is the engine's shared epoch cache. The shard warms each
	// epoch's snapshot once before stepping its live sessions, so
	// same-epoch solves across the shard batch against one propagation.
	cache *epochcache.Cache

	// Flight journal (nil when Config.JournalSink is nil): the shard's
	// batch encoder, the shared writer it flushes to at batch
	// boundaries, and the shared write-error counter.
	jenc  *journal.Encoder
	jw    *journal.Writer
	jerrs *telemetry.Counter

	// onIncident forwards supervision incidents (nil when unset).
	onIncident func(Incident)
}

// Engine is a sharded multi-receiver fix engine. Create with New; run
// with Run or RunPaced. Runs must not overlap, but a returned engine can
// be run again (receiver state — predictors, scratch — carries over).
type Engine struct {
	cfg      Config
	shards   []*shard
	sessions []*session // all sessions, indexed by receiver
	cm       *chainMetrics
	cache    *epochcache.Cache // shared snapshot cache
	resume   int               // first epoch index for RunPaced, set by Restore

	// Quality layer (nil when Config.Quality is nil).
	qcfg *QualityConfig
	qm   *qualityMetrics

	// Flight journal (nil when Config.JournalSink is nil).
	jw *journal.Writer
}

// chainMetrics bundles the engine-wide (cross-shard) fallback, RAIM,
// DLG covariance-path, disruption and clock-predictor counters shared by
// every session; the underlying counters are atomic, so sharing across
// shard goroutines is safe.
type chainMetrics struct {
	fallback *core.FallbackMetrics
	raim     *core.RAIMMetrics
	gls      *core.GLSMetrics
	disrupt  *core.DisruptionMetrics
	clock    *clock.Metrics
}

// New builds the engine: sessions, shards, queues and metrics. It
// validates the configuration and resolves defaults as documented on
// Config.
func New(cfg Config) (*Engine, error) {
	if cfg.SessionIDs != nil {
		if len(cfg.SessionIDs) == 0 {
			return nil, fmt.Errorf("engine: SessionIDs must not be empty when set")
		}
		if cfg.Receivers != 0 && cfg.Receivers != len(cfg.SessionIDs) {
			return nil, fmt.Errorf("engine: Receivers=%d contradicts len(SessionIDs)=%d", cfg.Receivers, len(cfg.SessionIDs))
		}
		cfg.Receivers = len(cfg.SessionIDs)
		seen := make(map[int]struct{}, len(cfg.SessionIDs))
		for _, id := range cfg.SessionIDs {
			if id < 0 {
				return nil, fmt.Errorf("engine: negative session id %d", id)
			}
			if _, dup := seen[id]; dup {
				return nil, fmt.Errorf("engine: duplicate session id %d", id)
			}
			seen[id] = struct{}{}
		}
	}
	if cfg.Receivers < 1 {
		return nil, fmt.Errorf("engine: Receivers must be >= 1, have %d", cfg.Receivers)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers > cfg.Receivers {
		cfg.Workers = cfg.Receivers
	}
	if cfg.Solver == "" {
		cfg.Solver = "dlg"
	}
	if cfg.Step <= 0 {
		cfg.Step = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.RestartBudget <= 0 {
		cfg.RestartBudget = 8
	}
	if cfg.JournalCaptureEvery <= 0 {
		cfg.JournalCaptureEvery = 64
	}
	if cfg.Stations == nil {
		cfg.Stations = scenario.Table51Stations()
	}
	if len(cfg.Stations) == 0 {
		return nil, fmt.Errorf("engine: empty station list")
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	e := &Engine{cfg: cfg}
	e.cm = &chainMetrics{
		fallback: core.NewFallbackMetrics(cfg.Registry),
		raim:     core.NewRAIMMetrics(cfg.Registry),
		gls:      core.NewGLSMetrics(cfg.Registry),
		disrupt:  core.NewDisruptionMetrics(cfg.Registry),
		clock:    clock.NewMetrics(cfg.Registry),
	}
	// One constellation, one snapshot ring, shared by every session.
	// Capacity covers the maximum epoch skew between shards (each can
	// hold queueDepth queued batches plus one in flight) with slack.
	ccap := (queueDepth + 2) * cfg.BatchSize
	if ccap < epochcache.DefaultCapacity {
		ccap = epochcache.DefaultCapacity
	}
	cache, err := epochcache.New(orbit.DefaultConstellation(), 0, cfg.Step,
		epochcache.Options{Capacity: ccap, Registry: cfg.Registry})
	if err != nil {
		return nil, fmt.Errorf("engine: epoch cache: %w", err)
	}
	e.cache = cache
	e.shards = make([]*shard, cfg.Workers)
	for i := range e.shards {
		e.shards[i] = &shard{
			id:    i,
			m:     newShardMetrics(cfg.Registry, strconv.Itoa(i)),
			cache: e.cache,
		}
	}
	e.sessions = make([]*session, cfg.Receivers)
	for idx := 0; idx < cfg.Receivers; idx++ {
		// The global receiver id drives all derived state (seed,
		// station, faults); the engine-local index only places the
		// session on a shard.
		id := idx
		if cfg.SessionIDs != nil {
			id = cfg.SessionIDs[idx]
		}
		sh := e.shards[idx%cfg.Workers]
		s, err := newSession(cfg, id, sh.id, sh.m, e.cm, e.cache)
		if err != nil {
			return nil, err
		}
		e.sessions[idx] = s
		sh.sessions = append(sh.sessions, s)
	}
	for _, sh := range e.shards {
		sh.groupSkies()
	}
	if cfg.Quality != nil {
		qc := cfg.Quality.withDefaults()
		e.qcfg = &qc
		for _, s := range e.sessions {
			ev, err := slo.NewEvaluator(qc.Objectives)
			if err != nil {
				return nil, err
			}
			s.qual = &sessionQuality{
				evalEvery: uint64(qc.EvalEvery),
				win:       quality.NewWindow(qc.Window),
				eval:      ev,
			}
			if cfg.OnIncident != nil {
				wireIncidents(s, ev, cfg.OnIncident)
			}
		}
		e.qm = newQualityMetrics(cfg.Registry, qc.Objectives)
	}
	if cfg.OnIncident != nil {
		for _, sh := range e.shards {
			sh.onIncident = cfg.OnIncident
		}
	}
	if cfg.JournalSink != nil {
		opt := cfg.JournalOptions
		if opt.Registry == nil {
			opt.Registry = cfg.Registry
		}
		jw, err := journal.NewWriter(cfg.JournalSink, e.journalMeta(), opt)
		if err != nil {
			return nil, fmt.Errorf("engine: journal: %w", err)
		}
		e.jw = jw
		jerrs := cfg.Registry.Counter("engine_journal_write_errors_total",
			"Journal frame writes that failed (records dropped)")
		for _, sh := range e.shards {
			sh.jw = jw
			sh.jerrs = jerrs
			sh.jenc = &journal.Encoder{}
		}
		for _, s := range e.sessions {
			s.jq = &sessionJournal{
				enc:          e.shards[s.shard].jenc,
				captureEvery: uint64(cfg.JournalCaptureEvery),
			}
		}
	}
	return e, nil
}

// groupSkies gives each set of the shard's sessions whose generators
// share a sky key (receivers at one station) one sky slot, so the
// station's sky is built once per epoch and shard, not once per session.
func (sh *shard) groupSkies() {
	slots := make(map[scenario.SkyKey]*skySlot)
	for _, s := range sh.sessions {
		k := s.gen.SkyKey()
		if slots[k] == nil {
			slots[k] = &skySlot{}
		}
		s.sky = slots[k]
	}
}

// Pregenerate computes and caches epochs [0, n) for every session, so a
// subsequent run measures only the fix path (solve, DOP, NMEA), not
// scenario generation. Benchmarks use it; serving does not need it. The
// loop is epoch-outer so all sessions generate a given epoch back to
// back: with the shared epoch cache that is one constellation propagation
// per epoch total (session-outer order would wrap the snapshot ring
// between sessions and evict every epoch before its next reader), and
// each shard's sky slots build one sky per station and epoch.
func (e *Engine) Pregenerate(n int) error {
	for _, s := range e.sessions {
		s.pre = make([]scenario.Epoch, n)
	}
	for i := 0; i < n; i++ {
		for _, s := range e.sessions {
			t := float64(i) * s.step_
			obs, err := s.appendLive(nil, i, t)
			if err != nil {
				for _, s2 := range e.sessions {
					s2.pre = nil
				}
				return fmt.Errorf("engine: receiver %d epoch %d: %w", s.recv, i, err)
			}
			s.pre[i] = scenario.Epoch{T: t, Obs: obs}
		}
	}
	return nil
}

// Preload installs recorded epochs (a loaded dataset) in every session's
// pregenerated-epoch slot, the one Pregenerate fills: runs then solve
// epoch i from epochs[i] instead of generating it, and an index past the
// end is an epoch error. Sessions share the slice read-only. Call it
// before any run.
func (e *Engine) Preload(epochs []scenario.Epoch) {
	for _, s := range e.sessions {
		s.pre = epochs
	}
}

// Run processes epochs [0, epochs) on every receiver, returning when all
// work is done or ctx is canceled (then ctx.Err() is returned). Batches
// cut short by cancellation are counted aborted; batches received after
// cancellation are returned unprocessed and counted drained, so the
// conservation law enqueued == done + aborted + drained holds on return.
func (e *Engine) Run(ctx context.Context, epochs int) error {
	return e.RunRange(ctx, 0, epochs)
}

// RunRange is Run over the half-open epoch range [e0, e1). A restored
// engine resumes with RunRange(ctx, st.Epoch, end) so epoch indices —
// and therefore epoch times, fault windows, and threshold-clock resets —
// continue exactly where the checkpointed process stopped.
func (e *Engine) RunRange(ctx context.Context, e0, e1 int) error {
	wg := e.start(ctx)
enqueue:
	for start := e0; start < e1; start += e.cfg.BatchSize {
		end := start + e.cfg.BatchSize
		if end > e1 {
			end = e1
		}
		for _, sh := range e.shards {
			select {
			case sh.jobs <- job{e0: start, e1: end}:
				sh.m.enqueued.Inc()
			case <-ctx.Done():
				break enqueue
			}
		}
	}
	for _, sh := range e.shards {
		close(sh.jobs)
	}
	wg.Wait()
	return ctx.Err()
}

// RunPaced processes one epoch per tick on every receiver — the serving
// mode, where epochs arrive in real time. A shard that is still busy when
// its next tick lands skips that epoch (counted in skipped_ticks) rather
// than falling behind. Epoch indices start at the restore point (0 on a
// cold engine). Returns when ticks closes or ctx is canceled.
func (e *Engine) RunPaced(ctx context.Context, ticks <-chan time.Time) error {
	wg := e.start(ctx)
	i := e.resume
loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case _, ok := <-ticks:
			if !ok {
				break loop
			}
			for _, sh := range e.shards {
				select {
				case sh.jobs <- job{e0: i, e1: i + 1}:
					sh.m.enqueued.Inc()
				default:
					sh.m.skippedTicks.Inc()
				}
			}
			i++
		}
	}
	for _, sh := range e.shards {
		close(sh.jobs)
	}
	wg.Wait()
	return ctx.Err()
}

// start gives every shard a fresh job queue and launches its goroutine,
// returning the WaitGroup the dispatcher waits on after closing the
// queues. Fresh channels per run are what make the engine re-runnable.
func (e *Engine) start(ctx context.Context) *sync.WaitGroup {
	wg := &sync.WaitGroup{}
	for _, sh := range e.shards {
		sh.jobs = make(chan job, queueDepth)
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.run(ctx)
		}(sh)
	}
	return wg
}

// run drains the shard's queue. A batch cut short mid-way by cancellation
// counts aborted; a batch received after cancellation is returned
// untouched and counts drained, so the dispatcher's close never strands
// a queued batch and the drain summary can tell the two apart.
func (sh *shard) run(ctx context.Context) {
	// Warm the shared epoch cache only when some session will actually
	// generate live; pregenerated sessions never read it, and warming
	// would then pay a propagation per epoch for nothing.
	warm := false
	for _, s := range sh.sessions {
		if s.pre == nil {
			warm = true
			break
		}
	}
	for jb := range sh.jobs {
		sh.m.queueDepth.Set(float64(len(sh.jobs)))
		if ctx.Err() != nil {
			sh.m.drained.Inc()
			continue
		}
		aborted := false
		if sh.jenc != nil {
			sh.jenc.Begin(sh.id, uint64(jb.e0))
		}
		for i := jb.e0; i < jb.e1; i++ {
			if ctx.Err() != nil {
				aborted = true
				break
			}
			if warm {
				// One propagation covers every session on the shard for
				// this epoch (and, ring permitting, the other shards').
				// Errors are not dropped: a failed snapshot resurfaces
				// from each session's SkyAt as an epoch error.
				_, _ = sh.cache.At(i)
			}
			for _, s := range sh.sessions {
				sh.stepSession(s, i)
			}
		}
		sh.flushJournal(uint64(jb.e1 - 1))
		if aborted {
			sh.m.aborted.Inc()
		} else {
			sh.m.done.Inc()
		}
	}
	sh.m.queueDepth.Set(0)
}

// stepSession is the per-epoch supervisor around session.step: it skips
// failed and quarantined sessions (one sink event and one counter each,
// keeping event conservation exact), recovers panics into isolated
// session restarts, and refreshes the session's checkpoint cell. One
// receiver panicking or backing off never disturbs its shard neighbours.
func (sh *shard) stepSession(s *session, i int) {
	if s.failed {
		sh.m.failedEpochs.Inc()
		s.noFix(i, FixEvent{Err: errSessionFailed})
		return
	}
	if s.quarUntil > i {
		sh.m.quarantinedEpochs.Inc()
		s.noFix(i, FixEvent{Err: errSessionQuarantined})
		return
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				sh.superviseAfterPanic(s, i, r)
			}
		}()
		s.step(i)
	}()
	s.nextEpoch = i + 1
	if s.ckptEvery > 0 && (i+1)%s.ckptEvery == 0 {
		s.ckpt.Store(s.snapshot(i + 1))
	}
}

// superviseAfterPanic converts a recovered panic into an isolated
// session failure: exponential epoch-indexed backoff (2, 4, 8, …, capped
// at maxQuarantineEpochs) while the restart budget lasts, permanent
// failure after. Backoff is counted in epoch indices, never wall-clock,
// so supervision is deterministic for any worker count.
func (sh *shard) superviseAfterPanic(s *session, i int, r any) {
	sh.m.panics.Inc()
	s.restarts++
	if s.restarts > s.restartBudget {
		s.failed = true
		s.setState(StateFailed)
	} else {
		backoff := 1 << s.restarts
		if backoff > maxQuarantineEpochs {
			backoff = maxQuarantineEpochs
		}
		s.quarUntil = i + 1 + backoff
		s.setState(StateQuarantined)
		s.restart()
		sh.m.restarts.Inc()
	}
	// The panicked epoch produced no fix. It still enters the quality
	// stream, so availability accounting never loses an epoch; observing
	// the same epoch twice (if the panic struck after the session's own
	// observe) just replaces the ring slot.
	err := fmt.Errorf("engine: receiver %d panicked at epoch %d: %v", s.recv, i, r)
	func() {
		// A panicking sink must not take the supervisor down with it.
		defer func() { _ = recover() }()
		s.noFix(i, FixEvent{Err: err})
	}()
	if sh.onIncident != nil {
		kind := IncidentPanic
		if s.failed {
			kind = IncidentSessionFailed
		}
		sh.onIncident(Incident{Kind: kind, Receiver: s.recv, Shard: s.shard,
			Epoch: uint64(i), Detail: fmt.Sprint(r)})
	}
}

// maxQuarantineEpochs caps post-panic backoff so a long-lived session
// with a mid-life panic streak still gets probed regularly.
const maxQuarantineEpochs = 256

// Stats is an engine-wide snapshot summed over shards.
type Stats struct {
	Fixes, CoastFixes, SolveFailures, EpochErrors uint64
	BatchesEnqueued, BatchesDone, BatchesAborted  uint64
	BatchesDrained                                uint64
	SkippedTicks                                  uint64
	FaultEvents                                   uint64
	Fallbacks, SuspectFixes, RAIMExclusions       uint64
	Panics, Restarts                              uint64
	QuarantinedEpochs, FailedEpochs               uint64
	BreakerOpens, SLODowngrades                   uint64
}

// Stats sums the per-shard counters. Safe to call at any time; exact once
// a run has returned.
func (e *Engine) Stats() Stats {
	var st Stats
	for _, sh := range e.shards {
		st.Fixes += sh.m.fixes.Value()
		st.CoastFixes += sh.m.coastFixes.Value()
		st.SolveFailures += sh.m.solveFailures.Value()
		st.EpochErrors += sh.m.epochErrors.Value()
		st.BatchesEnqueued += sh.m.enqueued.Value()
		st.BatchesDone += sh.m.done.Value()
		st.BatchesAborted += sh.m.aborted.Value()
		st.BatchesDrained += sh.m.drained.Value()
		st.SkippedTicks += sh.m.skippedTicks.Value()
		st.FaultEvents += sh.m.faultEvents.Value()
		st.Panics += sh.m.panics.Value()
		st.Restarts += sh.m.restarts.Value()
		st.QuarantinedEpochs += sh.m.quarantinedEpochs.Value()
		st.FailedEpochs += sh.m.failedEpochs.Value()
		st.BreakerOpens += sh.m.breakerOpens.Value()
		st.SLODowngrades += sh.m.sloDowngrades.Value()
	}
	st.Fallbacks = e.cm.fallback.Fallbacks.Value()
	st.SuspectFixes = e.cm.fallback.Suspects.Value()
	st.RAIMExclusions = e.cm.raim.Exclusions.Value()
	return st
}

// BatchesConserved reports the drain conservation law the graceful
// shutdown path asserts: every enqueued batch was processed, cut short,
// or drained — none stranded.
func (st Stats) BatchesConserved() bool {
	return st.BatchesEnqueued == st.BatchesDone+st.BatchesAborted+st.BatchesDrained
}

// ShardHealth is one shard's session-state census, for /healthz.
type ShardHealth struct {
	Shard       int    `json:"shard"`
	Healthy     uint64 `json:"healthy"`
	Degraded    uint64 `json:"degraded"`
	Coasting    uint64 `json:"coasting"`
	Quarantined uint64 `json:"quarantined,omitempty"`
	Failed      uint64 `json:"failed,omitempty"`
	BreakerOpen uint64 `json:"breaker_open,omitempty"`
	Panics      uint64 `json:"panics,omitempty"`
	Restarts    uint64 `json:"restarts,omitempty"`
}

// ShardHealth reports how many of each shard's sessions are currently in
// each health state, plus the shard's supervision counters. The gauges
// are updated atomically at state transitions, so this is safe to call
// while a run is in flight.
func (e *Engine) ShardHealth() []ShardHealth {
	out := make([]ShardHealth, len(e.shards))
	for i, sh := range e.shards {
		out[i] = ShardHealth{
			Shard:       sh.id,
			Healthy:     uint64(sh.m.healthySessions.Value()),
			Degraded:    uint64(sh.m.degradedSessions.Value()),
			Coasting:    uint64(sh.m.coastingSessions.Value()),
			Quarantined: uint64(sh.m.quarantinedSessions.Value()),
			Failed:      uint64(sh.m.failedSessions.Value()),
			BreakerOpen: uint64(sh.m.breakerOpenSessions.Value()),
			Panics:      sh.m.panics.Value(),
			Restarts:    sh.m.restarts.Value(),
		}
	}
	return out
}

// Workers reports the resolved shard count.
func (e *Engine) Workers() int { return len(e.shards) }

// PrimarySolver is the name FixEvent.Solver reports for a fix from the
// sessions' primary solver, Config.Solver ("DLG-fast" for "dlg").
func (e *Engine) PrimarySolver() string { return e.sessions[0].chain.Solvers()[0].Name() }

// SessionIDs reports the global receiver ids this engine hosts, in
// construction order.
func (e *Engine) SessionIDs() []int {
	ids := make([]int, len(e.sessions))
	for i, s := range e.sessions {
		ids[i] = s.recv
	}
	return ids
}

// canonicalChain is the fallback order of ISSUE 4: the iterative
// reference first, then the paper's direct methods by decreasing
// sophistication, then the predictor-free closed form as the last resort.
var canonicalChain = [4]string{"nr", "dlg", "dlo", "bancroft"}

// solverParams carries the session-wide solver options down through
// chain construction: whether solvers honor per-observation σ, and the
// shared DLG path counters.
type solverParams struct {
	weighted bool
	gls      *core.GLSMetrics
}

// newChain builds the session's fallback chain: the primary solver
// followed by the remaining canonical solvers in order, all sharing the
// session scratch (they run sequentially within a step).
func newChain(primary string, pred clock.Predictor, sc *core.Scratch, sp solverParams) (*core.FallbackChain, error) {
	first, err := newSolver(primary, pred, sc, sp)
	if err != nil {
		return nil, err
	}
	solvers := make([]core.Solver, 0, len(canonicalChain))
	solvers = append(solvers, first)
	for _, name := range canonicalChain {
		if name == primary {
			continue
		}
		s, err := newSolver(name, pred, sc, sp)
		if err != nil {
			return nil, err
		}
		solvers = append(solvers, s)
	}
	return core.NewFallbackChain(solvers...)
}

// newSolver builds the per-session solver wired to the session's scratch.
func newSolver(name string, pred clock.Predictor, sc *core.Scratch, sp solverParams) (core.Solver, error) {
	switch name {
	case "nr":
		s := &core.NRSolver{Scratch: sc}
		if sp.weighted {
			s.Weight = core.SigmaWeight
		}
		return s, nil
	case "dlo":
		s := core.NewDLOSolver(pred)
		s.Scratch = sc
		return s, nil
	case "dlg":
		// The O(m) Sherman–Morrison route (Section 6 extension 3); the
		// differential harness in internal/core pins it to the paper's
		// dense route and the explicit eq. 4-21 oracle.
		s := core.NewDLGSolver(pred)
		s.Scratch = sc
		s.Variant = core.VariantFast
		s.Weighted = sp.weighted
		s.Metrics = sp.gls
		return s, nil
	case "bancroft":
		return core.BancroftSolver{}, nil
	default:
		return nil, fmt.Errorf("engine: unknown solver %q (want nr, dlo, dlg or bancroft)", name)
	}
}
