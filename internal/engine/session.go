package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"gpsdl/internal/checkpoint"
	"gpsdl/internal/clock"
	"gpsdl/internal/core"
	"gpsdl/internal/epochcache"
	"gpsdl/internal/eval"
	"gpsdl/internal/fault"
	"gpsdl/internal/geo"
	"gpsdl/internal/nmea"
	"gpsdl/internal/quality"
	"gpsdl/internal/rng"
	"gpsdl/internal/scenario"
)

// SessionState is a session's health: Healthy fixes come from a clean
// primary solve; Degraded fixes needed a fallback solver, a RAIM
// exclusion, or carry an unresolved integrity fault; Coasting fixes hold
// the last good position on the clock model because the sky (fewer than
// 4 satellites, or no solver converging) cannot support a solve;
// Quarantined sessions panicked and sit in exponential backoff before
// the supervisor restarts them; Failed sessions exhausted their restart
// budget and are skipped for the rest of the run.
type SessionState uint8

// Session health states, in order of increasing trouble.
const (
	StateHealthy SessionState = iota
	StateDegraded
	StateCoasting
	StateQuarantined
	StateFailed
)

// String returns the state's /healthz name.
func (st SessionState) String() string {
	switch st {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateCoasting:
		return "coasting"
	case StateQuarantined:
		return "quarantined"
	case StateFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// stateFromName is String's inverse, for checkpoint restore. Unknown
// names (and the transient supervision states, which do not survive a
// restart) map to StateHealthy.
func stateFromName(name string) SessionState {
	switch name {
	case "degraded":
		return StateDegraded
	case "coasting":
		return StateCoasting
	default:
		return StateHealthy
	}
}

// Receiver-position plausibility band for the warm-start predictor feed:
// anything outside [Earth surface − 1000 km, +1000 km] is a poisoned
// solve (gross fault) that must not recalibrate the clock model.
const (
	minPlausibleNorm = 5.4e6
	maxPlausibleNorm = 7.4e6
)

// plausible reports whether p lies inside the plausibility band.
func plausible(p geo.ECEF) bool {
	n := p.Norm()
	return n >= minPlausibleNorm && n <= maxPlausibleNorm
}

// breakerThreshold is the consecutive-failure count that opens a
// session's circuit breaker.
const breakerThreshold = 8

// session is one receiver's complete state: scenario generator, fault
// injector, clock predictor, solver fallback chain, health state, and the
// reusable buffers that keep the steady-state step allocation-free. A
// session is owned by exactly one shard and never touched concurrently.
type session struct {
	recv    int
	shard   int
	step_   float64 // epoch spacing (cfg.Step); step is the method
	station string  // scenario station ID, echoed into checkpoints

	gen    *scenario.Generator
	sky    *skySlot        // the shard's sky of this session's station
	inj    *fault.Injector // nil when the run is fault-free
	pred   clock.Predictor
	warm   *core.NRSolver // feeds the predictor, warm-started from warmGuess
	chain  *core.FallbackChain
	solver string       // primary solver name, kept for restart
	sp     solverParams // weighting, shared path counters
	cm     *chainMetrics
	sink   FixSink
	m      *shardMetrics

	// C/N0-driven weighting and the disruption detector (Config.Weighting
	// and Config.Disruption). weighting maps CN0 → Observation.Sigma;
	// disrupt, when non-nil, scores innovations and inflates suspect σ.
	weighting bool
	disrupt   *core.DisruptionDetector

	state     SessionState
	lastGood  core.Solution // most recent non-suspect fix, for coasting
	lastGoodT float64       // receiver time of lastGood
	haveGood  bool
	warmGuess core.Solution // the feed's NR start; zero is the cold start
	feedIters int           // iterations of the last predictor-feed solve (0 = failed)

	// Circuit breaker: consecFail counts consecutive full-chain
	// failures; at breakerThreshold the breaker opens, and the next
	// successful chain solve closes it. Every epoch still runs the full
	// chain, so the breaker only reports an outage, never changes a fix.
	// All bookkeeping is epoch-indexed, never wall-clock, so it is
	// deterministic for any worker count.
	consecFail int
	brkOpen    bool

	// Supervisor state: after a recovered panic the session is
	// quarantined until epoch quarUntil (exponential backoff in epochs),
	// then restarted; after restartBudget restarts it is failed for the
	// rest of the run.
	restartBudget int
	restarts      int
	quarUntil     int
	failed        bool

	// Checkpoint cell: refreshed by the owning shard every ckptEvery
	// epochs (0 = off) and read lock-free by Engine.Snapshot from any
	// goroutine. nextEpoch is shard-private bookkeeping for the exact
	// final snapshot.
	ckptEvery int
	ckpt      atomic.Pointer[checkpoint.Session]
	nextEpoch int

	// Quality/SLO layer (nil when Config.Quality is nil): sliding
	// window, objective evaluator and publication cell, all owned by
	// the shard goroutine that steps this session.
	qual *sessionQuality

	// Flight-journal state (nil when Config.JournalSink is nil),
	// owned by the shard goroutine.
	jq *sessionJournal

	obs  []core.Observation // reused epoch conversion buffer
	gobs []scenario.SatObs  // reused live-synthesis buffer
	fobs []scenario.SatObs  // reused faulted-observation buffer
	fev  []fault.Event      // reused per-epoch fault-event buffer
	buf  []byte             // reused NMEA sentence buffer
	pre  []scenario.Epoch   // optional pregenerated epochs
}

// sessionSeed derives receiver r's seed from the base seed by double
// splitmix64 mixing. The old additive Seed+r derivation aliased across
// runs — (Seed 7, receiver 0) and (Seed 6, receiver 1) drew identical
// measurement streams, so fleet experiments with adjacent base seeds
// silently shared data. Mixing the base seed before adding r and
// finalizing again leaves no additive structure for any (seed, receiver)
// pair to collide through.
func sessionSeed(base int64, r int) int64 {
	return int64(rng.Mix64(rng.Mix64(uint64(base)) + uint64(r)))
}

// newSession builds receiver r's session. Station templates are assigned
// round-robin and each receiver draws from its own mixed seed stream (see
// sessionSeed); the fault injector's seed is mixed the same way so burst
// noise is distinct but reproducible per receiver. Every session's
// generator reads the engine's shared epoch cache and its constellation.
func newSession(cfg Config, r, shardID int, m *shardMetrics, cm *chainMetrics, cache *epochcache.Cache) (*session, error) {
	st := cfg.Stations[r%len(cfg.Stations)]
	gcfg := scenario.DefaultConfig(sessionSeed(cfg.Seed, r))
	gcfg.Step = cfg.Step
	gen := scenario.NewGenerator(st, gcfg,
		scenario.WithConstellation(cache.Constellation()),
		scenario.WithEpochCache(cache))
	s := &session{
		recv:    r,
		shard:   shardID,
		step_:   cfg.Step,
		station: st.ID,
		gen:     gen,
		pred:    eval.DefaultPredictor(st.Clock),
		solver:  cfg.Solver,
		sp: solverParams{
			// Disruption acts by inflating σ, so it needs the weighted
			// solve paths even when C/N0 weighting itself is off.
			weighted: cfg.Weighting || cfg.Disruption,
			gls:      cm.gls,
		},
		weighting:     cfg.Weighting,
		cm:            cm,
		sink:          cfg.Sink,
		m:             m,
		state:         StateHealthy,
		restartBudget: cfg.RestartBudget,
		ckptEvery:     cfg.CheckpointEvery,
	}
	prog := cfg.Faults
	if cfg.ReceiverFaults != nil {
		if p := cfg.ReceiverFaults(r); p != nil {
			prog = p
		}
	}
	if len(prog) > 0 {
		s.inj = fault.NewInjector(prog, sessionSeed(cfg.FaultSeed, r))
	}
	if cfg.Disruption {
		s.disrupt = &core.DisruptionDetector{Metrics: cm.disrupt}
	}
	if lp, ok := s.pred.(*clock.LinearPredictor); ok {
		// Calibrations, threshold-clock resets and discarded outliers
		// land in the engine-wide gps_clock_* counters.
		lp.Metrics = cm.clock
	}
	if err := s.buildSolvers(); err != nil {
		return nil, err
	}
	m.stateGauge(StateHealthy).Inc()
	return s, nil
}

// buildSolvers wires a fresh scratch, warm-start NR and fallback chain.
// newSession calls it once; restart calls it again after
// a panic, discarding any solver state the panic may have poisoned while
// keeping the expensive-to-recalibrate predictor.
func (s *session) buildSolvers() error {
	sc := &core.Scratch{}
	s.warm = &core.NRSolver{Scratch: sc, InitialGuess: &s.warmGuess}
	if s.sp.weighted {
		// The warm-start feed honors the same weights as the chain, so a
		// down-weighted suspect cannot drag the clock model either.
		s.warm.Weight = core.SigmaWeight
	}
	chain, err := newChain(s.solver, s.pred, sc, s.sp)
	if err != nil {
		return err
	}
	chain.EnableRAIM(0, s.cm.raim)
	chain.SetMetrics(s.cm.fallback)
	s.chain = chain
	return nil
}

// restart rebuilds the session after a recovered panic. Solver state and
// reusable buffers are discarded (the panic may have left them torn);
// the clock predictor, generator, injector and last good fix carry over —
// losing the predictor would force exactly the NR re-warm-up the paper's
// Section 4.2 prices as the expensive case.
func (s *session) restart() {
	s.buildSolvers() // error impossible: the solver name was validated at construction
	s.obs, s.gobs, s.fobs, s.fev, s.buf = nil, nil, nil, nil, nil
	s.consecFail = 0
	if s.brkOpen {
		s.brkOpen = false
		s.m.breakerOpenSessions.Dec()
	}
}

// step runs one epoch end to end: obtain observations, inject faults,
// warm-start NR to feed the clock predictor, fallback-chain solve (or
// coast), DOP, NMEA, sink. In steady state the whole body is
// allocation-free, on pregenerated epochs and on live ones alike (once
// the epoch's constellation snapshot is cached).
func (s *session) step(i int) {
	var ep scenario.Epoch
	if s.pre != nil {
		if i >= len(s.pre) {
			s.m.epochErrors.Inc()
			s.noFix(i, FixEvent{Err: errPastPregenerated})
			return
		}
		ep = s.pre[i]
	} else {
		var err error
		t := float64(i) * s.step_
		s.gobs, err = s.appendLive(s.gobs[:0], i, t)
		ep = scenario.Epoch{T: t, Obs: s.gobs}
		if err != nil {
			s.m.epochErrors.Inc()
			s.noFix(i, FixEvent{Err: err})
			return
		}
	}
	satObs := ep.Obs
	var fev []fault.Event
	if s.inj != nil {
		s.fobs, s.fev = s.inj.Apply(ep.T, ep.Obs, s.fobs[:0], s.fev[:0])
		satObs, fev = s.fobs, s.fev
		s.m.faultEvents.Add(uint64(len(fev)))
	}
	obs := s.obs[:0]
	for j := range satObs {
		o := &satObs[j]
		co := core.Observation{Pos: o.Pos, Pseudorange: o.Pseudorange, Elevation: o.Elevation}
		if s.weighting && o.CN0 > 0 {
			co.Sigma = core.SigmaFromCN0(o.CN0)
		}
		obs = append(obs, co)
	}
	s.obs = obs
	// Disruption scoring: innovations against the last good fix (with the
	// clock model's extrapolated bias where available). Suspects get their
	// σ inflated before the warm solve and the chain see them, so neither
	// the clock feed nor the fix trusts a spoofed satellite. The same
	// reference seeds the warm NR start below.
	var ref core.Solution
	if s.haveGood {
		ref = s.lastGood
		if bias, perr := s.pred.PredictBias(ep.T); perr == nil {
			ref.ClockBias = bias * geo.SpeedOfLight
		}
	}
	disrupted := s.disrupt != nil && s.haveGood && s.disrupt.Downweight(ref, obs) > 0
	// Feed the predictor from an NR solve (Section 4.2's "use the clock
	// bias calculated by the NR method"), gated on position plausibility
	// so a grossly faulted epoch cannot poison the clock model. It starts
	// from checkpointed state only, so a restored session guesses the
	// same, and a failed warm solve retries from the cold start (eq. 3-27).
	warmed := s.haveGood && plausible(ref.Pos)
	s.warmGuess = core.Solution{}
	if warmed {
		s.warmGuess = ref
	}
	nrSol, err := s.warm.Solve(ep.T, obs)
	if err != nil && warmed {
		s.warmGuess = core.Solution{}
		nrSol, err = s.warm.Solve(ep.T, obs)
	}
	s.feedIters = nrSol.Iterations
	if err == nil && plausible(nrSol.Pos) {
		s.pred.Observe(clock.Fix{T: ep.T, Bias: nrSol.ClockBias / geo.SpeedOfLight})
	}
	start := time.Now()
	res, err := s.chain.Solve(ep.T, obs)
	s.m.solveSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		s.consecFail++
		if !s.brkOpen && s.consecFail >= breakerThreshold {
			s.brkOpen = true
			s.m.breakerOpens.Inc()
			s.m.breakerOpenSessions.Inc()
		}
		s.coastOrFail(i, ep.T, len(obs), fev, err)
		return
	}
	s.consecFail = 0
	if s.brkOpen {
		s.closeBreaker()
	}
	if !res.Suspect {
		s.lastGood = res.Solution
		s.lastGoodT = ep.T
		s.haveGood = true
	}
	if res.Degraded() || disrupted {
		s.setState(StateDegraded)
	} else {
		s.setState(StateHealthy)
	}
	// One geodetic conversion serves both the DOP frame and the NMEA fix.
	lla := res.Solution.Pos.ToLLAFast()
	hdop, pdop, dopOK := 0.0, 0.0, false
	if dop, derr := core.DOPFromObsLLA(res.Solution.Pos, lla, obs); derr == nil {
		hdop, pdop, dopOK = dop.HDOP, dop.PDOP, true
	}
	var fq core.FixQuality
	var clockInnov float64
	var clockOK bool
	if s.qual != nil || s.jq != nil {
		// Residuals are evaluated against the set the solver actually
		// used: RAIM's excluded satellite (if any) is skipped. The
		// journal wants the same evidence, so it shares this assessment
		// even when the quality layer is off.
		fq = core.AssessFixExcluding(res.Solution, obs, res.Excluded, ChiSquareSigma)
		// Clock innovation: how far the solved clock bias sits from the
		// predictor's model (both in meters). A drifting predictor shows
		// up here long before it breaks the coasting path.
		if bias, perr := s.pred.PredictBias(ep.T); perr == nil {
			innov := res.Solution.ClockBias - bias*geo.SpeedOfLight
			if innov < 0 {
				innov = -innov
			}
			clockInnov, clockOK = innov, true
		}
	}
	if s.qual != nil {
		sample := quality.Sample{
			Epoch: uint64(i), FixOK: true,
			RMS: fq.ResidualRMS, RMSValid: fq.RMSValid,
			Chi2Pass: fq.Chi2Pass, Chi2Valid: fq.Chi2Valid,
			PDOP: pdop, HDOP: hdop, DOPValid: dopOK,
			ChainIndex: res.Index,
			Excluded:   res.Excluded >= 0,
			ClockInnov: clockInnov, ClockValid: clockOK,
		}
		s.observeQuality(sample)
	}
	s.journalFix(i, ep.T, &res, &fq, pdop, hdop, dopOK, clockInnov, clockOK, satObs)
	fix := nmea.Fix{
		TimeOfDay: ep.T,
		Pos:       lla,
		Quality:   nmea.QualityGPS,
		NumSats:   len(obs),
		HDOP:      hdop,
	}
	buf, ggaLen := nmea.AppendFixPair(s.buf[:0], fix)
	s.buf = buf
	s.m.fixes.Inc()
	s.emit(FixEvent{
		Receiver: s.recv, Shard: s.shard, Epoch: i, T: ep.T,
		Sol: res.Solution, HDOP: hdop, Sats: len(obs),
		Solver: res.Solver, Excluded: res.Excluded, Suspect: res.Suspect,
		State: s.state, Quality: fq, Faults: fev,
		GGA: buf[:ggaLen], RMC: buf[ggaLen:],
	})
}

// skySlot is the sky that the sessions of one shard whose generators
// share a scenario.SkyKey (receivers at the same station) read at each
// epoch. The shard goroutine owns it, so it needs no lock.
type skySlot struct {
	sky   scenario.Sky
	epoch int
	valid bool // sky holds one complete SkyAt for epoch
}

// appendLive appends epoch i's observations, at receiver time t, to dst:
// the session's own terms over its slot's sky. The first session of the
// group to reach epoch i builds the sky; the slot turns valid only once
// SkyAt has returned, so an error or a panic inside it leaves the next
// session to build it again rather than read a torn sky.
func (s *session) appendLive(dst []scenario.SatObs, i int, t float64) ([]scenario.SatObs, error) {
	sl := s.sky
	if !sl.valid || sl.epoch != i {
		sl.valid = false
		if err := s.gen.SkyAt(&sl.sky, t); err != nil {
			return dst, err
		}
		sl.epoch, sl.valid = i, true
	}
	return s.gen.AppendFromSky(dst, &sl.sky)
}

// coastOrFail handles an epoch no solver could fix. With a previous good
// fix the session coasts: position-hold on lastGood plus the clock
// model's extrapolated bias, emitted as a QualityEstimated fix so
// downstream consumers see a flagged dead-reckoning solution instead of
// silence or garbage. Without one (cold start under fault) the epoch is
// reported failed.
func (s *session) coastOrFail(i int, t float64, sats int, fev []fault.Event, err error) {
	s.setState(StateCoasting)
	if !s.haveGood {
		s.m.solveFailures.Inc()
		s.noFix(i, FixEvent{Sats: sats, Faults: fev, Err: err})
		return
	}
	// A coast is not a solved fix either: it burns the availability
	// budget and contributes no residuals.
	s.observeQuality(quality.Sample{Epoch: uint64(i)})
	sol := s.lastGood
	if bias, perr := s.pred.PredictBias(t); perr == nil {
		sol.ClockBias = bias * geo.SpeedOfLight
	}
	fix := nmea.Fix{
		TimeOfDay: t,
		Pos:       sol.Pos.ToLLAFast(),
		Quality:   nmea.QualityEstimated,
		NumSats:   sats,
	}
	buf, ggaLen := nmea.AppendFixPair(s.buf[:0], fix)
	s.buf = buf
	s.m.coastFixes.Inc()
	s.journalCoast(i, sol)
	s.emit(FixEvent{
		Receiver: s.recv, Shard: s.shard, Epoch: i, T: t,
		Sol: sol, Sats: sats, Coast: true,
		Solver: "coast", Excluded: -1,
		State: s.state, Faults: fev,
		GGA: buf[:ggaLen], RMC: buf[ggaLen:],
	})
}

// setState moves the health state machine, keeping the shard's per-state
// session gauges consistent.
func (s *session) setState(next SessionState) {
	if s.state == next {
		return
	}
	s.m.stateGauge(s.state).Dec()
	s.m.stateGauge(next).Inc()
	s.state = next
}

// closeBreaker returns the circuit breaker to closed.
func (s *session) closeBreaker() {
	s.brkOpen = false
	s.consecFail = 0
	s.m.breakerOpenSessions.Dec()
}

// noFix records epoch i as producing no fix: an empty quality sample
// (the epoch burns the availability budget and adds no residuals), a
// journal miss record, and an error event at T = i·Step that carries
// ev's Err, Sats and Faults. Callers count the miss and settle the
// session state first.
func (s *session) noFix(i int, ev FixEvent) {
	s.observeQuality(quality.Sample{Epoch: uint64(i)})
	s.journalMiss(i)
	ev.Receiver, ev.Shard, ev.Epoch = s.recv, s.shard, i
	ev.T, ev.State = float64(i)*s.step_, s.state
	s.emit(ev)
}

func (s *session) emit(e FixEvent) {
	if s.sink != nil {
		s.sink(e)
	}
}

// snapshot builds this session's checkpoint record with next as the
// resume epoch. Only the owning shard (or a quiescent engine) may call
// it: it reads predictor and fix state without locks.
func (s *session) snapshot(next int) *checkpoint.Session {
	cs := &checkpoint.Session{
		Receiver: s.recv,
		Station:  s.station,
		State:    s.state.String(),
		HaveFix:  s.haveGood,
		Epoch:    next,
	}
	if s.haveGood {
		cs.LastFix = checkpoint.Fix{T: s.lastGoodT, Pos: s.lastGood.Pos, ClockBias: s.lastGood.ClockBias}
	}
	if sn, ok := s.pred.(clock.Snapshotter); ok {
		cs.Clock = sn.Snapshot()
	}
	return cs
}

// restore loads a checkpoint record: predictor calibration, last good
// fix, and health state. The transient supervision states are not
// restored — a fresh process gets a fresh restart budget.
func (s *session) restore(cs *checkpoint.Session) error {
	if cs.Station != s.station {
		return fmt.Errorf("engine: receiver %d checkpoint is for station %q, running %q", s.recv, cs.Station, s.station)
	}
	if cs.Clock.Kind != "" {
		sn, ok := s.pred.(clock.Snapshotter)
		if !ok {
			return fmt.Errorf("engine: receiver %d predictor %T cannot restore a clock snapshot", s.recv, s.pred)
		}
		if err := sn.Restore(cs.Clock); err != nil {
			return fmt.Errorf("engine: receiver %d: %w", s.recv, err)
		}
	}
	s.haveGood = cs.HaveFix
	if cs.HaveFix {
		s.lastGood = core.Solution{Pos: cs.LastFix.Pos, ClockBias: cs.LastFix.ClockBias}
		s.lastGoodT = cs.LastFix.T
	}
	s.setState(stateFromName(cs.State))
	s.nextEpoch = cs.Epoch
	return nil
}

var (
	errPastPregenerated   = fmt.Errorf("engine: epoch index past pregenerated range")
	errSessionQuarantined = fmt.Errorf("engine: session quarantined after panic")
	errSessionFailed      = fmt.Errorf("engine: session failed, restart budget exhausted")
)
