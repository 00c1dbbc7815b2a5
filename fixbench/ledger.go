package main

import (
	"bytes"
	"fmt"
	"time"

	"gpsdl/internal/clock"
	"gpsdl/internal/core"
	"gpsdl/internal/engine"
	"gpsdl/internal/epochcache"
	"gpsdl/internal/eval"
	"gpsdl/internal/fault"
	"gpsdl/internal/geo"
	"gpsdl/internal/journal"
	"gpsdl/internal/nmea"
	"gpsdl/internal/orbit"
	"gpsdl/internal/quality"
	"gpsdl/internal/rng"
	"gpsdl/internal/scenario"
	"gpsdl/internal/slo"
	"gpsdl/internal/telemetry"
	"gpsdl/internal/wire"
)

// Ledger layers, in the order the engine calls them for one fix.
const (
	lScenario = iota
	lCache
	lFault
	lDisrupt
	lWarmNR
	lClock
	lChain
	lDOP
	lAssess
	lQuality
	lJournal
	lNMEA
	lWire
	nLayers
)

var layerNames = [nLayers]string{
	"scenario.epoch_at", "epochcache.at", "fault.apply", "core.disrupt",
	"core.warm_nr", "clock.observe", "core.chain_solve", "core.dop",
	"core.assess", "quality.observe", "journal.encode", "nmea.encode", "wire.encode",
}

// Engine constants the replay mirrors (engine/session.go): the
// position-plausibility band that gates the clock feed, the breaker
// threshold, and the quality and journal defaults.
const (
	minPlausibleNorm = 5.4e6
	maxPlausibleNorm = 7.4e6
	breakerK         = 8
	qualityWindow    = 600
	qualityEvalEvery = 64
	qualitySigma     = 5.0
	journalCapture   = 64
	journalBatch     = 32
)

// ledger replays watched sessions epoch by epoch through the public
// functions the engine calls, timing each call from outside. It runs
// single-threaded after the measured phases; its per-layer self times
// add up to ledger.sum_us_per_fix, and what the engine spends beyond
// them is the residual.
type ledger struct {
	w        *workload
	in       *inputs
	base     time.Time
	overhead int64 // ns an empty timed region reads
	timing   bool

	tot    [nLayers]int64
	calls  [nLayers]int
	events int // timed session-epochs

	hitNS     int64 // epochcache.At on an already-published epoch
	hitCalls  int
	dlgNS     int64
	dlgCalls  int
	nrNS      int64
	nrCalls   int
	inner     int // timed solver calls inside the current chain region
	decodeNS  int64
	decodes   int
	wireBytes int

	spans  []span
	probes []float64 // probe times, ns, one per probeEvery replayed epochs
	cur    struct{ session, epoch int }
}

// probeEvery is how many replayed epochs pass between host probes.
const probeEvery = 2000

func (l *ledger) now() int64 { return int64(time.Since(l.base)) }

// calibrate measures what an empty timed region reads, so every region
// can be reported net of the clock reads that bound it.
func (l *ledger) calibrate() {
	const n = 200000
	t0 := l.now()
	for i := 0; i < n; i++ {
		a := l.now()
		b := l.now()
		_, _ = a, b
	}
	l.overhead = (l.now() - t0) / (2 * n)
}

// done closes a timed region of layer opened at t0.
func (l *ledger) done(layer int, t0 int64) {
	if !l.timing {
		return
	}
	t1 := l.now()
	d := t1 - t0 - l.overhead
	if layer == lChain {
		d -= int64(l.inner) * l.overhead
	}
	l.tot[layer] += d
	l.calls[layer]++
	if l.events < maxSpanFixes {
		l.spans = append(l.spans, span{name: layerNames[layer], parent: "ledger.step",
			session: l.cur.session, epoch: l.cur.epoch, start: t0, dur: t1 - t0})
	}
}

// timedSolver times one solver's calls inside the chain (the DLG/NR
// split of core.chain_solve).
type timedSolver struct {
	core.Solver
	l         *ledger
	ns        *int64
	callCount *int
}

func (t timedSolver) Solve(tt float64, obs []core.Observation) (core.Solution, error) {
	t0 := t.l.now()
	sol, err := t.Solver.Solve(tt, obs)
	if t.l.timing {
		*t.ns += t.l.now() - t0 - t.l.overhead
		*t.callCount++
		t.l.inner++
	}
	return sol, err
}

// lsess mirrors one engine session's state (engine/session.go).
type lsess struct {
	recv    int
	gen     *scenario.Generator
	cache   *epochcache.Cache
	pre     []scenario.Epoch
	inj     *fault.Injector
	pred    clock.Predictor
	warm    *core.NRSolver
	chain   *core.FallbackChain
	probe   core.Solver
	disrupt *core.DisruptionDetector
	weight  bool

	win, shardWin *quality.Window
	eval          *slo.Evaluator
	last          quality.Sample
	shardSessions int
	posInShard    int

	jenc      *journal.Encoder
	jres      []journal.SatResidual
	jobs      []journal.CapturedObs
	jrec      journal.Record
	jprev     engine.SessionState
	jbatchEnd int

	wenc  wire.FixEncoder
	wdec  wire.FixDecoder
	frame []byte

	state      engine.SessionState
	lastGood   core.Solution
	haveGood   bool
	consecFail int
	brkOpen    bool

	obs  []core.Observation
	fobs []scenario.SatObs
	fev  []fault.Event
	buf  []byte

	digests []uint64
	err     error
}

// sessionSeed is the engine's per-receiver seed derivation
// (engine/session.go): double splitmix64 mixing of the base seed.
func sessionSeed(base int64, r int) int64 {
	return int64(rng.Mix64(rng.Mix64(uint64(base)) + uint64(r)))
}

func (l *ledger) newSession(recv int) (*lsess, error) {
	w, in := l.w, l.in
	st := scenario.Table51Stations()[recv%len(scenario.Table51Stations())]
	cache, err := epochcache.New(orbit.DefaultConstellation(), 0, 1, epochcache.Options{})
	if err != nil {
		return nil, err
	}
	gcfg := scenario.DefaultConfig(sessionSeed(in.seed, recv))
	gcfg.Step = 1
	gcfg.CodeOnly = true
	reg := telemetry.NewRegistry()
	s := &lsess{
		recv:   recv,
		cache:  cache,
		gen:    scenario.NewGenerator(st, gcfg, scenario.WithConstellation(cache.Constellation()), scenario.WithEpochCache(cache)),
		pred:   eval.DefaultPredictor(st.Clock),
		weight: w.weighting,
		wenc:   wire.FixEncoder{KeyframeEvery: w.keyframeEvery()},
	}
	weighted := w.weighting || w.disruption
	sc := &core.Scratch{}
	s.warm = &core.NRSolver{Scratch: sc}
	if weighted {
		s.warm.Weight = core.SigmaWeight
	}
	dlg := core.NewDLGSolver(s.pred)
	dlg.Scratch = sc
	dlg.Variant = core.VariantFast
	dlg.Weighted = weighted
	dlg.Metrics = core.NewGLSMetrics(reg)
	nr := &core.NRSolver{Scratch: sc}
	if weighted {
		nr.Weight = core.SigmaWeight
	}
	dlo := core.NewDLOSolver(s.pred)
	dlo.Scratch = sc
	chain, err := core.NewFallbackChain(
		timedSolver{dlg, l, &l.dlgNS, &l.dlgCalls},
		timedSolver{nr, l, &l.nrNS, &l.nrCalls},
		dlo, core.BancroftSolver{})
	if err != nil {
		return nil, err
	}
	chain.EnableRAIM(0, core.NewRAIMMetrics(reg))
	chain.SetMetrics(core.NewFallbackMetrics(reg))
	s.chain = chain
	probe := core.NewDLOSolver(s.pred)
	probe.Scratch = sc
	s.probe = probe
	if len(in.faults) > 0 {
		s.inj = fault.NewInjector(in.faults, sessionSeed(in.seed, recv))
	}
	if w.disruption {
		s.disrupt = &core.DisruptionDetector{Metrics: core.NewDisruptionMetrics(reg)}
	}
	s.shardSessions = w.receivers / w.shards
	s.posInShard = recv / w.shards
	if w.quality {
		s.win = quality.NewWindow(qualityWindow)
		s.shardWin = quality.NewWindow(qualityWindow * s.shardSessions)
		if s.eval, err = slo.NewEvaluator(slo.DefaultObjectives()); err != nil {
			return nil, err
		}
	}
	if w.journal {
		s.jenc = &journal.Encoder{}
	}
	if w.pregen > 0 {
		// Engine.Pregenerate, untimed as in the engine's set-up.
		s.pre = make([]scenario.Epoch, w.warmup+w.pregen)
		for i := range s.pre {
			if s.pre[i], err = s.gen.EpochAt(float64(i)); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// step replays one epoch of session s (engine shard.run's cache warm,
// shard.stepSession and session.step).
func (l *ledger) step(s *lsess, i int) {
	l.cur.session, l.cur.epoch = s.recv, i
	l.inner = 0
	var ep scenario.Epoch
	if s.pre != nil {
		ep = s.pre[i]
	} else {
		t0 := l.now()
		_, _ = s.cache.At(i)
		l.done(lCache, t0)
		if l.timing {
			// The engine's other shards find this epoch published.
			t0 = l.now()
			_, _ = s.cache.At(i)
			l.hitNS += l.now() - t0 - l.overhead
			l.hitCalls++
		}
		t0 = l.now()
		var err error
		ep, err = s.gen.EpochAt(float64(i))
		l.done(lScenario, t0)
		if err != nil {
			s.observeQuality(l, quality.Sample{Epoch: uint64(i)})
			l.journalMiss(s, i)
			l.emit(s, engine.FixEvent{Receiver: s.recv, Epoch: i, State: s.state, Err: err})
			return
		}
	}
	satObs := ep.Obs
	var fev []fault.Event
	if s.inj != nil {
		t0 := l.now()
		s.fobs, s.fev = s.inj.Apply(ep.T, ep.Obs, s.fobs[:0], s.fev[:0])
		l.done(lFault, t0)
		satObs, fev = s.fobs, s.fev
	}
	obs := s.obs[:0]
	for j := range satObs {
		o := &satObs[j]
		co := core.Observation{Pos: o.Pos, Pseudorange: o.Pseudorange, Elevation: o.Elevation}
		if s.weight && o.CN0 > 0 {
			co.Sigma = core.SigmaFromCN0(o.CN0)
		}
		obs = append(obs, co)
	}
	s.obs = obs
	disrupted := false
	if s.disrupt != nil && s.haveGood {
		t0 := l.now()
		ref := s.lastGood
		if bias, perr := s.pred.PredictBias(ep.T); perr == nil {
			ref.ClockBias = bias * geo.SpeedOfLight
		}
		disrupted = s.disrupt.Downweight(ref, obs) > 0
		l.done(lDisrupt, t0)
	}
	t0 := l.now()
	nrSol, nrErr := s.warm.Solve(ep.T, obs)
	if l.timing {
		l.nrNS += l.now() - t0 - l.overhead
		l.nrCalls++
	}
	l.done(lWarmNR, t0)
	if nrErr == nil {
		if n := nrSol.Pos.Norm(); n >= minPlausibleNorm && n <= maxPlausibleNorm {
			t0 = l.now()
			s.pred.Observe(clock.Fix{T: ep.T, Bias: nrSol.ClockBias / geo.SpeedOfLight})
			l.done(lClock, t0)
		}
	}
	t0 = l.now()
	if s.brkOpen {
		if _, perr := s.probe.Solve(ep.T, obs); perr == nil {
			s.brkOpen, s.consecFail = false, 0
		}
	}
	res, err := s.chain.Solve(ep.T, obs)
	l.done(lChain, t0)
	if err != nil {
		s.consecFail++
		if !s.brkOpen && s.consecFail >= breakerK {
			s.brkOpen = true
		}
		l.coastOrFail(s, i, ep.T, len(obs), fev, err)
		return
	}
	s.consecFail = 0
	s.brkOpen = false
	if !res.Suspect {
		s.lastGood = res.Solution
		s.haveGood = true
	}
	if res.Degraded() || disrupted {
		s.state = engine.StateDegraded
	} else {
		s.state = engine.StateHealthy
	}
	t0 = l.now()
	hdop, pdop, dopOK := 0.0, 0.0, false
	if dop, derr := core.DOPFromObs(res.Solution.Pos, obs); derr == nil {
		hdop, pdop, dopOK = dop.HDOP, dop.PDOP, true
	}
	l.done(lDOP, t0)
	var fq core.FixQuality
	var clockInnov float64
	var clockOK bool
	if s.win != nil || s.jenc != nil {
		t0 = l.now()
		fq = core.AssessFixExcluding(res.Solution, obs, res.Excluded, qualitySigma)
		if bias, perr := s.pred.PredictBias(ep.T); perr == nil {
			innov := res.Solution.ClockBias - bias*geo.SpeedOfLight
			if innov < 0 {
				innov = -innov
			}
			clockInnov, clockOK = innov, true
		}
		l.done(lAssess, t0)
	}
	s.observeQuality(l, quality.Sample{
		Epoch: uint64(i), FixOK: true,
		RMS: fq.ResidualRMS, RMSValid: fq.RMSValid,
		Chi2Pass: fq.Chi2Pass, Chi2Valid: fq.Chi2Valid,
		PDOP: pdop, HDOP: hdop, DOPValid: dopOK,
		ChainIndex: res.Index, Excluded: res.Excluded >= 0,
		ClockInnov: clockInnov, ClockValid: clockOK,
	})
	l.journalFix(s, i, ep.T, &res, &fq, pdop, hdop, dopOK, clockInnov, clockOK, satObs)
	t0 = l.now()
	fix := nmea.Fix{TimeOfDay: ep.T, Pos: res.Solution.Pos.ToLLA(), Quality: nmea.QualityGPS, NumSats: len(obs), HDOP: hdop}
	buf := nmea.AppendGGA(s.buf[:0], fix)
	ggaLen := len(buf)
	buf = nmea.AppendRMC(buf, fix)
	s.buf = buf
	l.done(lNMEA, t0)
	l.emit(s, engine.FixEvent{
		Receiver: s.recv, Epoch: i, T: ep.T,
		Sol: res.Solution, HDOP: hdop, Sats: len(obs),
		Solver: res.Solver, Excluded: res.Excluded, Suspect: res.Suspect,
		State: s.state, Quality: fq, Faults: fev,
		GGA: buf[:ggaLen], RMC: buf[ggaLen:],
	})
}

// coastOrFail mirrors session.coastOrFail.
func (l *ledger) coastOrFail(s *lsess, i int, t float64, sats int, fev []fault.Event, err error) {
	s.observeQuality(l, quality.Sample{Epoch: uint64(i)})
	s.state = engine.StateCoasting
	if !s.haveGood {
		l.journalMiss(s, i)
		l.emit(s, engine.FixEvent{Receiver: s.recv, Epoch: i, T: t, Sats: sats, State: s.state, Faults: fev, Err: err})
		return
	}
	sol := s.lastGood
	if bias, perr := s.pred.PredictBias(t); perr == nil {
		sol.ClockBias = bias * geo.SpeedOfLight
	}
	t0 := l.now()
	fix := nmea.Fix{TimeOfDay: t, Pos: sol.Pos.ToLLA(), Quality: nmea.QualityEstimated, NumSats: sats}
	buf := nmea.AppendGGA(s.buf[:0], fix)
	ggaLen := len(buf)
	buf = nmea.AppendRMC(buf, fix)
	s.buf = buf
	l.done(lNMEA, t0)
	l.journalCoast(s, i, sol)
	l.emit(s, engine.FixEvent{
		Receiver: s.recv, Epoch: i, T: t, Sol: sol, Sats: sats, Coast: true,
		Solver: "coast", Excluded: -1, State: s.state, Faults: fev,
		GGA: buf[:ggaLen], RMC: buf[ggaLen:],
	})
}

// observeQuality mirrors session.observeQuality plus the shard-level
// window fold (shard.observeQuality).
func (s *lsess) observeQuality(l *ledger, sample quality.Sample) {
	if s.win == nil {
		return
	}
	t0 := l.now()
	s.last = sample
	s.win.Observe(sample)
	s.eval.Observe(&sample)
	if s.state == engine.StateHealthy && s.eval.Worst() == slo.StatePage {
		s.state = engine.StateDegraded
	}
	if (sample.Epoch+1)%qualityEvalEvery == 0 {
		snap := &quality.Snapshot{}
		s.win.SnapshotInto(snap)
		s.eval.CountersInto(make([]slo.Counters, len(s.eval.Objectives())))
	}
	smp := s.last
	smp.Epoch = sample.Epoch*uint64(s.shardSessions) + uint64(s.posInShard)
	s.shardWin.Observe(smp)
	l.done(lQuality, t0)
}

// journalBegin starts a new encoder batch every journalBatch epochs, as
// the shard does per scheduled batch.
func (l *ledger) journalBegin(s *lsess, i int) {
	if i >= s.jbatchEnd || i < s.jbatchEnd-journalBatch {
		s.jenc.Begin(0, uint64(i))
		s.jbatchEnd = i + journalBatch
	}
}

// journalFix mirrors session.journalFix.
func (l *ledger) journalFix(s *lsess, i int, t float64, res *core.FallbackResult,
	fq *core.FixQuality, pdop, hdop float64, dopOK bool,
	clockInnov float64, clockOK bool, satObs []scenario.SatObs) {
	if s.jenc == nil {
		return
	}
	t0 := l.now()
	l.journalBegin(s, i)
	r := &s.jrec
	*r = journal.Record{
		Receiver: s.recv, Epoch: uint64(i), Flags: journal.FlagFix,
		State: uint8(s.state), Chain: uint8(res.Index),
		Solver: journal.SolverIndex(res.Solver), Pos: res.Solution.Pos,
	}
	r.ClockBias = res.Solution.ClockBias
	if res.Suspect {
		r.Flags |= journal.FlagSuspect
	}
	if fq.RMSValid {
		r.Flags |= journal.FlagRMS
		r.RMS = fq.ResidualRMS
	}
	if fq.Chi2Valid {
		r.Flags |= journal.FlagChi2Valid
		if fq.Chi2Pass {
			r.Flags |= journal.FlagChi2Pass
		}
	}
	if dopOK {
		r.Flags |= journal.FlagDOP
		r.PDOP, r.HDOP = pdop, hdop
	}
	if clockOK {
		r.Flags |= journal.FlagClock
		r.ClockInnov = clockInnov
	}
	if res.Excluded >= 0 && res.Excluded < len(satObs) {
		r.Flags |= journal.FlagExcluded
		r.ExcludedPRN = satObs[res.Excluded].PRN
	}
	if s.state != s.jprev {
		r.Flags |= journal.FlagStateChange
		s.jprev = s.state
	}
	resid := s.jres[:0]
	for j := range s.obs {
		o := &s.obs[j]
		v := o.Pseudorange - (res.Solution.Pos.DistanceTo(o.Pos) + res.Solution.ClockBias)
		resid = append(resid, journal.SatResidual{PRN: satObs[j].PRN, Meters: v})
	}
	s.jres = resid
	r.Residuals = resid
	flagged := (fq.Chi2Valid && !fq.Chi2Pass) || res.Excluded >= 0 || res.Suspect
	if flagged || (uint64(i)+uint64(s.recv))%journalCapture == 0 {
		r.Flags |= journal.FlagObs
		if bias, perr := s.pred.PredictBias(t); perr == nil {
			r.PredBias = bias
		}
		cobs := s.jobs[:0]
		for j := range satObs {
			if j == res.Excluded {
				continue
			}
			o := &satObs[j]
			cobs = append(cobs, journal.CapturedObs{PRN: o.PRN, Pos: o.Pos, Pseudorange: o.Pseudorange, Elevation: o.Elevation})
		}
		s.jobs = cobs
		r.Obs = cobs
	}
	s.jenc.Add(r)
	l.done(lJournal, t0)
}

// journalCoast mirrors session.journalCoast.
func (l *ledger) journalCoast(s *lsess, i int, sol core.Solution) {
	if s.jenc == nil {
		return
	}
	t0 := l.now()
	l.journalBegin(s, i)
	r := &s.jrec
	*r = journal.Record{Receiver: s.recv, Epoch: uint64(i), Flags: journal.FlagFix | journal.FlagCoast,
		State: uint8(s.state), Solver: journal.SolverIndex("coast"), Pos: sol.Pos, ClockBias: sol.ClockBias}
	if s.state != s.jprev {
		r.Flags |= journal.FlagStateChange
		s.jprev = s.state
	}
	s.jenc.Add(r)
	l.done(lJournal, t0)
}

// journalMiss mirrors session.journalMiss.
func (l *ledger) journalMiss(s *lsess, i int) {
	if s.jenc == nil {
		return
	}
	t0 := l.now()
	l.journalBegin(s, i)
	r := &s.jrec
	*r = journal.Record{Receiver: s.recv, Epoch: uint64(i), State: uint8(s.state)}
	if s.state != s.jprev {
		r.Flags |= journal.FlagStateChange
		s.jprev = s.state
	}
	s.jenc.Add(r)
	l.done(lJournal, t0)
}

// emit encodes the fix for the wire (timed when the workload publishes
// to a hub), decodes it back, and digests it like the benchmark's sink.
func (l *ledger) emit(s *lsess, e engine.FixEvent) {
	t0 := l.now()
	f := e.Wire()
	s.frame, _ = s.wenc.AppendFix(s.frame[:0], &f)
	if l.w.clients > 0 {
		l.done(lWire, t0)
	}
	// Decode every frame (the delta chain needs them all); time the
	// traced ones.
	payload, err := wire.NewFrameReader(bytes.NewReader(s.frame)).Next()
	if err == nil {
		t0 = l.now()
		_, err = s.wdec.DecodeFix(payload)
		if l.timing {
			l.decodeNS += l.now() - t0 - l.overhead
			l.decodes++
		}
	}
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("ledger: session %d epoch %d: own wire frame does not decode: %w", s.recv, e.Epoch, err)
	}
	if l.timing {
		l.wireBytes += len(s.frame)
		l.events++
	}
	s.digests = append(s.digests, fixDigest(e.Epoch, e.GGA, e.RMC, s.frame))
}

// replay steps session recv through the engine's processed epoch
// ranges, timing events [t0, t1) of the sequence, and returns the
// session's digests.
func (l *ledger) replay(recv int, segs []seg, t0, t1 int) ([]uint64, error) {
	s, err := l.newSession(recv)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, sg := range segs {
		for i := sg.e0; i < sg.e1; i++ {
			l.timing = k >= t0 && k < t1
			if l.timing && (k-t0)%probeEvery == 0 {
				l.probes = append(l.probes, float64(probe()))
			}
			l.step(s, i)
			k++
		}
	}
	l.timing = false
	return s.digests, s.err
}
