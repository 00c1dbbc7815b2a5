package engine

import (
	"math"
	"sort"
	"sync/atomic"

	"gpsdl/internal/quality"
	"gpsdl/internal/slo"
	"gpsdl/internal/telemetry"
)

// ChiSquareSigma is the assumed 1σ pseudo-range measurement noise in
// meters for the χ² consistency test of every fix the engine assesses,
// and the σ it writes to the journal header. It sits deliberately above
// the 2 m thermal noise: the scenario's elevation-dependent multipath and
// coherent iono/tropo model remainders put the effective per-observation
// error near 4–5 m, and 5 m yields a ≈ 97.6% clean-sky pass rate while a
// 10 m burst still collapses it below 30%.
const ChiSquareSigma = 5.0

// QualityConfig enables the engine's solution-quality observability
// layer: per-session sliding windows over per-fix quality evidence,
// merged into shard and fleet digests, plus SLO/error-budget evaluation
// that can page and downgrade session health. Nil (on Config.Quality)
// disables the layer entirely — the hot path then pays nothing for it.
type QualityConfig struct {
	// Window is the sliding-window span in epochs; ≤ 0 means 600
	// (10 minutes at 1 Hz).
	Window int
	// Objectives are the SLOs evaluated per session; nil means
	// slo.DefaultObjectives().
	Objectives []slo.Objective
	// EvalEvery is the snapshot-publication cadence in epochs; ≤ 0
	// means 64. Session snapshots are published only at epochs where
	// (epoch+1) % EvalEvery == 0, which is what keeps the hot path
	// amortized allocation-free AND makes fleet digests byte-identical
	// for any worker count (every worker layout publishes at the same
	// epoch boundaries).
	EvalEvery int
}

// withDefaults resolves the zero values without mutating the caller's
// struct.
func (qc QualityConfig) withDefaults() QualityConfig {
	if qc.Window <= 0 {
		qc.Window = 600
	}
	if qc.Objectives == nil {
		qc.Objectives = slo.DefaultObjectives()
	}
	if qc.EvalEvery <= 0 {
		qc.EvalEvery = 64
	}
	return qc
}

// sessionQuality is one session's quality state: window, SLO evaluator,
// the epoch being observed (for SLO-page incidents), and the lock-free
// publication cell Engine.Quality reads from any goroutine.
type sessionQuality struct {
	evalEvery uint64
	win       *quality.Window
	eval      *slo.Evaluator
	epoch     uint64
	pub       atomic.Pointer[sessionQualitySnap]
}

// sessionQualitySnap is the immutable published snapshot of one session.
type sessionQualitySnap struct {
	Window quality.Snapshot
	SLO    []slo.Counters
	Worst  slo.State
}

// observeQuality folds one epoch's sample into the session's window and
// SLO evaluator, applies the SLO-driven health downgrade, and publishes
// a snapshot at EvalEvery boundaries. Allocation-free except at those
// boundaries (two small allocations per EvalEvery epochs).
func (s *session) observeQuality(sample quality.Sample) {
	q := s.qual
	if q == nil {
		return
	}
	q.epoch = sample.Epoch
	q.win.Observe(sample)
	q.eval.Observe(&sample)
	// A paging objective is evidence the session is quietly serving bad
	// solutions: force at least Degraded so /healthz, the state gauges
	// and downstream consumers see it even though individual fixes look
	// clean. Worse states (coasting/quarantined/failed) are left alone.
	if s.state == StateHealthy && q.eval.Worst() == slo.StatePage {
		s.setState(StateDegraded)
		s.m.sloDowngrades.Inc()
	}
	if (sample.Epoch+1)%q.evalEvery == 0 {
		snap := &sessionQualitySnap{
			SLO:   make([]slo.Counters, len(q.eval.Objectives())),
			Worst: q.eval.Worst(),
		}
		q.win.SnapshotInto(&snap.Window)
		q.eval.CountersInto(snap.SLO)
		q.pub.Store(snap)
	}
}

// qualityMetrics is the engine-level SLO/quality instrument set,
// refreshed on every Engine.Quality call (the admin status and metrics
// paths both go through it).
type qualityMetrics struct {
	states []*telemetry.Gauge // per objective: 0 ok, 1 warn, 2 page
	fast   []*telemetry.Gauge
	slow   []*telemetry.Gauge
	budget []*telemetry.Gauge
	rmsP99 *telemetry.Gauge
	avail  *telemetry.Gauge
	chi2   *telemetry.Gauge
	worst  *telemetry.Gauge
}

func newQualityMetrics(reg *telemetry.Registry, objs []slo.Objective) *qualityMetrics {
	qm := &qualityMetrics{
		rmsP99: reg.Gauge("engine_quality_fleet_rms_p99_meters",
			"Fleet-wide p99 post-fit residual RMS over the quality window"),
		avail: reg.Gauge("engine_quality_fleet_availability",
			"Fleet-wide fix availability over the quality window"),
		chi2: reg.Gauge("engine_quality_fleet_chi2_pass_rate",
			"Fleet-wide chi-square consistency pass rate over the quality window"),
		worst: reg.Gauge("engine_slo_worst_state",
			"Most severe SLO alert state across all objectives and sessions (0 ok, 1 warn, 2 page)"),
	}
	for _, o := range objs {
		l := telemetry.Label{Key: "objective", Value: o.Name}
		qm.states = append(qm.states, reg.Gauge("engine_slo_state",
			"Objective alert state (0 ok, 1 warn, 2 page)", l))
		qm.fast = append(qm.fast, reg.Gauge("engine_slo_fast_burn",
			"Fast-window error-budget burn rate (1 = sustainable)", l))
		qm.slow = append(qm.slow, reg.Gauge("engine_slo_slow_burn",
			"Slow-window error-budget burn rate (1 = sustainable)", l))
		qm.budget = append(qm.budget, reg.Gauge("engine_slo_budget_remaining",
			"Fraction of the slow-window error budget remaining", l))
	}
	return qm
}

// SessionQuality is one session's entry in the fleet's worst-sessions
// ranking.
type SessionQuality struct {
	Receiver int            `json:"receiver"`
	Worst    slo.State      `json:"worst"`
	Digest   quality.Digest `json:"digest"`
}

// ShardQuality is one shard's window digest: the merge, in receiver
// order, of the windows its sessions last published. Shard composition
// depends on the worker count, so this section is informational and
// explicitly NOT covered by the determinism guarantee (everything else
// in FleetQuality is).
type ShardQuality struct {
	Shard  int            `json:"shard"`
	Digest quality.Digest `json:"digest"`
}

// FleetQuality is the consolidated quality/SLO verdict Engine.Quality
// assembles from the published per-session snapshots.
type FleetQuality struct {
	Enabled bool      `json:"enabled"`
	Worst   slo.State `json:"worst"`
	// Objectives carries one evaluated status per configured SLO, with
	// counters merged across sessions in receiver order.
	Objectives []slo.Status `json:"objectives,omitempty"`
	// Window is the merged fleet window (mergeable raw form); Digest is
	// its reduction.
	Window quality.Snapshot `json:"window"`
	Digest quality.Digest   `json:"digest"`
	// Sessions ranks the worst sessions (most severe SLO state first,
	// then highest p99 RMS).
	Sessions []SessionQuality `json:"worst_sessions,omitempty"`
	// Shards holds per-shard digests; see ShardQuality for the
	// determinism caveat.
	Shards []ShardQuality `json:"shards,omitempty"`
}

// QualityEnabled reports whether the quality layer is configured.
func (e *Engine) QualityEnabled() bool { return e.qcfg != nil }

// Quality assembles the fleet quality/SLO verdict from the snapshots
// each session published at the last EvalEvery boundary, merging in
// receiver order so the result is bit-identical for any worker count
// (Shards excepted — see ShardQuality). topK bounds the worst-sessions
// list (≤ 0 means 5). Safe to call from any goroutine while a run is in
// flight; it also refreshes the engine_slo_* and engine_quality_*
// gauges.
func (e *Engine) Quality(topK int) *FleetQuality {
	if e.qcfg == nil {
		return &FleetQuality{}
	}
	if topK <= 0 {
		topK = 5
	}
	objs := e.qcfg.Objectives
	fq := &FleetQuality{Enabled: true}
	merged := make([]slo.Counters, len(objs))
	sessions := make([]SessionQuality, 0, len(e.sessions))
	shards := make([]quality.Snapshot, len(e.shards))
	for _, s := range e.sessions {
		snap := s.qual.pub.Load()
		if snap == nil {
			continue
		}
		fq.Window.Merge(&snap.Window)
		shards[s.shard].Merge(&snap.Window)
		for k := range merged {
			merged[k].Merge(snap.SLO[k])
		}
		sessions = append(sessions, SessionQuality{
			Receiver: s.recv,
			Worst:    snap.Worst,
			Digest:   snap.Window.Digest(),
		})
	}
	fq.Digest = fq.Window.Digest()
	fq.Objectives = make([]slo.Status, len(objs))
	for k, o := range objs {
		fq.Objectives[k] = o.Status(merged[k])
		if st := fq.Objectives[k].State; st > fq.Worst {
			fq.Worst = st
		}
	}
	sort.SliceStable(sessions, func(i, j int) bool {
		a, b := sessions[i], sessions[j]
		if a.Worst != b.Worst {
			return a.Worst > b.Worst
		}
		ap, bp := float64(a.Digest.RMSP99), float64(b.Digest.RMSP99)
		an, bn := !math.IsNaN(ap), !math.IsNaN(bp)
		if an != bn {
			return an
		}
		if an && ap != bp {
			return ap > bp
		}
		return a.Receiver < b.Receiver
	})
	if len(sessions) > topK {
		sessions = sessions[:topK]
	}
	fq.Sessions = sessions
	for i := range shards {
		// A published session window holds at least one epoch, so an
		// empty merge means none of the shard's sessions has published.
		if shards[i].Count > 0 {
			fq.Shards = append(fq.Shards, ShardQuality{Shard: i, Digest: shards[i].Digest()})
		}
	}
	e.publishQualityMetrics(fq)
	return fq
}

// publishQualityMetrics pushes the assembled verdict into the gauges.
func (e *Engine) publishQualityMetrics(fq *FleetQuality) {
	qm := e.qm
	if qm == nil {
		return
	}
	qm.worst.Set(float64(fq.Worst))
	qm.rmsP99.Set(float64(fq.Digest.RMSP99))
	qm.avail.Set(float64(fq.Digest.Availability))
	qm.chi2.Set(float64(fq.Digest.Chi2PassRate))
	for k, st := range fq.Objectives {
		qm.states[k].Set(float64(st.State))
		qm.fast[k].Set(st.FastBurn)
		qm.slow[k].Set(st.SlowBurn)
		qm.budget[k].Set(st.BudgetRemaining)
	}
}
