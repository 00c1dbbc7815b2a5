package engine

import (
	"time"

	"gpsdl/internal/core"
	"gpsdl/internal/journal"
	"gpsdl/internal/scenario"
	"gpsdl/internal/slo"
)

// Incident kinds emitted through Config.OnIncident.
const (
	IncidentSLOPage       = "slo_page"
	IncidentPanic         = "panic"
	IncidentSessionFailed = "session_failed"
)

// Incident describes one incident-worthy event: an SLO objective
// paging, a recovered panic (the session enters quarantine), or a
// session exhausting its restart budget. Incidents are delivered on
// the shard goroutine that detected them; handlers must be cheap and
// concurrency-safe, and should hand heavy work (bundle capture) to
// another goroutine.
type Incident struct {
	Kind      string `json:"kind"`
	Receiver  int    `json:"receiver"`
	Shard     int    `json:"shard"`
	Epoch     uint64 `json:"epoch"`
	Objective string `json:"objective,omitempty"` // paging objective, for slo_page
	Detail    string `json:"detail,omitempty"`    // panic value, for panic/session_failed
}

// sessionJournal is one session's flight-journal state: a reusable
// record and residual/observation buffers (so steady-state recording
// allocates nothing) plus the owning shard's batch encoder.
type sessionJournal struct {
	enc          *journal.Encoder
	captureEvery uint64
	res          []journal.SatResidual
	obs          []journal.CapturedObs
	rec          journal.Record
	prevState    SessionState
}

// journalMeta describes this engine's configuration in the journal
// file header, so offline tools can interpret and replay the records.
func (e *Engine) journalMeta() journal.Meta {
	m := journal.Meta{
		Solver:       e.cfg.Solver,
		Seed:         e.cfg.Seed,
		Step:         e.cfg.Step,
		Receivers:    e.cfg.Receivers,
		Sigma:        ChiSquareSigma,
		CaptureEvery: e.cfg.JournalCaptureEvery,
		Created:      time.Now().UTC().Format(time.RFC3339),
	}
	m.Stations = make([]string, e.cfg.Receivers)
	for r := 0; r < e.cfg.Receivers; r++ {
		m.Stations[r] = e.cfg.Stations[r%len(e.cfg.Stations)].ID
	}
	return m
}

// Journal returns the engine's flight-journal writer (nil when
// Config.JournalSink is nil). Callers use it for tail segments and the
// final Close; the engine itself never closes it, so a caller can
// still snapshot the tail after a run returns.
func (e *Engine) Journal() *journal.Writer { return e.jw }

// flushJournal hands the shard's accumulated batch to the writer at
// the batch boundary — the only place journal I/O happens, keeping the
// per-epoch solve path free of file writes and locks.
func (sh *shard) flushJournal(maxEpoch uint64) {
	if sh.jenc == nil {
		return
	}
	if err := sh.jw.WriteBatch(sh.jenc, maxEpoch); err != nil {
		sh.jerrs.Inc()
	}
}

// journalFix records a solved epoch: quality evidence, per-satellite
// post-fit residuals (the attribution payload), and — on flagged
// epochs (χ² failure, RAIM exclusion, suspect fix) or every
// captureEvery-th epoch — the full observation set and predicted
// clock bias needed for bit-exact offline replay.
func (s *session) journalFix(i int, t float64, res *core.FallbackResult,
	fq *core.FixQuality, pdop, hdop float64, dopOK bool,
	clockInnov float64, clockOK bool, satObs []scenario.SatObs) {
	jq := s.jq
	if jq == nil {
		return
	}
	r := &jq.rec
	*r = journal.Record{
		Receiver: s.recv,
		Epoch:    uint64(i),
		Flags:    journal.FlagFix,
		State:    uint8(s.state),
		Chain:    uint8(res.Index),
		Solver:   journal.SolverIndex(res.Solver),
		Pos:      res.Solution.Pos,
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
	jq.noteState(r, s.state)
	// Post-fit residuals against the final solution for every
	// observation, the excluded satellite included — its residual is
	// exactly what per-PRN attribution needs.
	resid := jq.res[:0]
	for j := range s.obs {
		o := &s.obs[j]
		v := o.Pseudorange - (res.Solution.Pos.DistanceTo(o.Pos) + res.Solution.ClockBias)
		resid = append(resid, journal.SatResidual{PRN: satObs[j].PRN, Meters: v})
	}
	jq.res = resid
	r.Residuals = resid
	flagged := (fq.Chi2Valid && !fq.Chi2Pass) || res.Excluded >= 0 || res.Suspect
	if flagged || (uint64(i)+uint64(s.recv))%jq.captureEvery == 0 {
		r.Flags |= journal.FlagObs
		if bias, perr := s.pred.PredictBias(t); perr == nil {
			r.PredBias = bias
		}
		// Capture the set the recorded solution was solved from: RAIM's
		// excluded satellite (if any) is dropped, and each σ is the one
		// the solver weighted with (disruption inflation included), so
		// replaying Obs through the named solver reproduces Pos
		// bit-for-bit.
		cobs := jq.obs[:0]
		for j := range satObs {
			if j == res.Excluded {
				continue
			}
			o := &satObs[j]
			sigma := s.obs[j].Sigma
			if sigma != 0 {
				r.Flags |= journal.FlagSigma
			}
			cobs = append(cobs, journal.CapturedObs{
				PRN: o.PRN, Pos: o.Pos, Pseudorange: o.Pseudorange, Elevation: o.Elevation, Sigma: sigma,
			})
		}
		jq.obs = cobs
		r.Obs = cobs
	}
	jq.enc.Add(r)
}

// journalCoast records a dead-reckoning epoch (position hold on the
// clock model).
func (s *session) journalCoast(i int, sol core.Solution) {
	jq := s.jq
	if jq == nil {
		return
	}
	r := &jq.rec
	*r = journal.Record{
		Receiver:  s.recv,
		Epoch:     uint64(i),
		Flags:     journal.FlagFix | journal.FlagCoast,
		State:     uint8(s.state),
		Solver:    journal.SolverIndex("coast"),
		Pos:       sol.Pos,
		ClockBias: sol.ClockBias,
	}
	jq.noteState(r, s.state)
	jq.enc.Add(r)
}

// noteState flags r when the session's health state differs from the
// previous record's.
func (jq *sessionJournal) noteState(r *journal.Record, st SessionState) {
	if st != jq.prevState {
		r.Flags |= journal.FlagStateChange
		jq.prevState = st
	}
}

// journalMiss records an epoch that produced no fix at all (solve
// failure without a coast, generation error, quarantined/failed
// session, recovered panic).
func (s *session) journalMiss(i int) {
	jq := s.jq
	if jq == nil {
		return
	}
	r := &jq.rec
	*r = journal.Record{Receiver: s.recv, Epoch: uint64(i), State: uint8(s.state)}
	jq.noteState(r, s.state)
	jq.enc.Add(r)
}

// wireIncidents connects the per-session SLO evaluator's transition
// hook to Config.OnIncident, reporting every escalation to page.
func wireIncidents(s *session, ev *slo.Evaluator, oninc func(Incident)) {
	ev.OnTransition = func(name string, from, to slo.State) {
		if to == slo.StatePage {
			oninc(Incident{
				Kind:      IncidentSLOPage,
				Receiver:  s.recv,
				Shard:     s.shard,
				Epoch:     s.qual.epoch,
				Objective: name,
			})
		}
	}
}
