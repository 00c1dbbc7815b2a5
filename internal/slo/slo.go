// Package slo evaluates declarative service-level objectives over the
// quality samples the fix engine produces, turning "p99 residual RMS
// under 5 m over 600 epochs" into an error budget with fast/slow
// burn-rate alerting (ok → warn → page, with hysteresis on the way
// back down).
//
// Every objective this package supports reduces to the same machinery:
// a per-epoch bad predicate, a per-epoch applicability predicate, and
// an allowed bad fraction. "Availability ≥ 99.9%" makes every epoch
// applicable, a non-fix epoch bad, and allows 0.1%. "p99 RMS ≤ 5 m"
// makes every RMS-bearing epoch applicable, an epoch with RMS > 5 bad,
// and allows 1% — the quantile objective IS a bad-fraction objective.
// "χ² pass rate ≥ 98%" counts over checked epochs and allows 2%.
//
// Burn rate is (bad/applicable)/allowed over a window: 1.0 means the
// budget is being consumed exactly as fast as the objective tolerates.
// The evaluator keeps two windows per objective — fast (window/10) and
// slow (window) — and pages only when both agree (fast ≥ 10 AND slow
// ≥ 1), the standard multiwindow discipline that keeps a brief spike
// from paging while still catching fast regressions in a tenth of the
// window. Warn fires at fast ≥ 2 or an exhausted slow budget.
//
// Like internal/quality, everything is keyed by deterministic epoch
// index and owned by a single goroutine per session, so replays
// reproduce every verdict bit-for-bit.
package slo

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"gpsdl/internal/quality"
)

// State is an objective's alert state. Ordering is meaningful: higher
// is worse, and fleet state is the max over sessions.
type State uint8

const (
	StateOK State = iota
	StateWarn
	StatePage
)

// String returns ok/warn/page.
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateWarn:
		return "warn"
	case StatePage:
		return "page"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// MarshalText renders the state name into JSON and text tables.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a state name, so JSON status payloads round-trip.
func (s *State) UnmarshalText(b []byte) error {
	switch string(b) {
	case "ok":
		*s = StateOK
	case "warn":
		*s = StateWarn
	case "page":
		*s = StatePage
	default:
		return fmt.Errorf("unknown SLO state %q", b)
	}
	return nil
}

// Kind selects the bad/applicable predicates of an objective.
type Kind string

const (
	// KindAvailability targets a minimum fix rate: Target is a percent
	// (99.9 ⇒ at most 0.1% of epochs without a fix).
	KindAvailability Kind = "availability"
	// KindRMSQuantile targets a residual-RMS quantile: Quantile (e.g.
	// 0.99) of RMS-bearing epochs must be ≤ Target meters.
	KindRMSQuantile Kind = "rms_quantile"
	// KindChi2PassRate targets a minimum χ²-consistency pass rate over
	// checked epochs: Target is a percent.
	KindChi2PassRate Kind = "chi2_pass_rate"
)

// Burn-rate alert thresholds (multiples of the sustainable rate).
const (
	PageBurn = 10.0
	WarnBurn = 2.0
)

// DefaultClear is the hysteresis: consecutive calmer evaluations
// required before an alert state steps down one level.
const DefaultClear = 30

// Objective is one declarative SLO.
type Objective struct {
	// Name labels the objective in metrics and status output.
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	// Target is a percent for availability/chi2_pass_rate, meters for
	// rms_quantile.
	Target float64 `json:"target"`
	// Quantile (rms_quantile only), e.g. 0.99 for p99.
	Quantile float64 `json:"quantile,omitempty"`
	// Window is the slow burn window in epochs; the fast window is
	// Window/10 (minimum 1).
	Window int `json:"window"`
	// Clear overrides DefaultClear when > 0.
	Clear int `json:"clear,omitempty"`
}

// allowed returns the tolerated bad fraction; 0 means the objective
// tolerates nothing and any bad epoch is an immediate full burn.
func (o Objective) allowed() float64 {
	switch o.Kind {
	case KindRMSQuantile:
		return 1 - o.Quantile
	default:
		return 1 - o.Target/100
	}
}

// classify maps a sample to (applicable, bad) under the objective.
func (o Objective) classify(s *quality.Sample) (applicable, bad bool) {
	switch o.Kind {
	case KindAvailability:
		return true, !s.FixOK
	case KindRMSQuantile:
		if !s.RMSValid {
			return false, false
		}
		return true, s.RMS > o.Target
	case KindChi2PassRate:
		if !s.Chi2Valid {
			return false, false
		}
		return true, !s.Chi2Pass
	default:
		return false, false
	}
}

// validate rejects configurations the burn machinery cannot evaluate.
func (o Objective) validate() error {
	switch o.Kind {
	case KindAvailability, KindChi2PassRate:
		if !(o.Target > 0 && o.Target < 100) { // NaN included
			return fmt.Errorf("slo %q: target %.4g%% outside (0,100)", o.Name, o.Target)
		}
	case KindRMSQuantile:
		if !(o.Target > 0 && o.Target <= math.MaxFloat64) { // NaN and +Inf included
			return fmt.Errorf("slo %q: rms target %.4g m must be positive and finite", o.Name, o.Target)
		}
		if o.Quantile <= 0 || o.Quantile >= 1 {
			return fmt.Errorf("slo %q: quantile %.4g outside (0,1)", o.Name, o.Quantile)
		}
	default:
		return fmt.Errorf("slo %q: unknown kind %q", o.Name, o.Kind)
	}
	if o.Window < 10 {
		return fmt.Errorf("slo %q: window %d epochs too small (min 10)", o.Name, o.Window)
	}
	if o.allowed() <= 0 {
		return fmt.Errorf("slo %q: zero error budget", o.Name)
	}
	return nil
}

// Counters is the mergeable burn bookkeeping of one objective: bad and
// applicable counts over the fast and slow windows, plus the session's
// current alert state. Fleet aggregation sums the counters (in receiver
// order, for bit-identical replays) and takes the max state.
type Counters struct {
	BadFast uint64 `json:"bad_fast"`
	DenFast uint64 `json:"den_fast"`
	BadSlow uint64 `json:"bad_slow"`
	DenSlow uint64 `json:"den_slow"`
	State   State  `json:"state"`
}

// Merge folds o into c: counts add, state maxes.
func (c *Counters) Merge(o Counters) {
	c.BadFast += o.BadFast
	c.DenFast += o.DenFast
	c.BadSlow += o.BadSlow
	c.DenSlow += o.DenSlow
	if o.State > c.State {
		c.State = o.State
	}
}

// Status is the evaluated, display-ready verdict of one objective.
type Status struct {
	Name            string  `json:"name"`
	Kind            Kind    `json:"kind"`
	Target          float64 `json:"target"`
	Quantile        float64 `json:"quantile,omitempty"`
	Window          int     `json:"window"`
	State           State   `json:"state"`
	FastBurn        float64 `json:"fast_burn"`
	SlowBurn        float64 `json:"slow_burn"`
	BudgetRemaining float64 `json:"budget_remaining"`
	BadSlow         uint64  `json:"bad_slow"`
	DenSlow         uint64  `json:"den_slow"`
}

// Status evaluates counters under the objective: burn rates and the
// remaining error-budget fraction (1 = untouched, 0 = exhausted,
// clamped). Windows with no applicable epochs burn nothing.
func (o Objective) Status(c Counters) Status {
	st := Status{
		Name: o.Name, Kind: o.Kind, Target: o.Target,
		Quantile: o.Quantile, Window: o.Window,
		State: c.State, BadSlow: c.BadSlow, DenSlow: c.DenSlow,
		BudgetRemaining: 1,
	}
	allowed := o.allowed()
	if c.DenFast > 0 {
		st.FastBurn = float64(c.BadFast) / float64(c.DenFast) / allowed
	}
	if c.DenSlow > 0 {
		st.SlowBurn = float64(c.BadSlow) / float64(c.DenSlow) / allowed
		st.BudgetRemaining = 1 - st.SlowBurn
		if st.BudgetRemaining < 0 {
			st.BudgetRemaining = 0
		}
	}
	return st
}

// target returns the alert state the current burns call for, before
// hysteresis.
func burnState(fast, slow float64) State {
	switch {
	case fast >= PageBurn && slow >= 1:
		return StatePage
	case fast >= WarnBurn || slow >= 1:
		return StateWarn
	default:
		return StateOK
	}
}

// ring is a bad/applicable bit window keyed by epoch index with
// subtract-on-evict running sums. Slot encoding: 0 empty or not
// applicable, 1 applicable good, 2 applicable bad — evicting a zero
// slot is naturally a no-op, so no occupancy bitmap is needed.
type ring struct {
	slots    []uint8
	bad, den uint64
}

func newRing(n int) ring {
	if n < 1 {
		n = 1
	}
	return ring{slots: make([]uint8, n)}
}

func (r *ring) observe(epoch uint64, applicable, bad bool) {
	i := epoch % uint64(len(r.slots))
	switch r.slots[i] {
	case 1:
		r.den--
	case 2:
		r.den--
		r.bad--
	}
	switch {
	case !applicable:
		r.slots[i] = 0
	case bad:
		r.slots[i] = 2
		r.den++
		r.bad++
	default:
		r.slots[i] = 1
		r.den++
	}
}

// objState is the per-objective live state inside an Evaluator.
type objState struct {
	fast, slow ring
	state      State
	calm       int // consecutive evaluations below the current state
}

// Evaluator runs a set of objectives over one sample stream. Not safe
// for concurrent use — one evaluator per session, owned by the shard
// goroutine that steps the session.
type Evaluator struct {
	objs   []Objective
	states []objState

	// OnTransition, when non-nil, is invoked from Observe whenever
	// an objective's alert state changes (both escalations and
	// de-escalations), after the new state is committed. It runs on
	// the observing goroutine; implementations must be cheap and
	// must not call back into the evaluator. Incident capture hooks
	// on page transitions here.
	OnTransition func(name string, from, to State)
}

// NewEvaluator validates the objectives and builds their windows.
func NewEvaluator(objs []Objective) (*Evaluator, error) {
	if len(objs) == 0 {
		return nil, fmt.Errorf("slo: no objectives")
	}
	e := &Evaluator{
		objs:   append([]Objective(nil), objs...),
		states: make([]objState, len(objs)),
	}
	seen := make(map[string]bool, len(objs))
	for i, o := range e.objs {
		if err := o.validate(); err != nil {
			return nil, err
		}
		if o.Name == "" {
			return nil, fmt.Errorf("slo: objective %d has no name", i)
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("slo: duplicate objective name %q", o.Name)
		}
		seen[o.Name] = true
		fastW := o.Window / 10
		if fastW < 1 {
			fastW = 1
		}
		e.states[i] = objState{fast: newRing(fastW), slow: newRing(o.Window)}
	}
	return e, nil
}

// Observe folds one epoch's sample into every objective's windows and
// advances alert states: escalation is immediate, de-escalation steps
// down one level after Clear consecutive calmer evaluations.
// Allocation-free.
func (e *Evaluator) Observe(s *quality.Sample) {
	if e == nil {
		return
	}
	for i := range e.objs {
		o := &e.objs[i]
		st := &e.states[i]
		applicable, bad := o.classify(s)
		st.fast.observe(s.Epoch, applicable, bad)
		st.slow.observe(s.Epoch, applicable, bad)

		allowed := o.allowed()
		var fastBurn, slowBurn float64
		if st.fast.den > 0 {
			fastBurn = float64(st.fast.bad) / float64(st.fast.den) / allowed
		}
		if st.slow.den > 0 {
			slowBurn = float64(st.slow.bad) / float64(st.slow.den) / allowed
		}
		want := burnState(fastBurn, slowBurn)
		clear := o.Clear
		if clear <= 0 {
			clear = DefaultClear
		}
		prev := st.state
		switch {
		case want >= st.state:
			st.state = want
			st.calm = 0
		default:
			st.calm++
			if st.calm >= clear {
				st.state--
				st.calm = 0
			}
		}
		if st.state != prev && e.OnTransition != nil {
			e.OnTransition(o.Name, prev, st.state)
		}
	}
}

// Worst returns the most severe state across objectives.
func (e *Evaluator) Worst() State {
	if e == nil {
		return StateOK
	}
	w := StateOK
	for i := range e.states {
		if s := e.states[i].state; s > w {
			w = s
		}
	}
	return w
}

// Objectives returns the evaluator's objective set (do not mutate).
func (e *Evaluator) Objectives() []Objective {
	if e == nil {
		return nil
	}
	return e.objs
}

// CountersInto copies the per-objective counters into dst (length must
// be len(Objectives())). Allocation-free, for snapshot publication.
func (e *Evaluator) CountersInto(dst []Counters) {
	for i := range e.states {
		st := &e.states[i]
		dst[i] = Counters{
			BadFast: st.fast.bad, DenFast: st.fast.den,
			BadSlow: st.slow.bad, DenSlow: st.slow.den,
			State: st.state,
		}
	}
}

// DefaultObjectives is the serving default: three objectives over a
// 600-epoch window (10 minutes at 1 Hz). The targets are calibrated
// against the default scenario's clean-sky quality distribution
// (post-fit residual RMS p50 ≈ 3.3 m, p95 ≈ 7.6 m, p99 ≈ 11 m; χ²
// pass rate ≈ 97.6% at the default 5 m measurement sigma), leaving
// enough headroom that a healthy fleet holds its error budgets while a
// 10 m noise burst — which RAIM alone does not flag — pages within a
// couple of minutes.
func DefaultObjectives() []Objective {
	return []Objective{
		{Name: "availability", Kind: KindAvailability, Target: 99.9, Window: 600},
		{Name: "p99_rms", Kind: KindRMSQuantile, Target: 13, Quantile: 0.99, Window: 600},
		{Name: "chi2_pass", Kind: KindChi2PassRate, Target: 95, Window: 600},
	}
}

// ParseObjectives parses a comma-separated objective spec:
//
//	availability>=99.9@600,p99_rms<=8@600,chi2>=98@600
//
// Clause grammar: availability>=PCT@WINDOW | pNN_rms<=METERS@WINDOW |
// chi2>=PCT@WINDOW. An empty spec returns DefaultObjectives().
func ParseObjectives(spec string) ([]Objective, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return DefaultObjectives(), nil
	}
	var objs []Objective
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		o, err := parseClause(clause)
		if err != nil {
			return nil, err
		}
		objs = append(objs, o)
	}
	if len(objs) == 0 {
		return nil, fmt.Errorf("slo: empty spec %q", spec)
	}
	return objs, nil
}

func parseClause(clause string) (Objective, error) {
	var o Objective
	body, windowStr, ok := strings.Cut(clause, "@")
	if !ok {
		return o, fmt.Errorf("slo clause %q: missing @window", clause)
	}
	window, err := strconv.Atoi(strings.TrimSpace(windowStr))
	if err != nil {
		return o, fmt.Errorf("slo clause %q: bad window: %v", clause, err)
	}
	o.Window = window
	body = strings.TrimSpace(body)
	switch {
	case strings.HasPrefix(body, "availability>="):
		o.Name, o.Kind = "availability", KindAvailability
		o.Target, err = strconv.ParseFloat(body[len("availability>="):], 64)
	case strings.HasPrefix(body, "chi2>="):
		o.Name, o.Kind = "chi2_pass", KindChi2PassRate
		o.Target, err = strconv.ParseFloat(body[len("chi2>="):], 64)
	case strings.HasPrefix(body, "p") && strings.Contains(body, "_rms<="):
		head, val, _ := strings.Cut(body, "_rms<=")
		nn, perr := strconv.Atoi(head[1:])
		if perr != nil || nn <= 0 || nn >= 100 {
			return o, fmt.Errorf("slo clause %q: bad quantile %q", clause, head)
		}
		o.Name = fmt.Sprintf("p%d_rms", nn)
		o.Kind = KindRMSQuantile
		o.Quantile = float64(nn) / 100
		o.Target, err = strconv.ParseFloat(val, 64)
	default:
		return o, fmt.Errorf("slo clause %q: unrecognized objective", clause)
	}
	if err != nil {
		return o, fmt.Errorf("slo clause %q: bad target: %v", clause, err)
	}
	if verr := o.validate(); verr != nil {
		return o, verr
	}
	return o, nil
}
