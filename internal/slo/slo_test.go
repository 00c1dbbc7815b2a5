package slo

import (
	"math"
	"testing"

	"gpsdl/internal/quality"
)

func goodSample(e uint64) quality.Sample {
	return quality.Sample{
		Epoch: e, FixOK: true,
		RMS: 2.0, RMSValid: true,
		Chi2Pass: true, Chi2Valid: true,
	}
}

func badSample(e uint64) quality.Sample {
	return quality.Sample{
		Epoch: e, FixOK: true,
		RMS: 50, RMSValid: true,
		Chi2Pass: false, Chi2Valid: true,
	}
}

func testObjectives() []Objective {
	return []Objective{
		{Name: "availability", Kind: KindAvailability, Target: 99.9, Window: 600},
		{Name: "p99_rms", Kind: KindRMSQuantile, Target: 8, Quantile: 0.99, Window: 600},
		{Name: "chi2_pass", Kind: KindChi2PassRate, Target: 98, Window: 600},
	}
}

func TestEvaluatorCleanStreamStaysOK(t *testing.T) {
	e, err := NewEvaluator(testObjectives())
	if err != nil {
		t.Fatal(err)
	}
	for ep := uint64(0); ep < 2000; ep++ {
		s := goodSample(ep)
		e.Observe(&s)
		if w := e.Worst(); w != StateOK {
			t.Fatalf("epoch %d: state %v on a clean stream", ep, w)
		}
	}
	cs := make([]Counters, 3)
	e.CountersInto(cs)
	for i, c := range cs {
		if c.BadSlow != 0 || c.DenSlow == 0 {
			t.Errorf("objective %d counters %+v", i, c)
		}
		st := e.Objectives()[i].Status(c)
		if st.BudgetRemaining != 1 || st.FastBurn != 0 {
			t.Errorf("objective %d status %+v", i, st)
		}
	}
}

// A hard degradation must escalate to page within roughly the fast
// window, and recovery must step down warily: one level per Clear
// consecutive calm evaluations.
func TestEvaluatorPageAndHysteresis(t *testing.T) {
	objs := testObjectives()
	e, err := NewEvaluator(objs)
	if err != nil {
		t.Fatal(err)
	}
	ep := uint64(0)
	for ; ep < 1000; ep++ {
		s := goodSample(ep)
		e.Observe(&s)
	}
	// Degrade: every epoch bad. Fast window is 60; with allowed 1–2%,
	// fast burn crosses 10 within a handful of epochs, slow ≥ 1 soon
	// after.
	pagedAt := -1
	for i := 0; i < 600; i++ {
		s := badSample(ep)
		e.Observe(&s)
		ep++
		if e.Worst() == StatePage {
			pagedAt = i
			break
		}
	}
	if pagedAt < 0 {
		t.Fatal("never paged under a 100% bad stream")
	}
	if pagedAt > 120 {
		t.Errorf("paged only after %d bad epochs, want within ~2 fast windows", pagedAt)
	}

	// Recover. The slow window still carries the bad epochs, so slow
	// burn stays ≥ 1 for a while: state must NOT drop instantly.
	s := goodSample(ep)
	e.Observe(&s)
	ep++
	if e.Worst() != StatePage {
		t.Error("single good epoch cleared a page")
	}
	downAt := -1
	for i := 0; i < 3000; i++ {
		s := goodSample(ep)
		e.Observe(&s)
		ep++
		if e.Worst() == StateOK {
			downAt = i
			break
		}
	}
	if downAt < 0 {
		t.Fatal("never recovered to ok")
	}
	// Two de-escalations (page→warn→ok) at ≥ Clear calm evals each.
	if downAt < 2*DefaultClear-2 {
		t.Errorf("recovered after only %d epochs; hysteresis demands ≥ %d", downAt, 2*DefaultClear-2)
	}
}

// The availability objective must ignore RMS/chi2 and vice versa:
// missing fixes with no RMS data burn availability only.
// TestBurnStateThresholds pins the documented alert thresholds: an
// objective pages when its budget burns at >= 10x over the fast window
// while the slow window has spent it (slow burn >= 1), and warns at a
// fast burn >= 2x or a spent slow budget alone.
func TestBurnStateThresholds(t *testing.T) {
	tests := []struct {
		fast, slow float64
		want       State
	}{
		{10, 1, StatePage},
		{9.99, 1, StateWarn},
		{10, 0.99, StateWarn},
		{2, 0, StateWarn},
		{1.99, 0.99, StateOK},
	}
	for _, tt := range tests {
		if got := burnState(tt.fast, tt.slow); got != tt.want {
			t.Errorf("burnState(fast %v, slow %v) = %v, want %v", tt.fast, tt.slow, got, tt.want)
		}
	}
}

func TestObjectiveIndependence(t *testing.T) {
	e, err := NewEvaluator(testObjectives())
	if err != nil {
		t.Fatal(err)
	}
	ep := uint64(0)
	for ; ep < 700; ep++ {
		s := goodSample(ep)
		e.Observe(&s)
	}
	for i := 0; i < 100; i++ {
		s := quality.Sample{Epoch: ep} // outage: no fix, no data
		e.Observe(&s)
		ep++
	}
	cs := make([]Counters, 3)
	e.CountersInto(cs)
	if cs[0].BadSlow == 0 {
		t.Error("availability saw no bad epochs during an outage")
	}
	if cs[1].BadSlow != 0 || cs[2].BadSlow != 0 {
		t.Errorf("rms/chi2 burned during a no-data outage: %+v %+v", cs[1], cs[2])
	}
	// The outage epochs are not applicable to rms/chi2, so their slow
	// denominators shrink as evicted good epochs are replaced by gaps.
	if cs[1].DenSlow != 500 {
		t.Errorf("rms slow denominator = %d, want 500 (600-window minus 100 gaps)", cs[1].DenSlow)
	}
}

func TestCountersMergeAndStatus(t *testing.T) {
	o := Objective{Name: "availability", Kind: KindAvailability, Target: 99, Window: 600}
	a := Counters{BadFast: 1, DenFast: 60, BadSlow: 3, DenSlow: 600, State: StateWarn}
	b := Counters{BadFast: 2, DenFast: 60, BadSlow: 3, DenSlow: 600, State: StatePage}
	a.Merge(b)
	if a.BadSlow != 6 || a.DenSlow != 1200 || a.State != StatePage {
		t.Fatalf("merged counters %+v", a)
	}
	st := o.Status(a)
	// allowed = 1%; slow burn = (6/1200)/0.01 = 0.5; fast = (3/120)/0.01 = 2.5
	if math.Abs(st.SlowBurn-0.5) > 1e-12 || math.Abs(st.FastBurn-2.5) > 1e-12 {
		t.Errorf("burns fast=%g slow=%g", st.FastBurn, st.SlowBurn)
	}
	if math.Abs(st.BudgetRemaining-0.5) > 1e-12 {
		t.Errorf("budget remaining = %g, want 0.5", st.BudgetRemaining)
	}
	// Exhausted budget clamps to 0.
	ex := o.Status(Counters{BadSlow: 600, DenSlow: 600})
	if ex.BudgetRemaining != 0 {
		t.Errorf("exhausted budget remaining = %g", ex.BudgetRemaining)
	}
}

func TestObserveZeroAlloc(t *testing.T) {
	e, err := NewEvaluator(testObjectives())
	if err != nil {
		t.Fatal(err)
	}
	var ep uint64
	allocs := testing.AllocsPerRun(1000, func() {
		s := goodSample(ep)
		e.Observe(&s)
		ep++
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %.1f/op, want 0", allocs)
	}
	cs := make([]Counters, 3)
	allocs = testing.AllocsPerRun(100, func() {
		e.CountersInto(cs)
	})
	if allocs != 0 {
		t.Errorf("CountersInto allocates %.1f/op, want 0", allocs)
	}
}

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives("availability>=99.9@600, p95_rms<=5@300 ,chi2>=98@600")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 {
		t.Fatalf("parsed %d objectives", len(objs))
	}
	if objs[0].Kind != KindAvailability || objs[0].Target != 99.9 || objs[0].Window != 600 {
		t.Errorf("availability parsed as %+v", objs[0])
	}
	if objs[1].Kind != KindRMSQuantile || objs[1].Quantile != 0.95 || objs[1].Target != 5 || objs[1].Window != 300 {
		t.Errorf("p95_rms parsed as %+v", objs[1])
	}
	if objs[1].Name != "p95_rms" {
		t.Errorf("quantile objective named %q", objs[1].Name)
	}
	if objs[2].Kind != KindChi2PassRate || objs[2].Target != 98 {
		t.Errorf("chi2 parsed as %+v", objs[2])
	}
	// Empty spec = defaults.
	def, err := ParseObjectives("")
	if err != nil || len(def) != 3 {
		t.Errorf("default parse: %v / %d objectives", err, len(def))
	}
	for _, bad := range []string{
		"availability>=99.9",    // no window
		"availability>=0@600",   // zero budget edge
		"availability>=100@600", // zero budget
		"p0_rms<=5@600",         // bad quantile
		"p99_rms<=0@600",        // bad target
		"latency<=5@600",        // unknown kind
		"availability>=99.9@5",  // window too small
		"chi2>=abc@600",         // unparsable target
		",",                     // empty clauses only
		"availability>99.9@600", // wrong operator
		"availability>=NaN@600", // NaN target: a NaN error budget
		"chi2>=nan@600",         // likewise
		"p99_rms<=NaN@600",      // NaN threshold: never bad
		"p99_rms<=+Inf@600",     // infinite threshold: never bad
	} {
		if _, err := ParseObjectives(bad); err == nil {
			t.Errorf("ParseObjectives(%q) accepted", bad)
		}
	}
}

func TestNewEvaluatorValidation(t *testing.T) {
	if _, err := NewEvaluator(nil); err == nil {
		t.Error("empty objective list accepted")
	}
	dup := []Objective{
		{Name: "a", Kind: KindAvailability, Target: 99, Window: 600},
		{Name: "a", Kind: KindChi2PassRate, Target: 98, Window: 600},
	}
	if _, err := NewEvaluator(dup); err == nil {
		t.Error("duplicate names accepted")
	}
	anon := []Objective{{Kind: KindAvailability, Target: 99, Window: 600}}
	if _, err := NewEvaluator(anon); err == nil {
		t.Error("unnamed objective accepted")
	}
}

// Identical sample streams must yield byte-identical counters — the
// session-level property the engine's fleet determinism test builds on.
func TestEvaluatorDeterminism(t *testing.T) {
	run := func() []Counters {
		e, err := NewEvaluator(testObjectives())
		if err != nil {
			t.Fatal(err)
		}
		for ep := uint64(0); ep < 2500; ep++ {
			var s quality.Sample
			switch {
			case ep%97 == 0:
				s = quality.Sample{Epoch: ep}
			case ep%13 == 0:
				s = badSample(ep)
			default:
				s = goodSample(ep)
			}
			e.Observe(&s)
		}
		cs := make([]Counters, 3)
		e.CountersInto(cs)
		return cs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("objective %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// The OnTransition hook must fire once per state change, with matching
// from/to pairs, covering both the escalation to page and the stepped
// de-escalation back to ok.
func TestOnTransitionHook(t *testing.T) {
	e, err := NewEvaluator(testObjectives())
	if err != nil {
		t.Fatal(err)
	}
	type tr struct {
		name     string
		from, to State
	}
	var got []tr
	e.OnTransition = func(name string, from, to State) {
		got = append(got, tr{name, from, to})
	}
	ep := uint64(0)
	for ; ep < 1000; ep++ {
		s := goodSample(ep)
		e.Observe(&s)
	}
	if len(got) != 0 {
		t.Fatalf("transitions on a clean stream: %+v", got)
	}
	for i := 0; i < 300; i++ {
		s := badSample(ep)
		e.Observe(&s)
		ep++
	}
	paged := false
	for _, g := range got {
		if g.to == StatePage {
			paged = true
		}
		if g.from == g.to {
			t.Fatalf("no-op transition reported: %+v", g)
		}
	}
	if !paged {
		t.Fatalf("no page transition reported; got %+v", got)
	}
	// Recover and verify de-escalations are reported too.
	mark := len(got)
	for i := 0; i < 5000 && e.Worst() != StateOK; i++ {
		s := goodSample(ep)
		e.Observe(&s)
		ep++
	}
	down := 0
	for _, g := range got[mark:] {
		if g.to < g.from {
			down++
		}
	}
	if down == 0 {
		t.Fatalf("no de-escalation transitions reported; got %+v", got[mark:])
	}
}
