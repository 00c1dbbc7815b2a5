package engine

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"gpsdl/internal/core"
	"gpsdl/internal/eval"
	"gpsdl/internal/fault"
	"gpsdl/internal/journal"
	"gpsdl/internal/scenario"
)

// runJournaled runs a journaling engine over [0, epochs) and scans the
// resulting journal.
func runJournaled(t *testing.T, cfg Config, epochs int) *journal.ScanResult {
	t.Helper()
	var buf bytes.Buffer
	cfg.JournalSink = &buf
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	if err := eng.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	res, err := journal.Scan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn {
		t.Fatalf("journal torn after clean run: %s at %d", res.TornReason, res.TornOffset)
	}
	return res
}

// perReceiver groups records by receiver, preserving epoch order.
func perReceiver(res *journal.ScanResult) map[int][]journal.Record {
	out := map[int][]journal.Record{}
	for _, r := range res.Records {
		out[r.Receiver] = append(out[r.Receiver], r)
	}
	for _, recs := range out {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Epoch < recs[j].Epoch })
	}
	return out
}

// TestJournalCompleteAndDeterministic: every (receiver, epoch) pair is
// recorded exactly once, and per-receiver record streams are identical
// for any worker count / batch size — the engine's determinism
// guarantee extended to the journal.
func TestJournalCompleteAndDeterministic(t *testing.T) {
	const receivers, epochs = 6, 200
	base := Config{
		Receivers: receivers, Seed: 9, Quality: &QualityConfig{},
		Faults:    fault.Program{{Kind: fault.KindStep, PRN: 14, Bias: 40, From: 80, Until: 160}},
		FaultSeed: 3,
	}
	cfgA := base
	cfgA.Workers, cfgA.BatchSize = 1, 64
	cfgB := base
	cfgB.Workers, cfgB.BatchSize = 3, 7
	a := perReceiver(runJournaled(t, cfgA, epochs))
	b := perReceiver(runJournaled(t, cfgB, epochs))
	if len(a) != receivers || len(b) != receivers {
		t.Fatalf("receiver coverage: %d vs %d, want %d", len(a), len(b), receivers)
	}
	for r := 0; r < receivers; r++ {
		if len(a[r]) != epochs {
			t.Fatalf("receiver %d: %d records, want %d", r, len(a[r]), epochs)
		}
		for i := range a[r] {
			if a[r][i].Epoch != uint64(i) {
				t.Fatalf("receiver %d: record %d has epoch %d", r, i, a[r][i].Epoch)
			}
			if !reflect.DeepEqual(a[r][i], b[r][i]) {
				t.Fatalf("receiver %d epoch %d differs across worker counts:\n%+v\n%+v",
					r, i, a[r][i], b[r][i])
			}
		}
	}
}

// TestJournalCapturedObsReplayBitIdentical: a captured observation set
// replayed through the named solver (with the captured clock estimate
// pinned) reproduces the recorded solution position bit-for-bit — the
// guarantee gpsinspect replay and the incident smoke rely on.
func TestJournalCapturedObsReplayBitIdentical(t *testing.T) {
	const receivers, epochs = 2, 300
	for _, solver := range []string{"nr", "dlg", "dlo"} {
		res := runJournaled(t, Config{
			Receivers: receivers, Workers: 2, Seed: 21, Solver: solver,
			Quality:             &QualityConfig{},
			JournalCaptureEvery: 32,
			Faults:              fault.Program{{Kind: fault.KindStep, PRN: 14, Bias: 30, From: 100, Until: math.Inf(1)}},
			FaultSeed:           7,
		}, epochs)
		stations := map[string]scenario.Station{}
		for _, st := range scenario.Table51Stations() {
			stations[st.ID] = st
		}
		replayed := 0
		for _, rec := range res.Records {
			if !rec.Has(journal.FlagFix) || rec.Flags&journal.FlagObs == 0 || rec.Flags&journal.FlagCoast != 0 {
				continue
			}
			name := journal.SolverName(rec.Solver)
			in := &eval.ReplayInput{
				Station:    stations[res.Meta.Stations[rec.Receiver]],
				EpochIndex: int(rec.Epoch),
				T:          float64(rec.Epoch) * res.Meta.Step,
				Solver:     name,
				ClockBias:  rec.PredBias,
				Solution:   rec.Pos,
			}
			for _, o := range rec.Obs {
				in.Obs = append(in.Obs, core.Observation{Pos: o.Pos, Pseudorange: o.Pseudorange, Elevation: o.Elevation})
			}
			var sv core.Solver
			for _, cand := range in.Solvers() {
				if cand.Name() == name {
					sv = cand
				}
			}
			if sv == nil {
				t.Fatalf("captured solver %q not replayable", name)
			}
			sol, err := sv.Solve(in.T, in.Obs)
			if err != nil {
				t.Fatalf("solver %s epoch %d: replay failed: %v", name, rec.Epoch, err)
			}
			if sol.Pos != rec.Pos {
				t.Fatalf("solver %s epoch %d recv %d: replay not bit-identical:\n%+v\n%+v",
					name, rec.Epoch, rec.Receiver, sol.Pos, rec.Pos)
			}
			replayed++
		}
		if replayed < epochs/32 {
			t.Fatalf("solver %s: only %d captured fixes replayed", solver, replayed)
		}
	}
}

// TestJournalWeightedReplayBitIdentical: every captured fix replays
// bit-for-bit through eval.ReplayInputFromRecord's solver whether the
// engine solved it plain, weighted by C/N0 (eq. 4-26), with σ inflated
// by the disruption detector under a spoof, or both. The weighted
// cases must carry their σ (FlagSigma); the plain one must not.
func TestJournalWeightedReplayBitIdentical(t *testing.T) {
	prog, err := fault.ParseSpec("spoof:n=2,bias=500,from=70,until=130;step:prn=7,bias=400,from=140,until=170")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                  string
		weighting, disruption bool
		faults                fault.Program
	}{
		{"unweighted", false, false, nil},
		{"weighting", true, false, nil},
		{"disruption", false, true, prog},
		{"both", true, true, prog},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := runJournaled(t, Config{
				Receivers: 2, Workers: 2, Seed: 17, Quality: &QualityConfig{},
				Weighting: tc.weighting, Disruption: tc.disruption,
				Faults: tc.faults, FaultSeed: 3,
				JournalCaptureEvery: 8,
			}, 200)
			var replayed, sigma, mismatches int
			for i := range res.Records {
				rec := &res.Records[i]
				if !rec.Has(journal.FlagFix|journal.FlagObs) || rec.Has(journal.FlagCoast) {
					continue
				}
				if rec.Has(journal.FlagSigma) {
					sigma++
				}
				in, err := eval.ReplayInputFromRecord(&res.Meta, rec)
				if err != nil {
					t.Fatal(err)
				}
				sv := in.ReplaySolver()
				if sv == nil {
					t.Fatalf("captured solver %q not replayable", in.Solver)
				}
				sol, err := sv.Solve(in.T, in.Obs)
				if err != nil || sol.Pos != rec.Pos {
					mismatches++
				}
				replayed++
			}
			if replayed < 2*200/8 {
				t.Fatalf("only %d captured fixes replayed", replayed)
			}
			if mismatches != 0 {
				t.Errorf("%d of %d captured fixes did not replay bit-identically", mismatches, replayed)
			}
			if weighted := tc.weighting || tc.disruption; weighted != (sigma > 0) {
				t.Errorf("%d of %d captured fixes carry σ; want some iff the engine weights", sigma, replayed)
			}
		})
	}
}

// TestJournalFaultAttribution: under a step fault on PRN 14 that evades
// RAIM but fails χ², the faulted satellite must dominate the recorded
// residuals in the fault window.
func TestJournalFaultAttribution(t *testing.T) {
	res := runJournaled(t, Config{
		Receivers: 1, Workers: 1, Seed: 4, Quality: &QualityConfig{},
		Faults:    fault.Program{{Kind: fault.KindStep, PRN: 14, Bias: 30, From: 100, Until: math.Inf(1)}},
		FaultSeed: 1,
	}, 400)
	byPRN := map[int]float64{}
	var total float64
	for _, rec := range res.Records {
		if rec.Epoch < 100 || !rec.Has(journal.FlagChi2Valid) || rec.Has(journal.FlagChi2Pass) {
			continue
		}
		for _, sr := range rec.Residuals {
			byPRN[sr.PRN] += sr.Meters * sr.Meters
			total += sr.Meters * sr.Meters
		}
	}
	if total == 0 {
		t.Fatal("no chi2-failed epochs recorded under a 30 m step fault")
	}
	share := byPRN[14] / total
	if share < 0.5 {
		t.Fatalf("PRN 14 residual share %.2f, want > 0.5 (byPRN=%v)", share, byPRN)
	}
}

// TestIncidentHooks: a paging SLO and a panicking receiver must both
// surface through Config.OnIncident.
func TestIncidentHooks(t *testing.T) {
	var mu sync.Mutex
	var incidents []Incident
	cfg := Config{
		Receivers: 2, Workers: 2, Seed: 2, Quality: &QualityConfig{},
		Faults:    fault.Program{{Kind: fault.KindStep, PRN: 14, Bias: 30, From: 50, Until: math.Inf(1)}},
		FaultSeed: 5,
		ReceiverFaults: func(r int) fault.Program {
			if r == 1 {
				return fault.Program{{Kind: fault.KindPanic, From: 60, Until: 61}}
			}
			return nil
		},
		OnIncident: func(inc Incident) {
			mu.Lock()
			incidents = append(incidents, inc)
			mu.Unlock()
		},
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), 400); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	var sawPage, sawPanic bool
	for _, inc := range incidents {
		switch inc.Kind {
		case IncidentSLOPage:
			sawPage = true
			if inc.Objective == "" {
				t.Fatalf("slo_page incident without objective: %+v", inc)
			}
		case IncidentPanic, IncidentSessionFailed:
			sawPanic = true
			if inc.Receiver != 1 {
				t.Fatalf("panic incident on wrong receiver: %+v", inc)
			}
		}
	}
	if !sawPage {
		t.Fatalf("no slo_page incident; got %+v", incidents)
	}
	if !sawPanic {
		t.Fatalf("no panic incident; got %+v", incidents)
	}
}

// TestJournalHeaderSigma: the header carries the χ² σ every record was
// assessed with, whether or not the quality layer is on, so journals of
// one run made with and without it have equal headers.
func TestJournalHeaderSigma(t *testing.T) {
	for _, qc := range []*QualityConfig{nil, {}} {
		res := runJournaled(t, Config{Receivers: 1, Workers: 1, Seed: 3, Quality: qc}, 8)
		if res.Meta.Sigma != ChiSquareSigma {
			t.Errorf("quality on=%v: header sigma %g, want %g", qc != nil, res.Meta.Sigma, ChiSquareSigma)
		}
	}
}

// TestJournalTailSegmentLive: mid-run tail segments must be
// self-contained scannable journals.
func TestJournalTailSegmentLive(t *testing.T) {
	var buf bytes.Buffer
	eng, err := New(Config{
		Receivers: 2, Workers: 1, Seed: 3, JournalSink: &buf,
		JournalOptions: journal.Options{TailFrames: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), 500); err != nil {
		t.Fatal(err)
	}
	seg := eng.Journal().TailSegment()
	res, err := journal.Scan(bytes.NewReader(seg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn {
		t.Fatalf("tail segment torn: %s", res.TornReason)
	}
	if len(res.Records) == 0 {
		t.Fatal("tail segment has no records")
	}
	if got := res.Records[len(res.Records)-1].Epoch; got != 499 {
		t.Fatalf("tail segment last epoch %d, want 499", got)
	}
}

// BenchmarkEngineSteadyStateJournal is BenchmarkEngineSteadyState with
// the flight journal recording every epoch; the acceptance bar is
// still 0 allocs/op (encoding appends into reused buffers; framing
// happens at the simulated batch boundary).
func BenchmarkEngineSteadyStateJournal(b *testing.B) {
	for _, solver := range []string{"nr", "dlg"} {
		b.Run(solver, func(b *testing.B) {
			eng, err := New(Config{
				Receivers: 1, Workers: 1, Solver: solver, Seed: 11,
				JournalSink: io.Discard,
			})
			if err != nil {
				b.Fatal(err)
			}
			const warm = 300
			pre := warm + b.N
			if err := eng.Pregenerate(pre); err != nil {
				b.Fatal(err)
			}
			s := eng.sessions[0]
			sh := eng.shards[0]
			sh.jenc.Begin(0, 0)
			for i := 0; i < warm; i++ {
				s.step(i)
				if (i+1)%32 == 0 {
					sh.flushJournal(uint64(i))
					sh.jenc.Begin(0, uint64(i+1))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.step(warm + i)
				if (i+1)%32 == 0 {
					sh.flushJournal(uint64(warm + i))
					sh.jenc.Begin(0, uint64(warm+i+1))
				}
			}
		})
	}
}

var _ = fmt.Sprintf // keep fmt imported if assertions above change
