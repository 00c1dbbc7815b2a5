package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"gpsdl/internal/fault"
	"gpsdl/internal/quality"
	"gpsdl/internal/slo"
	"gpsdl/internal/telemetry"
)

// qualityTestObjectives uses short windows so tests exercise full budget
// cycles in a few hundred epochs.
func qualityTestObjectives() []slo.Objective {
	return []slo.Objective{
		{Name: "availability", Kind: slo.KindAvailability, Target: 99, Window: 200},
		{Name: "p99_rms", Kind: slo.KindRMSQuantile, Target: 13, Quantile: 0.99, Window: 200},
		{Name: "chi2_pass", Kind: slo.KindChi2PassRate, Target: 90, Window: 200},
	}
}

// TestQualityDeterminism is the acceptance test of ISSUE 6: an identical
// scenario and seed must produce byte-identical SLO verdicts and window
// digests regardless of worker count and batch size. Per-shard digests
// are exempt (shard composition depends on the worker count) and are
// stripped before comparison.
func TestQualityDeterminism(t *testing.T) {
	prog, err := fault.ParseSpec(
		"burst:sigma=9,from=100,until=220;drop:prn=2,from=150,until=260;shrink:n=3,from=400,until=450")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers, batch int) []byte {
		eng, err := New(Config{
			Receivers: 6,
			Workers:   workers,
			BatchSize: batch,
			Seed:      42,
			Faults:    prog,
			FaultSeed: 1234,
			Quality: &QualityConfig{
				Window:     256,
				EvalEvery:  64,
				Objectives: qualityTestObjectives(),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(context.Background(), 640); err != nil {
			t.Fatal(err)
		}
		fq := eng.Quality(6)
		fq.Shards = nil
		out, err := json.Marshal(fq)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(1, 32)
	for _, cfg := range []struct{ workers, batch int }{{2, 32}, {3, 7}, {6, 1}} {
		got := run(cfg.workers, cfg.batch)
		if !bytes.Equal(ref, got) {
			t.Errorf("workers=%d batch=%d: quality status diverged from workers=1\nref: %s\ngot: %s",
				cfg.workers, cfg.batch, ref, got)
		}
	}
}

// TestQualityPageOnDegradation proves the full coupling chain: a fault
// that degrades solution quality without killing fixes must burn the
// RMS/χ² error budgets, flip the SLO verdict ok → page, and force
// session health downgrades — while availability (which the fault does
// not touch) stays ok.
func TestQualityPageOnDegradation(t *testing.T) {
	// Burst sigma 10 m: residual RMS ≈ 10 m stays under the RAIM
	// threshold (15 m), so fixes remain "clean" — exactly the quiet
	// quality rot the SLO layer exists to catch.
	prog, err := fault.ParseSpec("burst:sigma=10,from=256,until=100000")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{
		Receivers: 2,
		Workers:   2,
		Seed:      42,
		Faults:    prog,
		FaultSeed: 99,
		Quality: &QualityConfig{
			Window:     256,
			EvalEvery:  64,
			Objectives: qualityTestObjectives(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), 256); err != nil {
		t.Fatal(err)
	}
	before := eng.Quality(5)
	if !before.Enabled {
		t.Fatal("quality layer not enabled")
	}
	if before.Worst != slo.StateOK {
		t.Fatalf("clean phase verdict = %v, want ok: %+v", before.Worst, before.Objectives)
	}
	if eng.Stats().SLODowngrades != 0 {
		t.Fatal("SLO downgrades before any degradation")
	}

	if err := eng.RunRange(context.Background(), 256, 1024); err != nil {
		t.Fatal(err)
	}
	after := eng.Quality(5)
	if after.Worst != slo.StatePage {
		t.Fatalf("degraded phase verdict = %v, want page: %+v", after.Worst, after.Objectives)
	}
	var avail, rms slo.Status
	for _, st := range after.Objectives {
		switch st.Name {
		case "availability":
			avail = st
		case "p99_rms":
			rms = st
		}
	}
	if avail.State != slo.StateOK {
		t.Errorf("availability paged under a noise-only fault: %+v", avail)
	}
	if rms.State != slo.StatePage {
		t.Errorf("p99_rms did not page: %+v", rms)
	}
	if rms.BudgetRemaining != 0 {
		t.Errorf("p99_rms budget remaining = %g under a saturating fault", rms.BudgetRemaining)
	}
	if got := float64(after.Digest.RMSP99); got < 13 {
		t.Errorf("fleet p99 RMS = %.2f m, want > 13 under sigma=10 burst", got)
	}
	if eng.Stats().SLODowngrades == 0 {
		t.Error("paging SLO forced no session health downgrades")
	}
}

// TestQualityAssembly checks the merged fleet structure: counts add up
// across sessions, worst-sessions ranking is bounded and sorted, and
// each shard digest merges that shard's session windows.
func TestQualityAssembly(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng, err := New(Config{
		Receivers: 5,
		Workers:   2,
		Seed:      3,
		Registry:  reg,
		Quality: &QualityConfig{
			Window:     128,
			EvalEvery:  32,
			Objectives: qualityTestObjectives(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), 256); err != nil {
		t.Fatal(err)
	}
	fq := eng.Quality(3)
	if !fq.Enabled {
		t.Fatal("not enabled")
	}
	// Each of the 5 sessions contributes a full 128-epoch window.
	if fq.Window.Count != 5*128 {
		t.Errorf("fleet window count = %d, want 640", fq.Window.Count)
	}
	if len(fq.Sessions) != 3 {
		t.Errorf("topK=3 returned %d sessions", len(fq.Sessions))
	}
	for i := 1; i < len(fq.Sessions); i++ {
		if fq.Sessions[i-1].Worst < fq.Sessions[i].Worst {
			t.Errorf("worst-sessions not sorted by severity: %+v", fq.Sessions)
		}
	}
	if len(fq.Shards) != 2 {
		t.Errorf("%d shard digests, want 2", len(fq.Shards))
	}
	// Each shard digest is the merge of its sessions' published windows,
	// and the shards together cover exactly the fleet window.
	var shardTotal uint64
	for _, sq := range fq.Shards {
		var w quality.Snapshot
		for _, s := range eng.shards[sq.Shard].sessions {
			w.Merge(&s.qual.pub.Load().Window)
		}
		want, _ := json.Marshal(w.Digest())
		got, _ := json.Marshal(sq.Digest)
		if !bytes.Equal(got, want) {
			t.Errorf("shard %d digest %s, want the merge of its sessions %s", sq.Shard, got, want)
		}
		shardTotal += sq.Digest.Count
	}
	if shardTotal != fq.Window.Count {
		t.Errorf("shard windows cover %d epochs, fleet window %d", shardTotal, fq.Window.Count)
	}
	if len(fq.Objectives) != 3 {
		t.Fatalf("%d objective statuses", len(fq.Objectives))
	}
	if av := float64(fq.Digest.Availability); av != 1 {
		t.Errorf("clean-run availability = %g", av)
	}
	if p99 := float64(fq.Digest.RMSP99); math.IsNaN(p99) || p99 <= 0 || p99 > 13 {
		t.Errorf("clean-run fleet p99 RMS = %g, want a small positive value", p99)
	}
	// A clean run must never page; a lingering warn is legitimate (alert
	// hysteresis holds a session at warn for Clear epochs after a
	// transient fast-burn spike).
	if fq.Worst == slo.StatePage {
		t.Errorf("clean run paged: %+v", fq.Objectives)
	}
	// Quality() refreshes the SLO gauges to match the verdict it returns.
	if g := reg.Gauge("engine_slo_worst_state", ""); g.Value() != float64(fq.Worst) {
		t.Errorf("worst-state gauge = %g, verdict %v", g.Value(), fq.Worst)
	}
	if g := reg.Gauge("engine_quality_fleet_availability", ""); g.Value() != 1 {
		t.Errorf("availability gauge = %g", g.Value())
	}
	// The whole structure must be JSON-marshalable (NaN-bearing digests
	// included) because /debug/status serves it directly.
	if _, err := json.Marshal(fq); err != nil {
		t.Errorf("marshal: %v", err)
	}
}

// TestQualityDisabled pins the off-switch: no Config.Quality, no quality
// state, zero-value FixQuality on events, and an empty verdict.
func TestQualityDisabled(t *testing.T) {
	sawQuality := false
	eng, err := New(Config{
		Receivers: 1,
		Workers:   1,
		Seed:      2,
		Sink: func(ev FixEvent) {
			if ev.Quality.RMSValid || ev.Quality.Chi2Valid {
				sawQuality = true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), 64); err != nil {
		t.Fatal(err)
	}
	if sawQuality {
		t.Error("FixEvent.Quality populated with the layer disabled")
	}
	if eng.QualityEnabled() {
		t.Error("QualityEnabled() with nil config")
	}
	fq := eng.Quality(5)
	if fq.Enabled || len(fq.Objectives) != 0 {
		t.Errorf("disabled Quality() = %+v", fq)
	}
}

// TestQualityEventFields checks that the per-fix quality evidence rides
// on FixEvent when the layer is on: clean epochs carry a valid,
// passing χ² verdict and a sub-sigma-scale residual RMS.
func TestQualityEventFields(t *testing.T) {
	var checked, passed int
	eng, err := New(Config{
		Receivers: 1,
		Workers:   1,
		Seed:      4,
		Quality:   &QualityConfig{Window: 64, EvalEvery: 16, Objectives: qualityTestObjectives()},
		Sink: func(ev FixEvent) {
			if ev.Err != nil || ev.Coast {
				return
			}
			if !ev.Quality.RMSValid {
				t.Errorf("epoch %d: fix without RMS (sats=%d)", ev.Epoch, ev.Sats)
				return
			}
			if ev.Quality.Chi2Valid {
				checked++
				if ev.Quality.Chi2Pass {
					passed++
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), 200); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no χ²-checked fixes")
	}
	if float64(passed)/float64(checked) < 0.95 {
		t.Errorf("clean-scenario χ² pass rate %d/%d, want ≥ 95%%", passed, checked)
	}
}

// BenchmarkEngineSteadyStateQuality is BenchmarkEngineSteadyState with
// the quality layer enabled: the bar stays 0 allocs/op (publication
// allocs amortize to < 0.05/op at EvalEvery=64).
func BenchmarkEngineSteadyStateQuality(b *testing.B) {
	eng, err := New(Config{
		Receivers: 1, Workers: 1, Solver: "dlg", Seed: 11,
		Quality: &QualityConfig{},
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
	for i := 0; i < warm; i++ {
		s.step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(warm + i)
	}
}
