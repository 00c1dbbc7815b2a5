package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"gpsdl/internal/core"
	"gpsdl/internal/fault"
	"gpsdl/internal/scenario"
)

// collectNMEA runs the engine and returns each receiver's NMEA output
// (GGA+RMC per epoch) plus the set of solver names that produced fixes.
// A non-nil prep adjusts the built engine before it runs.
func collectNMEA(t *testing.T, cfg Config, epochs int, prep func(*Engine)) ([][]string, map[string]int) {
	t.Helper()
	out := make([][]string, cfg.Receivers)
	solvers := map[string]int{}
	var mu sync.Mutex
	cfg.Sink = func(e FixEvent) {
		mu.Lock()
		defer mu.Unlock()
		out[e.Receiver] = append(out[e.Receiver], string(e.GGA)+string(e.RMC))
		if e.Err == nil && !e.Coast {
			solvers[e.Solver]++
		}
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(eng)
	}
	if err := eng.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	return out, solvers
}

// TestEngineDefaultFlipNMEAIdentical is the flip acceptance test: with
// weighting off (the default), the engine's NMEA output is byte-identical
// whether the primary DLG runs the engine's Sherman–Morrison fast path
// or the paper's dense Cholesky — the routes agree far below NMEA's
// coordinate quantization. (Both are pinned to the explicit eq. 4-21
// oracle by internal/core's differential harness.)
func TestEngineDefaultFlipNMEAIdentical(t *testing.T) {
	const receivers, epochs = 3, 60
	base := Config{Receivers: receivers, Workers: 2, Seed: 11}
	ref, refSolvers := collectNMEA(t, base, epochs, nil)
	if refSolvers["DLG-fast"] == 0 {
		t.Fatalf("default engine did not use the fast DLG path: %v", refSolvers)
	}
	paperRoute := func(eng *Engine) {
		for _, s := range eng.sessions {
			for _, sv := range s.chain.Solvers() {
				if dlg, ok := sv.(*core.DLGSolver); ok {
					dlg.Variant = core.VariantPaper
				}
			}
		}
	}
	got, gotSolvers := collectNMEA(t, base, epochs, paperRoute)
	if gotSolvers["DLG"] == 0 {
		t.Fatalf("paper arm did not use the paper DLG path: %v", gotSolvers)
	}
	for r := 0; r < receivers; r++ {
		if len(got[r]) != len(ref[r]) {
			t.Fatalf("receiver %d: %d epochs, want %d", r, len(got[r]), len(ref[r]))
		}
		for i := range ref[r] {
			if got[r][i] != ref[r][i] {
				t.Fatalf("receiver %d epoch %d: NMEA differs\n  fast:  %q\n  paper: %q",
					r, i, ref[r][i], got[r][i])
			}
		}
	}
}

// positionErrors runs the engine under cfg and returns each fix's 3-D
// position error against the receiver's station truth for epochs in
// [from, until), plus how many of those epochs were flagged (degraded,
// suspect, or coasting).
func positionErrors(t *testing.T, cfg Config, epochs int, from, until float64) (errs []float64, flagged int) {
	t.Helper()
	stations := scenario.Table51Stations()
	var mu sync.Mutex
	cfg.Sink = func(e FixEvent) {
		if e.T < from || e.T >= until || e.Err != nil || e.Coast {
			if e.T >= from && e.T < until && (e.Err != nil || e.Coast) {
				mu.Lock()
				flagged++
				mu.Unlock()
			}
			return
		}
		truth := stations[e.Receiver%len(stations)].Pos
		mu.Lock()
		errs = append(errs, e.Sol.Pos.DistanceTo(truth))
		if e.State != StateHealthy || e.Suspect {
			flagged++
		}
		mu.Unlock()
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	return errs, flagged
}

// TestEngineDisruptionBeatsExclusionUnderSpoof drives the engine through
// a two-satellite coherent spoof — the case single-satellite RAIM
// exclusion cannot resolve — and checks that C/N0 weighting plus the
// disruption detector keeps the position error well below the plain
// engine's.
func TestEngineDisruptionBeatsExclusionUnderSpoof(t *testing.T) {
	// The spoof window starts after the clock predictor's 60-epoch
	// calibration, so the primary DLG route (which needs a predicted
	// bias) is live when the attack begins.
	prog, err := fault.ParseSpec("spoof:n=2,bias=500,from=70,until=130")
	if err != nil {
		t.Fatal(err)
	}
	const receivers, epochs = 2, 150
	base := Config{Receivers: receivers, Workers: 2, Seed: 17, Faults: prog, FaultSeed: 3}

	plainErrs, _ := positionErrors(t, base, epochs, 70, 130)
	armed := base
	armed.Weighting = true
	armed.Disruption = true
	armedErrs, armedFlagged := positionErrors(t, armed, epochs, 70, 130)

	mean := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	if len(plainErrs) == 0 || len(armedErrs) == 0 {
		t.Fatalf("no fixes in the spoof window: plain %d, armed %d", len(plainErrs), len(armedErrs))
	}
	pm, am := mean(plainErrs), mean(armedErrs)
	t.Logf("spoof-window mean position error: plain %.1f m, weighted+disruption %.1f m (%d flagged epochs)", pm, am, armedFlagged)
	if am >= pm/2 {
		t.Errorf("down-weighting did not beat the plain engine: %.1f m vs %.1f m", am, pm)
	}
	if am > 25 {
		t.Errorf("weighted+disruption error %.1f m in the spoof window, want < 25 m", am)
	}
	// The detector must surface the attack in session health, not hide it.
	if armedFlagged == 0 {
		t.Error("no epoch flagged degraded while two satellites were spoofed")
	}
}

// TestEngineWeightingDeterministic: the weighted + disruption engine
// remains bit-deterministic across worker counts and batch sizes.
func TestEngineWeightingDeterministic(t *testing.T) {
	prog, err := fault.ParseSpec("spoof:n=2,bias=400,from=20,until=60;jam:sigma=15,from=70,until=90")
	if err != nil {
		t.Fatal(err)
	}
	const receivers, epochs = 4, 100
	collect := func(workers, batch int) [][]string {
		out := make([][]string, receivers)
		eng, nerr := New(Config{
			Receivers: receivers, Workers: workers, BatchSize: batch, Seed: 23,
			Faults: prog, FaultSeed: 5,
			Weighting: true, Disruption: true,
			Sink: func(e FixEvent) {
				var sb strings.Builder
				fmt.Fprintf(&sb, "%d|%s|%s|coast=%v|suspect=%v|excl=%d", e.Epoch, e.Solver, e.State, e.Coast, e.Suspect, e.Excluded)
				if e.Err != nil {
					fmt.Fprintf(&sb, "|err:%v", e.Err)
				} else {
					fmt.Fprintf(&sb, "|%s", e.GGA)
				}
				out[e.Receiver] = append(out[e.Receiver], sb.String())
			},
		})
		if nerr != nil {
			t.Fatal(nerr)
		}
		if err := eng.Run(context.Background(), epochs); err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := collect(1, 32)
	for _, alt := range []struct{ workers, batch int }{{4, 32}, {2, 7}} {
		got := collect(alt.workers, alt.batch)
		for r := 0; r < receivers; r++ {
			if len(got[r]) != len(ref[r]) {
				t.Fatalf("workers=%d batch=%d receiver %d: %d events, want %d",
					alt.workers, alt.batch, r, len(got[r]), len(ref[r]))
			}
			for i := range ref[r] {
				if got[r][i] != ref[r][i] {
					t.Fatalf("workers=%d batch=%d receiver %d event %d:\n  got  %s\n  want %s",
						alt.workers, alt.batch, r, i, got[r][i], ref[r][i])
				}
			}
		}
	}
}
