package engine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"gpsdl/internal/scenario"
)

// collectExact runs a live-generating engine and returns each receiver's
// fix stream with full float64 bit fidelity (position and clock bias as
// hex bit patterns), so comparisons detect even 1-ULP divergence.
func collectExact(t *testing.T, receivers, workers, batch, epochs int) [][]string {
	t.Helper()
	out := make([][]string, receivers)
	eng, err := New(Config{
		Receivers: receivers,
		Workers:   workers,
		BatchSize: batch,
		Seed:      42,
		Sink: func(e FixEvent) {
			if e.Err != nil {
				out[e.Receiver] = append(out[e.Receiver], fmt.Sprintf("%d:err:%v", e.Epoch, e.Err))
				return
			}
			out[e.Receiver] = append(out[e.Receiver], fmt.Sprintf("%d:%s:%x:%x:%x:%x",
				e.Epoch, e.Solver,
				math.Float64bits(e.Sol.Pos.X), math.Float64bits(e.Sol.Pos.Y),
				math.Float64bits(e.Sol.Pos.Z), math.Float64bits(e.Sol.ClockBias)))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEngineEpochCacheDeterminism: a live engine, whose sessions share
// one epoch cache that shards warm at different paces, produces
// bit-identical per-receiver fix streams at every worker count and batch
// shape. (Cached versus lone-generator bit identity is pinned in
// internal/scenario.)
func TestEngineEpochCacheDeterminism(t *testing.T) {
	const receivers, epochs = 5, 70
	ref := collectExact(t, receivers, 1, 32, epochs)
	for _, alt := range []struct{ workers, batch int }{{3, 32}, {3, 1}, {5, 7}} {
		got := collectExact(t, receivers, alt.workers, alt.batch, epochs)
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

// TestEngineEpochCacheUsed: the default (cache-on) live engine actually
// serves generation from shared snapshots — N receivers on one worker
// must propagate each epoch once, not N times.
func TestEngineEpochCacheUsed(t *testing.T) {
	eng, err := New(Config{Receivers: 4, Workers: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 50
	if err := eng.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	st := eng.cache.Stats()
	if st.Misses != epochs {
		t.Errorf("cache misses = %d, want %d (one propagation per epoch)", st.Misses, epochs)
	}
	// 4 receivers × 50 epochs: the shard warm takes the miss, every
	// session lookup hits.
	if want := uint64(4 * epochs); st.Hits != want {
		t.Errorf("cache hits = %d, want %d", st.Hits, want)
	}
}

// TestSessionSeedAliasing is the regression test for the additive seed
// bug: with Seed+r derivation, engine(Seed 7) receiver 0 and
// engine(Seed 6) receiver 1 drew identical measurement streams whenever
// they shared a station template. The mixed derivation must give all
// four receivers distinct streams.
func TestSessionSeedAliasing(t *testing.T) {
	if sessionSeed(7, 0) == sessionSeed(6, 1) {
		t.Fatal("sessionSeed preserves the additive (seed, receiver) aliasing")
	}
	run := func(seed int64) [][]string {
		// One station template so both receivers share it — the exact
		// configuration the additive scheme aliased.
		out := make([][]string, 2)
		eng, err := New(Config{
			Receivers: 2,
			Workers:   1,
			Seed:      seed,
			Stations:  scenario.Table51Stations()[:1],
			Sink: func(e FixEvent) {
				if e.Err == nil {
					out[e.Receiver] = append(out[e.Receiver], fmt.Sprintf("%x:%x",
						math.Float64bits(e.Sol.Pos.X), math.Float64bits(e.Sol.ClockBias)))
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(context.Background(), 40); err != nil {
			t.Fatal(err)
		}
		return out
	}
	s6, s7 := run(6), run(7)
	streams := [][]string{s6[0], s6[1], s7[0], s7[1]}
	names := []string{"seed6/r0", "seed6/r1", "seed7/r0", "seed7/r1"}
	for i := range streams {
		if len(streams[i]) == 0 {
			t.Fatalf("%s produced no fixes", names[i])
		}
		for j := i + 1; j < len(streams); j++ {
			if equalStrings(streams[i], streams[j]) {
				t.Errorf("%s and %s produced identical fix streams", names[i], names[j])
			}
		}
	}
	// Same (seed, receiver) must of course still reproduce exactly.
	again := run(6)
	if !equalStrings(s6[0], again[0]) || !equalStrings(s6[1], again[1]) {
		t.Error("re-running the same seed did not reproduce the fix streams")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
