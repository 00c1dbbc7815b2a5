package scenario

import (
	"testing"

	"gpsdl/internal/epochcache"
	"gpsdl/internal/orbit"
)

// liveGenerators builds n generators over the Table 5.1
// stations sharing one epoch cache on the 1 s grid: the shape of a live
// engine shard, where every session synthesizes the same epoch in turn.
func liveGenerators(tb testing.TB, n int) []*Generator {
	tb.Helper()
	cons := orbit.DefaultConstellation()
	cache, err := epochcache.New(cons, 0, 1, epochcache.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	stations := Table51Stations()
	gens := make([]*Generator, n)
	for i := range gens {
		gens[i] = NewGenerator(stations[i%len(stations)], DefaultConfig(int64(1000+i)), WithConstellation(cons), WithEpochCache(cache))
	}
	return gens
}

// BenchmarkEpochAtLive is one session's live synthesis step: a cached
// EpochAt, round-robin over 64 sessions so every epoch's
// constellation snapshot is computed once and then read 63 times.
func BenchmarkEpochAtLive(b *testing.B) {
	gens := liveGenerators(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		epochSink, err = gens[i%len(gens)].EpochAt(float64(3600 + i/len(gens)))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// epochSink keeps the benchmarked EpochAt result live.
var epochSink Epoch

// TestEpochAtLiveAllocs guards the live fast path: once the epoch's
// snapshot is cached, a static station's AppendEpochAt into a reused
// buffer allocates nothing, and EpochAt allocates only the observation
// slice it returns.
func TestEpochAtLiveAllocs(t *testing.T) {
	g := liveGenerators(t, 1)[0]
	buf, err := g.AppendEpochAt(nil, 3600) // warm the cache slot and the buffer
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { buf, err = g.AppendEpochAt(buf[:0], 3600) }); allocs != 0 {
		t.Errorf("live cached AppendEpochAt into a reused buffer makes %v allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { _, err = g.EpochAt(3600) }); allocs > 1 {
		t.Errorf("live cached EpochAt makes %v allocations, want ≤ 1", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
}
