package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"gpsdl/internal/wire"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// A short run of each workload emits every named metric with its unit,
// untraced and traced, and passes its correctness checks.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			res, env, err := run(context.Background(), options{
				workload: sw.Name, seed: 7, seconds: 1, trace: trace, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", sw.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", sw.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if env.GOMAXPROCS > env.NProc {
				t.Errorf("%s: GOMAXPROCS %d above nproc %d", sw.Name, env.GOMAXPROCS, env.NProc)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json names %d", sw.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%d: metric %s missing", sw.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s unit %q, BENCHMARK.json says %q", sw.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// A decoded fix that differs from the reference in any field fails the
// client check, and a changed digest fails the engine check.
func TestCorruptedFixFailsCheck(t *testing.T) {
	ref := map[uint64]wire.Fix{
		5: {Session: 3, Epoch: 5, X: 1, Y: 2, Z: 3, ClockBias: 4, HDOP: 0.9, Sats: 8, Solver: 7},
		6: {Session: 3, Epoch: 6, X: 1.001, Y: 2, Z: 3, ClockBias: 4, HDOP: 0.9, Sats: 8, Solver: 7},
	}
	got := []gotFix{{f: ref[5]}, {f: ref[6]}}
	if err := checkDecoded(3, got, ref); err != nil {
		t.Fatalf("identical fixes: %v", err)
	}
	for _, corrupt := range []func(f *wire.Fix){
		func(f *wire.Fix) { f.X += 0.001 },
		func(f *wire.Fix) { f.Sats-- },
		func(f *wire.Fix) { f.Degraded = true },
		func(f *wire.Fix) { f.Epoch = 7 },
	} {
		bad := append([]gotFix(nil), got...)
		corrupt(&bad[1].f)
		if err := checkDecoded(3, bad, ref); err == nil {
			t.Errorf("corrupted fix %+v passed the check", bad[1].f)
		}
	}
	segs := []seg{{0, 2}}
	if err := compareDigests("engine", 3, segs, []uint64{1, 2}, []uint64{1, 3}); err == nil {
		t.Error("differing digests passed the check")
	}
}

// The same seed reproduces a watched session's fixes; another seed
// changes them.
func TestSeedChangesInputs(t *testing.T) {
	for _, name := range []string{"catchup-faulted", "pregen-solve"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wt := &watch{recv: w.watched()[0], segs: []seg{{0, w.warmup + 10}}}
		digests := func(seed int64) []uint64 {
			in, err := newInputs(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := runReference(context.Background(), in, wt)
			if err != nil {
				t.Fatal(err)
			}
			return ref.digests
		}
		a, b, c := digests(1), digests(1), digests(2)
		if compareDigests("seed", wt.recv, wt.segs, a, b) != nil {
			t.Errorf("%s: seed 1 does not reproduce itself", name)
		}
		if compareDigests("seed", wt.recv, wt.segs, a, c) == nil {
			t.Errorf("%s: seeds 1 and 2 give identical fixes", name)
		}
	}
}

// The load stays within nproc threads and two client connections.
func TestLoadWithinLimits(t *testing.T) {
	for _, w := range workloads {
		if w.procs > 2 || w.clients > 2 || w.shards > w.procs {
			t.Errorf("%s: procs=%d clients=%d shards=%d", w.name, w.procs, w.clients, w.shards)
		}
	}
	w, err := workloadByName("catchup-faulted")
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(min(w.procs, runtime.NumCPU()))
	defer runtime.GOMAXPROCS(prev)
	in, err := newInputs(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRig(context.Background(), in, time.Now(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if _, err := r.measure(context.Background(), 300*time.Millisecond, false); err != nil {
		t.Fatal(err)
	}
	if subs := r.rec.hub.Stats().Subscribers; subs != int64(w.clients) || w.clients > 2 {
		t.Errorf("hub has %d subscribers, workload opens %d clients (at most 2)", subs, w.clients)
	}
	if got := runtime.GOMAXPROCS(0); got > runtime.NumCPU() {
		t.Errorf("GOMAXPROCS %d above nproc %d", got, runtime.NumCPU())
	}
}
