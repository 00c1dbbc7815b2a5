package engine

import (
	"context"
	"sync"
	"testing"

	"gpsdl/internal/checkpoint"
	"gpsdl/internal/core"
	"gpsdl/internal/fault"
	"gpsdl/internal/geo"
)

// TestEngineWarmFeedConverges: once a session holds a good fix, its
// predictor-feed NR starts from that fix and the predicted clock, and
// converges in at most 3 iterations on ≥ 99% of the epochs it solves —
// over pregenerated epochs and on the faulted live path alike. The
// paper's cold start from (0,0,0,0) takes 5.
func TestEngineWarmFeedConverges(t *testing.T) {
	prog, err := fault.ParseSpec(faultedGoldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		cfg    Config
		pregen bool
	}{
		{"pregen", Config{Receivers: 4, Workers: 1, Seed: 11}, true},
		{"faulted-live", Config{Receivers: 4, Workers: 1, Seed: 7, Weighting: true, Disruption: true,
			Faults: prog, FaultSeed: 5}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			const epochs = 300
			eng, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.pregen {
				if err := eng.Pregenerate(epochs); err != nil {
					t.Fatal(err)
				}
			}
			steady, solved, fast := 0, 0, 0
			for _, s := range eng.sessions {
				for i := 0; i < epochs; i++ {
					warm := s.haveGood
					s.step(i)
					if !warm {
						continue
					}
					steady++
					if s.feedIters > 0 {
						solved++
						if s.feedIters <= 3 {
							fast++
						}
					}
				}
			}
			if solved < steady*9/10 || fast*100 < solved*99 {
				t.Errorf("%d steady epochs, %d feed solves, %d in <= 3 iterations", steady, solved, fast)
			}
		})
	}
}

// TestEngineRestoreImplausibleLastFix: a checkpoint whose last fix is
// not a plausible receiver position (the ECEF origin, 1e9 m out, or
// just under the band) must not seed the warm start. The first
// restored epoch cold-starts the feed exactly as a fresh NR solve
// would, and every fix after it tracks an uninterrupted engine's to
// within 1e-6 m.
func TestEngineRestoreImplausibleLastFix(t *testing.T) {
	const cut, end = 200, 260
	base := Config{Receivers: 2, Workers: 1, Seed: 5, CheckpointEvery: 50}
	control := make(map[[2]int]geo.ECEF)
	var mu sync.Mutex
	ccfg := base
	ccfg.Sink = func(e FixEvent) {
		mu.Lock()
		control[[2]int{e.Receiver, e.Epoch}] = e.Sol.Pos
		mu.Unlock()
	}
	c, err := New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background(), end); err != nil {
		t.Fatal(err)
	}
	a, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(context.Background(), cut); err != nil {
		t.Fatal(err)
	}
	data, err := checkpoint.Encode(a.SnapshotFinal())
	if err != nil {
		t.Fatal(err)
	}
	// Each case maps the true last fix to an implausible one. The last
	// sits just under the band's floor on the receiver's own ray: close
	// enough that a warm start from it would save an iteration.
	for _, c := range []struct {
		name string
		bad  func(geo.ECEF) geo.ECEF
	}{
		{"origin", func(geo.ECEF) geo.ECEF { return geo.ECEF{} }},
		{"1e9m", func(geo.ECEF) geo.ECEF { return geo.ECEF{X: 1e9} }},
		{"below-band", func(p geo.ECEF) geo.ECEF { return p.Scale(0.99 * minPlausibleNorm / p.Norm()) }},
	} {
		st, err := checkpoint.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range st.Sessions {
			if !st.Sessions[i].HaveFix {
				t.Fatalf("receiver %d checkpoint has no fix", st.Sessions[i].Receiver)
			}
			st.Sessions[i].LastFix.Pos = c.bad(st.Sessions[i].LastFix.Pos)
		}
		var got []FixEvent
		bcfg := base
		bcfg.Sink = func(e FixEvent) { got = append(got, e) }
		b, err := New(bcfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Restore(st); err != nil {
			t.Fatal(err)
		}
		for _, s := range b.sessions {
			for i := cut; i < end; i++ {
				s.step(i)
				if i != cut {
					continue
				}
				fresh := core.NRSolver{Weight: s.warm.Weight}
				cold, err := fresh.Solve(0, s.obs)
				if err != nil || s.feedIters != cold.Iterations {
					t.Errorf("last fix %s: receiver %d feed took %d iterations, cold start %d (%v)",
						c.name, s.recv, s.feedIters, cold.Iterations, err)
				}
			}
		}
		if len(got) != base.Receivers*(end-cut) {
			t.Fatalf("last fix %s: %d events, want %d", c.name, len(got), base.Receivers*(end-cut))
		}
		for _, e := range got {
			want := control[[2]int{e.Receiver, e.Epoch}]
			if e.Err != nil || e.Coast {
				t.Fatalf("last fix %s: receiver %d epoch %d: coast=%v err=%v", c.name, e.Receiver, e.Epoch, e.Coast, e.Err)
			}
			if d := e.Sol.Pos.DistanceTo(want); d > 1e-6 {
				t.Errorf("last fix %s: receiver %d epoch %d is %.3g m from the uninterrupted fix", c.name, e.Receiver, e.Epoch, d)
			}
		}
	}
}
