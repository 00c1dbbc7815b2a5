package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"gpsdl/internal/checkpoint"
	"gpsdl/internal/wire"
)

// handoffKeyframeEvery matches the test's checkpoint cadence so the
// handoff point lands on a keyframe block boundary — then the wire
// byte streams are identical from the first handed-off frame, not just
// from the next block.
const handoffKeyframeEvery = 50

// wireRecorder mirrors what the serving sink does: every FixEvent
// becomes one wire frame (via FixEvent.Wire) through a per-session
// FixEncoder, recorded alongside the NMEA bytes.
type wireRecorder struct {
	mu     sync.Mutex
	gga    map[[2]int]string
	rmc    map[[2]int]string
	frames map[[2]int][]byte
	sols   map[[2]int][4]uint64 // position and clock-bias float bits
	encs   map[int]*wire.FixEncoder
}

func newWireRecorder() *wireRecorder {
	return &wireRecorder{
		gga:    make(map[[2]int]string),
		rmc:    make(map[[2]int]string),
		frames: make(map[[2]int][]byte),
		sols:   make(map[[2]int][4]uint64),
		encs:   make(map[int]*wire.FixEncoder),
	}
}

func (rc *wireRecorder) sink(e FixEvent) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	k := [2]int{e.Receiver, e.Epoch}
	rc.gga[k] = string(e.GGA)
	rc.rmc[k] = string(e.RMC)
	enc := rc.encs[e.Receiver]
	if enc == nil {
		enc = &wire.FixEncoder{KeyframeEvery: handoffKeyframeEvery}
		rc.encs[e.Receiver] = enc
	}
	f := e.Wire()
	frame, _ := enc.AppendFix(nil, &f)
	rc.frames[k] = frame
	p := e.Sol.Pos
	rc.sols[k] = [4]uint64{math.Float64bits(p.X), math.Float64bits(p.Y), math.Float64bits(p.Z), math.Float64bits(e.Sol.ClockBias)}
}

// TestEngineHandoffDeterminism is the satellite-3 law behind cluster
// failover: node A (hosting sessions 0..3) dies at epoch `head`, its
// last periodic checkpoint is from epoch `cut`; survivor node B builds
// a SessionIDs engine over the orphans {1, 3}, restores the filtered
// checkpoint, fast-forwards cut→head, and serves on. Sessions 1 and 3
// must then produce byte-identical NMEA, byte-identical wire frames and
// bit-identical solution position and clock bias to an uninterrupted
// single-node control over [cut, end) — across multiple survivor
// worker/batch shapes.
func TestEngineHandoffDeterminism(t *testing.T) {
	const cut, head, end = 200, 230, 300
	orphans := []int{1, 3}
	base := Config{Receivers: 4, Workers: 2, Seed: 42, CheckpointEvery: handoffKeyframeEvery}

	// Control: uninterrupted 4-session node over [0, end).
	control := newWireRecorder()
	ccfg := base
	ccfg.Sink = control.sink
	c, err := New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background(), end); err != nil {
		t.Fatal(err)
	}

	// Node A: same config, killed at epoch head. The surviving
	// artifact is its periodic lock-free Snapshot — last refreshed at
	// the CheckpointEvery boundary `cut` — serialized through the file
	// codec exactly as the proxy's checkpoint cache holds it.
	a, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(context.Background(), head); err != nil {
		t.Fatal(err)
	}
	data, err := checkpoint.Encode(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	full, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if full.Epoch != cut {
		t.Fatalf("periodic snapshot epoch %d, want %d", full.Epoch, cut)
	}
	handed := full.Filter(orphans)
	if len(handed.Sessions) != len(orphans) || handed.Receivers != len(orphans) {
		t.Fatalf("filtered checkpoint: %d sessions, receivers echo %d", len(handed.Sessions), handed.Receivers)
	}

	// Survivor node B, in two different worker/batch shapes.
	for _, shape := range []struct{ workers, batch int }{{1, 32}, {2, 7}} {
		t.Run(fmt.Sprintf("w%db%d", shape.workers, shape.batch), func(t *testing.T) {
			rec := newWireRecorder()
			bcfg := base
			bcfg.Receivers = 0
			bcfg.SessionIDs = append([]int(nil), orphans...)
			bcfg.Workers = shape.workers
			bcfg.BatchSize = shape.batch
			bcfg.Sink = rec.sink
			b, err := New(bcfg)
			if err != nil {
				t.Fatal(err)
			}
			n, err := b.Restore(handed)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(orphans) {
				t.Fatalf("restored %d sessions, want %d", n, len(orphans))
			}
			if b.ResumeEpoch() != cut {
				t.Fatalf("resume epoch %d, want %d", b.ResumeEpoch(), cut)
			}
			// Catch-up to the dead node's head, then serve the tail.
			if err := b.FastForward(context.Background(), head); err != nil {
				t.Fatal(err)
			}
			if b.ResumeEpoch() != head {
				t.Fatalf("post-fast-forward resume %d, want %d", b.ResumeEpoch(), head)
			}
			if err := b.RunRange(context.Background(), head, end); err != nil {
				t.Fatal(err)
			}

			for _, r := range orphans {
				for i := cut; i < end; i++ {
					k := [2]int{r, i}
					if rec.gga[k] != control.gga[k] {
						t.Fatalf("session %d epoch %d: NMEA GGA diverged after handoff:\n  survivor %q\n  control  %q",
							r, i, rec.gga[k], control.gga[k])
					}
					if rec.rmc[k] != control.rmc[k] {
						t.Fatalf("session %d epoch %d: NMEA RMC diverged after handoff", r, i)
					}
					if !bytes.Equal(rec.frames[k], control.frames[k]) {
						t.Fatalf("session %d epoch %d: wire frame bytes diverged after handoff\n  survivor %x\n  control  %x",
							r, i, rec.frames[k], control.frames[k])
					}
					if rec.sols[k] != control.sols[k] {
						t.Fatalf("session %d epoch %d: solution float bits diverged after handoff", r, i)
					}
				}
			}
		})
	}
}

// TestEngineSessionIDsPlacementInvariance: an engine hosting a subset
// of global ids produces bit-identical per-session output to the full
// engine, from epoch zero — the property that makes an id a stable
// address across the cluster.
func TestEngineSessionIDsPlacementInvariance(t *testing.T) {
	const end = 60
	full := newWireRecorder()
	cfgFull := Config{Receivers: 5, Workers: 3, Seed: 9, Sink: full.sink}
	ef, err := New(cfgFull)
	if err != nil {
		t.Fatal(err)
	}
	if err := ef.Run(context.Background(), end); err != nil {
		t.Fatal(err)
	}
	sub := newWireRecorder()
	es, err := New(Config{SessionIDs: []int{4, 0, 2}, Workers: 2, Seed: 9, Sink: sub.sink})
	if err != nil {
		t.Fatal(err)
	}
	if got := es.SessionIDs(); len(got) != 3 || got[0] != 4 || got[1] != 0 || got[2] != 2 {
		t.Fatalf("SessionIDs() = %v", got)
	}
	if err := es.Run(context.Background(), end); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{4, 0, 2} {
		for i := 0; i < end; i++ {
			k := [2]int{r, i}
			if sub.gga[k] != full.gga[k] {
				t.Fatalf("session %d epoch %d: subset engine diverged from full engine", r, i)
			}
		}
	}
}

// TestEngineSessionIDsValidation: bad id sets are refused.
func TestEngineSessionIDsValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"empty":        {SessionIDs: []int{}},
		"dup":          {SessionIDs: []int{1, 1}},
		"negative":     {SessionIDs: []int{-1}},
		"contradictes": {SessionIDs: []int{1, 2}, Receivers: 3},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted invalid SessionIDs", name)
		}
	}
}

// TestEngineSkipTo: the cold-start fallback moves the resume point
// forward (never backward) without running epochs.
func TestEngineSkipTo(t *testing.T) {
	e, err := New(Config{Receivers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.SkipTo(40)
	if e.ResumeEpoch() != 40 {
		t.Fatalf("resume = %d, want 40", e.ResumeEpoch())
	}
	e.SkipTo(10)
	if e.ResumeEpoch() != 40 {
		t.Fatalf("SkipTo moved the resume point backward to %d", e.ResumeEpoch())
	}
	// FastForward to a target at/behind resume is a no-op.
	if err := e.FastForward(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	if e.ResumeEpoch() != 40 {
		t.Fatalf("no-op FastForward moved resume to %d", e.ResumeEpoch())
	}
}
