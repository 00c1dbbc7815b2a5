package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gpsdl/internal/wire"
)

// liveGolden pins the NMEA sentences and wire frames of a short,
// fault-free live run (epoch cache on, weighting on, every receiver's
// epochs synthesized by scenario.Generator.EpochAt). A synthesis or
// serving change that moves a single output byte fails here, even when
// it stays self-consistent across worker counts.
const (
	liveGoldenNMEA = "2576ec74a6d96d2a285c8ef9"
	liveGoldenWire = "62573a010f4c3eaeb6efc643"
)

// TestEngineLiveGolden compares a digest of every receiver's GGA/RMC
// stream and its binary wire stream with the committed pins.
func TestEngineLiveGolden(t *testing.T) {
	const receivers, epochs = 4, 140
	nmeaOut := make([][]byte, receivers)
	wireOut := make([][]byte, receivers)
	encs := make([]wire.FixEncoder, receivers)
	fixes := make([]int, receivers)
	cfg := Config{
		Receivers: receivers,
		Workers:   2,
		Seed:      7,
		Weighting: true,
		// Receivers never share a shard slot, so writing to their own
		// slices from the sink is race-free.
		Sink: func(e FixEvent) {
			r := e.Receiver
			if e.Err == nil {
				fixes[r]++
			}
			nmeaOut[r] = append(append(nmeaOut[r], e.GGA...), e.RMC...)
			f := e.Wire()
			wireOut[r], _ = encs[r].AppendFix(wireOut[r], &f)
		},
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	for r, n := range fixes {
		if n == 0 {
			t.Fatalf("receiver %d produced no fixes", r)
		}
	}
	digest := func(streams [][]byte) string {
		h := sha256.New()
		for _, s := range streams {
			h.Write(s)
		}
		return hex.EncodeToString(h.Sum(nil)[:12])
	}
	if got := digest(nmeaOut); got != liveGoldenNMEA {
		t.Errorf("NMEA digest %s, want %s", got, liveGoldenNMEA)
	}
	if got := digest(wireOut); got != liveGoldenWire {
		t.Errorf("wire digest %s, want %s", got, liveGoldenWire)
	}
}
