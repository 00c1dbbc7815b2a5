package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gpsdl/internal/fault"
	"gpsdl/internal/nmea"
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
	if got := goldenDigest(nmeaOut); got != liveGoldenNMEA {
		t.Errorf("NMEA digest %s, want %s", got, liveGoldenNMEA)
	}
	if got := goldenDigest(wireOut); got != liveGoldenWire {
		t.Errorf("wire digest %s, want %s", got, liveGoldenWire)
	}
}

// goldenDigest hashes the per-receiver streams in receiver order.
func goldenDigest(streams [][]byte) string {
	h := sha256.New()
	for _, s := range streams {
		h.Write(s)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// faultedGolden pins the same streams for a short live run under a
// fault program: a gross step on one PRN (RAIM bait), a 2-satellite
// spoof, and a shrink below the 4-satellite minimum (coasting). It
// covers the NMEA paths the fault-free pin never reaches: RAIM-excluded
// fixes and QualityEstimated coast sentences.
const (
	faultedGoldenSpec = "step:prn=7,bias=400,from=70,until=95;" +
		"spoof:n=2,bias=500,from=100,until=115;shrink:n=3,from=120,until=135"
	faultedGoldenNMEA = "dfd4238be8f18cf142b83d2e"
	faultedGoldenWire = "96339f86202a583f80876abc"
)

// TestEngineFaultedGolden compares a digest of every receiver's GGA/RMC
// and wire stream under faultedGoldenSpec with the committed pins, and
// checks the program really drove a RAIM exclusion, a coast fix and an
// open circuit breaker.
func TestEngineFaultedGolden(t *testing.T) {
	const receivers, epochs = 4, 150
	prog, err := fault.ParseSpec(faultedGoldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	nmeaOut := make([][]byte, receivers)
	wireOut := make([][]byte, receivers)
	encs := make([]wire.FixEncoder, receivers)
	exclusions := make([]int, receivers)
	coasts := make([]int, receivers)
	eng, err := New(Config{
		Receivers: receivers,
		Workers:   2,
		Seed:      7,
		Weighting: true,
		Faults:    prog,
		FaultSeed: 5,
		// Receivers never share a shard slot, so writing to their own
		// slices from the sink is race-free.
		Sink: func(e FixEvent) {
			r := e.Receiver
			if e.Err == nil && e.Excluded >= 0 {
				exclusions[r]++
			}
			if g, err := nmea.ParseGGA(string(e.GGA)); e.Coast && err == nil && g.Quality == nmea.QualityEstimated {
				coasts[r]++
			}
			nmeaOut[r] = append(append(nmeaOut[r], e.GGA...), e.RMC...)
			f := e.Wire()
			wireOut[r], _ = encs[r].AppendFix(wireOut[r], &f)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	var nExcl, nCoast int
	for r := range coasts {
		nExcl += exclusions[r]
		nCoast += coasts[r]
	}
	if nExcl == 0 {
		t.Error("fault program produced no RAIM exclusion")
	}
	if nCoast == 0 {
		t.Error("fault program produced no QualityEstimated coast fix")
	}
	if eng.Stats().BreakerOpens == 0 {
		t.Error("fault program never opened a circuit breaker")
	}
	if got := goldenDigest(nmeaOut); got != faultedGoldenNMEA {
		t.Errorf("NMEA digest %s, want %s", got, faultedGoldenNMEA)
	}
	if got := goldenDigest(wireOut); got != faultedGoldenWire {
		t.Errorf("wire digest %s, want %s", got, faultedGoldenWire)
	}
}
