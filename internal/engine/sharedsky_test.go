package engine

import (
	"context"
	"fmt"
	"testing"

	"gpsdl/internal/fault"
	"gpsdl/internal/wire"
)

// sharedSkyGolden pins the NMEA and wire streams of a live run in which
// sessions share a station on the same shard: 12 receivers over the four
// Table 5.1 stations on 2 workers put 3 sessions of each of two
// stations on every shard. The live and faulted goldens run one session
// per station, so only this pin covers co-hosted sessions of one sky.
const (
	sharedSkyGoldenNMEA = "eab7a909b35162a0480b8b7c"
	sharedSkyGoldenWire = "64a6f480cf87485c93df116f"
)

// sharedSkyConfig is the shared-sky run: weighting, disruption, the
// quality layer and the faulted golden's program, so RAIM, spoof
// down-weighting and coasting all act on sessions that share a station.
func sharedSkyConfig(t *testing.T, receivers int, sink FixSink) Config {
	t.Helper()
	prog, err := fault.ParseSpec(faultedGoldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Receivers:  receivers,
		Workers:    2,
		Seed:       7,
		Weighting:  true,
		Disruption: true,
		Faults:     prog,
		FaultSeed:  5,
		Quality:    &QualityConfig{},
		Sink:       sink,
	}
}

// TestEngineSharedSkyGolden compares a digest of every receiver's GGA/RMC
// and wire stream of the shared-sky run with the committed pins.
func TestEngineSharedSkyGolden(t *testing.T) {
	const receivers, epochs = 12, 150
	nmeaOut := make([][]byte, receivers)
	wireOut := make([][]byte, receivers)
	encs := make([]wire.FixEncoder, receivers)
	fixes := make([]int, receivers)
	// Receivers never share a shard slot, so writing to their own
	// slices from the sink is race-free.
	eng, err := New(sharedSkyConfig(t, receivers, func(e FixEvent) {
		r := e.Receiver
		if e.Err == nil {
			fixes[r]++
		}
		nmeaOut[r] = append(append(nmeaOut[r], e.GGA...), e.RMC...)
		f := e.Wire()
		wireOut[r], _ = encs[r].AppendFix(wireOut[r], &f)
	}))
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
	if got := goldenDigest(nmeaOut); got != sharedSkyGoldenNMEA {
		t.Errorf("NMEA digest %s, want %s", got, sharedSkyGoldenNMEA)
	}
	if got := goldenDigest(wireOut); got != sharedSkyGoldenWire {
		t.Errorf("wire digest %s, want %s", got, sharedSkyGoldenWire)
	}
}

// eventRecord renders everything a fix event reports except the shard
// that hosted it, copying the views into the session's reused buffers.
func eventRecord(e FixEvent) string {
	gga, rmc := string(e.GGA), string(e.RMC)
	e.Shard, e.GGA, e.RMC = 0, nil, nil
	return fmt.Sprintf("%+v gga=%q rmc=%q", e, gga, rmc)
}

// TestEngineSharedSkyEqualsSolo: every session of a 16-receiver, 2-worker
// engine emits exactly the events it emits when its engine hosts it
// alone, so sessions that share a station never leak state into one
// another through anything they share.
func TestEngineSharedSkyEqualsSolo(t *testing.T) {
	const receivers, epochs = 16, 150
	shared := make([][]string, receivers)
	// Receivers never share a shard slot, so writing to their own
	// slices from the sink is race-free.
	eng, err := New(sharedSkyConfig(t, receivers, func(e FixEvent) {
		shared[e.Receiver] = append(shared[e.Receiver], eventRecord(e))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < receivers; r++ {
		var solo []string
		cfg := sharedSkyConfig(t, 0, func(e FixEvent) { solo = append(solo, eventRecord(e)) })
		cfg.SessionIDs, cfg.Workers = []int{r}, 1
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(context.Background(), epochs); err != nil {
			t.Fatal(err)
		}
		if len(solo) != len(shared[r]) {
			t.Fatalf("receiver %d: %d events shared, %d alone", r, len(shared[r]), len(solo))
		}
		for k := range solo {
			if solo[k] != shared[r][k] {
				t.Fatalf("receiver %d event %d differs:\nshared %s\nalone  %s", r, k, shared[r][k], solo[k])
			}
		}
	}
}
