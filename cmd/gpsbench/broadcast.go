// Broadcast fan-out mode: -broadcast compares the two serving
// encodings wire.Hub fans out — NMEA text (each fix's GGA+RMC pair with
// its CRLFs, copied once into a buffer every text subscriber shares)
// and the binary delta-encoded wire protocol (each session encoded once
// per epoch by its own encoder, the same frame written to every
// subscriber) — across a sweep of subscriber counts. The fix set is
// produced once by a real engine run, so both arms serve byte-for-byte
// the same epochs; the timed loops then do exactly the per-epoch
// serving work: materialize the payload, then copy it into every
// client's buffer. Reported per arm × client count: delivered fixes/sec
// and payload bytes/sec, plus the bytes-per-fix ratio the delta
// encoding buys. The byte counts are the hub's own, so they are exact
// for a seed; the rates are timer noise. -broadcast-json writes the
// sweep as BENCH_broadcast.json for regression tracking.
package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"gpsdl/internal/engine"
	"gpsdl/internal/wire"
)

// broadcastBenchConfig sizes the -broadcast sweep.
type broadcastBenchConfig struct {
	receivers int // sessions generating the fix set
	epochs    int // epochs per receiver
	clients   []int
	trials    int // runs per (arm, clients) cell; the fastest is kept
	seed      int64
	jsonPath  string
}

// broadcastEvent is one epoch's payload in both encodings' source form.
type broadcastEvent struct {
	gga, rmc []byte
	fix      wire.Fix
}

// broadcastPoint is one measured (arm, clients) cell.
type broadcastPoint struct {
	Arm          string  `json:"arm"` // "nmea" | "wire"
	Clients      int     `json:"clients"`
	Fixes        uint64  `json:"fixes"` // delivered = epochs × clients
	ElapsedSec   float64 `json:"elapsed_sec"`
	FixesPerSec  float64 `json:"fixes_per_sec"`
	BytesPerSec  float64 `json:"bytes_per_sec"`
	BytesPerFix  float64 `json:"bytes_per_fix"`
	PayloadBytes uint64  `json:"payload_bytes"`
}

// broadcastReport is the -broadcast-json document.
type broadcastReport struct {
	Benchmark  string           `json:"benchmark"`
	Receivers  int              `json:"receivers"`
	Epochs     int              `json:"epochs_per_receiver"`
	Events     int              `json:"events"`
	Trials     int              `json:"trials"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Series     []broadcastPoint `json:"series"`
}

// collectBroadcastEvents runs the engine once and snapshots every good
// fix in both source encodings. GGA/RMC point into per-session reused
// buffers, so they are copied here; the wire.Fix is built through the
// same converter the serving node publishes with.
func collectBroadcastEvents(cfg broadcastBenchConfig) ([]broadcastEvent, error) {
	var mu sync.Mutex
	var events []broadcastEvent
	ecfg := engine.Config{
		Receivers: cfg.receivers,
		Seed:      cfg.seed,
		Sink: func(e engine.FixEvent) {
			if e.Err != nil {
				return
			}
			ev := broadcastEvent{
				gga: append([]byte(nil), e.GGA...),
				rmc: append([]byte(nil), e.RMC...),
				fix: e.Wire(),
			}
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		return nil, err
	}
	if err := eng.Pregenerate(cfg.epochs); err != nil {
		return nil, err
	}
	if err := eng.Run(context.Background(), cfg.epochs); err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("engine produced no fixes")
	}
	return events, nil
}

// benchBroadcastArm times one (arm, clients) cell: per event,
// materialize the payload the way wire.Hub does, then copy it into
// every client's buffer. The per-client copy is the fan-out cost both
// paths share; the arms differ in what gets materialized (one fresh
// text buffer vs one delta frame from the session's encoder) and in how
// many bytes each client must absorb.
func benchBroadcastArm(arm string, events []broadcastEvent, clients int) broadcastPoint {
	pt := broadcastPoint{Arm: arm, Clients: clients}
	// Size each client's slab for the largest single payload; copying
	// into it models the per-subscriber queue/socket write.
	maxPayload := 0
	for _, ev := range events {
		if n := len(ev.gga) + len(ev.rmc) + 4; n > maxPayload {
			maxPayload = n
		}
	}
	// A framed FIX is far smaller than any sentence pair; leave
	// generous headroom so the slab never bounds either arm.
	maxPayload += 256
	slabs := make([][]byte, clients)
	for i := range slabs {
		slabs[i] = make([]byte, maxPayload)
	}
	var payload uint64
	start := time.Now()
	switch arm {
	case "nmea":
		for _, ev := range events {
			// One buffer per fix, shared by every text subscriber.
			buf := make([]byte, 0, len(ev.gga)+len(ev.rmc)+4)
			buf = append(append(buf, ev.gga...), '\r', '\n')
			buf = append(append(buf, ev.rmc...), '\r', '\n')
			for _, slab := range slabs {
				copy(slab, buf)
			}
			payload += uint64(len(buf)) * uint64(clients)
		}
	case "wire":
		// Each session's delta chain has its own encoder, as in the hub,
		// so the frames do not depend on how shards interleaved.
		encs := map[int]*wire.FixEncoder{}
		var buf []byte
		for i := range events {
			f := &events[i].fix
			enc := encs[f.Session]
			if enc == nil {
				enc = &wire.FixEncoder{}
				encs[f.Session] = enc
			}
			// Encode once into the shared buffer; every subscriber gets
			// the same frame bytes.
			buf, _ = enc.AppendFix(buf[:0], f)
			for _, slab := range slabs {
				copy(slab, buf)
			}
			payload += uint64(len(buf)) * uint64(clients)
		}
	}
	pt.ElapsedSec = time.Since(start).Seconds()
	pt.Fixes = uint64(len(events)) * uint64(clients)
	pt.PayloadBytes = payload
	if pt.ElapsedSec > 0 {
		pt.FixesPerSec = float64(pt.Fixes) / pt.ElapsedSec
		pt.BytesPerSec = float64(payload) / pt.ElapsedSec
	}
	if pt.Fixes > 0 {
		pt.BytesPerFix = float64(payload) / float64(pt.Fixes)
	}
	return pt
}

// runBroadcastBench sweeps both arms across the client counts. Each
// cell keeps its fastest of -broadcast-trials runs (pure CPU loops, so
// best-of-N discards scheduler noise rather than hiding real cost).
func runBroadcastBench(cfg broadcastBenchConfig) error {
	if cfg.trials < 1 {
		cfg.trials = 1
	}
	fmt.Printf("broadcast fan-out: receivers=%d epochs/receiver=%d clients=%v trials=%d GOMAXPROCS=%d\n",
		cfg.receivers, cfg.epochs, cfg.clients, cfg.trials, runtime.GOMAXPROCS(0))
	events, err := collectBroadcastEvents(cfg)
	if err != nil {
		return err
	}
	report := broadcastReport{
		Benchmark:  "broadcast",
		Receivers:  cfg.receivers,
		Epochs:     cfg.epochs,
		Events:     len(events),
		Trials:     cfg.trials,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	fmt.Printf("%6s %8s %12s %10s %14s %14s %12s\n",
		"arm", "clients", "delivered", "elapsed", "fixes/sec", "bytes/sec", "bytes/fix")
	for _, arm := range []string{"nmea", "wire"} {
		for _, clients := range cfg.clients {
			best := broadcastPoint{}
			for trial := 0; trial < cfg.trials; trial++ {
				pt := benchBroadcastArm(arm, events, clients)
				if trial == 0 || pt.FixesPerSec > best.FixesPerSec {
					best = pt
				}
			}
			report.Series = append(report.Series, best)
			fmt.Printf("%6s %8d %12d %9.3fs %14.0f %14.0f %12.1f\n",
				best.Arm, best.Clients, best.Fixes, best.ElapsedSec,
				best.FixesPerSec, best.BytesPerSec, best.BytesPerFix)
		}
	}
	// The headline the wire protocol exists for: the same fixes in a
	// fraction of the bytes.
	ratio := bytesPerFix(report.Series, "nmea") / bytesPerFix(report.Series, "wire")
	fmt.Printf("wire frames carry the same fixes in %.1fx fewer bytes than NMEA text\n", ratio)
	if cfg.jsonPath != "" {
		return writeReport(cfg.jsonPath, report)
	}
	return nil
}

// bytesPerFix averages an arm's bytes-per-fix across its client counts.
func bytesPerFix(series []broadcastPoint, arm string) float64 {
	var sum float64
	var n int
	for _, pt := range series {
		if pt.Arm == arm {
			sum += pt.BytesPerFix
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}
