// Broadcast fan-out mode: -broadcast compares the two encodings a
// serving node's wire.Hub fans out — NMEA text (each fix's GGA+RMC pair
// with its CRLFs, one buffer shared by every text subscriber) and the
// binary delta-encoded wire protocol (each session encoded once per
// epoch by its stream's encoder, the same frame queued to every
// subscriber). A real engine run publishes every good fix into a real
// Hub with one live subscriber per session and one text subscriber, and
// each arm reports the bytes its subscribers received. Every subscriber
// gets the same buffer, so bytes per fix do not depend on how many are
// attached. The counts are exact for a seed: -broadcast-json writes them
// as BENCH_broadcast.json, which TestCommittedRecords regenerates byte
// for byte. What the fan-out costs in time is fixbench's wire.publish_*.
package main

import (
	"context"
	"fmt"
	"sync"

	"gpsdl/internal/engine"
	"gpsdl/internal/wire"
)

// broadcastBenchConfig sizes the -broadcast run.
type broadcastBenchConfig struct {
	receivers int // sessions generating the fix set
	epochs    int // epochs per receiver
	seed      int64
	jsonPath  string
}

// broadcastArm is one encoding's byte count over the whole fix set.
type broadcastArm struct {
	Arm          string  `json:"arm"` // "nmea" | "wire"
	Fixes        uint64  `json:"fixes"`
	PayloadBytes uint64  `json:"payload_bytes"`
	BytesPerFix  float64 `json:"bytes_per_fix"`
}

// broadcastReport is the -broadcast-json document.
type broadcastReport struct {
	Benchmark string         `json:"benchmark"`
	Receivers int            `json:"receivers"`
	Epochs    int            `json:"epochs_per_receiver"`
	Arms      []broadcastArm `json:"arms"`
}

// runBroadcastBench runs the engine into a hub and prints (and
// optionally writes) each arm's bytes.
func runBroadcastBench(cfg broadcastBenchConfig) error {
	hub := wire.NewHub(wire.HubConfig{})
	subs := make([]*wire.Subscriber, cfg.receivers)
	for id := range subs {
		hub.Register(id)
		subs[id] = hub.Subscribe(id, -1)
	}
	text := hub.SubscribeText()
	nmea := broadcastArm{Arm: "nmea"}
	bin := broadcastArm{Arm: "wire"}
	// Shards call the sink concurrently; one publish at a time, drained
	// before the next, keeps every queue at one buffer.
	var mu sync.Mutex
	eng, err := engine.New(engine.Config{
		Receivers: cfg.receivers,
		Seed:      cfg.seed,
		Sink: func(e engine.FixEvent) {
			if e.Err != nil {
				return
			}
			f := e.Wire()
			mu.Lock()
			defer mu.Unlock()
			hub.Publish(&f)
			bin.PayloadBytes += uint64(len(<-subs[e.Receiver].C))
			bin.Fixes++
			hub.PublishText(e.GGA, e.RMC)
			nmea.PayloadBytes += uint64(len(<-text.C))
			nmea.Fixes++
		},
	})
	if err != nil {
		return err
	}
	if err := eng.Run(context.Background(), cfg.epochs); err != nil {
		return err
	}
	if bin.Fixes == 0 {
		return fmt.Errorf("engine produced no fixes")
	}
	report := broadcastReport{Benchmark: "broadcast", Receivers: cfg.receivers, Epochs: cfg.epochs}
	fmt.Printf("broadcast fan-out: receivers=%d epochs/receiver=%d\n", cfg.receivers, cfg.epochs)
	fmt.Printf("%6s %8s %14s %10s\n", "arm", "fixes", "payload_bytes", "bytes/fix")
	for _, a := range []broadcastArm{nmea, bin} {
		a.BytesPerFix = float64(a.PayloadBytes) / float64(a.Fixes)
		report.Arms = append(report.Arms, a)
		fmt.Printf("%6s %8d %14d %10.1f\n", a.Arm, a.Fixes, a.PayloadBytes, a.BytesPerFix)
	}
	// The headline the wire protocol exists for: the same fixes in a
	// fraction of the bytes.
	fmt.Printf("wire frames carry the same fixes in %.1fx fewer bytes than NMEA text\n",
		report.Arms[0].BytesPerFix/report.Arms[1].BytesPerFix)
	if cfg.jsonPath != "" {
		return writeReport(cfg.jsonPath, report)
	}
	return nil
}
