package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"gpsdl/internal/engine"
	"gpsdl/internal/scenario"
	"gpsdl/internal/wire"
)

// BenchmarkNMEAFanOut prices NMEA delivery under a closed-loop
// producer: one engine shard solves 32 receivers over pregenerated
// epochs as fast as it can and publishes every fix to the hub's text
// stream, read by 0, 1 or 16 loopback clients that discard everything.
// One op is one epoch of one receiver; the timer runs until every byte
// that was not shed has arrived, so ns/op and allocs/op cover engine,
// writers and readers. Run it with an op count that is a multiple of
// 32:
//
//	go test -run '^$' -bench NMEAFanOut -benchtime 320000x ./cmd/gpsserve
func BenchmarkNMEAFanOut(b *testing.B) {
	const receivers = 32
	for _, clients := range []int{0, 1, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			hub := wire.NewHub(wire.HubConfig{})
			eng, err := engine.New(engine.Config{
				Receivers: receivers, Workers: 1, Seed: 3, Stations: scenario.Table51Stations(),
				Sink: func(e engine.FixEvent) {
					if e.Err == nil {
						hub.PublishText(e.GGA, e.RMC)
					}
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			epochs := (b.N + receivers - 1) / receivers
			if err := eng.Pregenerate(epochs); err != nil {
				b.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() { _ = (&wire.Server{Hub: hub}).ServeText(ctx, ln) }()
			var lines atomic.Uint64
			for i := 0; i < clients; i++ {
				c, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				go func() {
					buf := make([]byte, 64<<10)
					for {
						n, err := c.Read(buf)
						lines.Add(uint64(bytes.Count(buf[:n], []byte{'\n'})))
						if err != nil {
							return
						}
					}
				}()
			}
			for hub.TextStats().Clients != clients {
				time.Sleep(time.Millisecond)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := eng.RunRange(ctx, 0, epochs); err != nil {
				b.Fatal(err)
			}
			// Wait for every sentence that was not shed (evicted clients
			// excepted): two per fix and client.
			want := func() uint64 {
				s := hub.TextStats()
				return 2 * (s.Fixes*uint64(s.Clients) - s.Shed)
			}
			for deadline := time.Now().Add(10 * time.Second); lines.Load() < want() && time.Now().Before(deadline); {
				time.Sleep(50 * time.Microsecond)
			}
			b.StopTimer()
			s := hub.TextStats()
			if clients > 0 {
				b.ReportMetric(100*float64(lines.Load())/float64(2*s.Fixes*uint64(clients)), "delivered_pct")
			}
			b.ReportMetric(float64(s.Drops[wire.DropSlow]), "evictions")
			b.ReportMetric(float64(s.Shed), "shed_fixes")
		})
	}
}
