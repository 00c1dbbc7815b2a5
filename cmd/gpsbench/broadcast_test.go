package main

import (
	"testing"

	"gpsdl/internal/wire"
)

// The -broadcast byte counts are the hub's: the wire arm's payload
// equals wire.Hub's BytesOut with one subscriber per session, and the
// NMEA arm's equals the bytes the hub's text stream queues, for the
// same events.
func TestBroadcastBytesMatchHub(t *testing.T) {
	cfg := broadcastBenchConfig{receivers: 4, epochs: 200, seed: 2009}
	events, err := collectBroadcastEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}

	h := wire.NewHub(wire.HubConfig{QueueFrames: len(events)})
	for id := 0; id < cfg.receivers; id++ {
		h.Register(id)
		h.Subscribe(id, -1)
	}
	text := h.SubscribeText()
	var textBytes uint64
	for i := range events {
		h.Publish(&events[i].fix)
		h.PublishText(events[i].gga, events[i].rmc)
		textBytes += uint64(len(<-text.C))
	}
	if got, want := benchBroadcastArm("wire", events, 1).PayloadBytes, h.Stats().BytesOut; got != want {
		t.Errorf("wire arm payload %d bytes, hub wrote %d", got, want)
	}
	if got := benchBroadcastArm("nmea", events, 1).PayloadBytes; got != textBytes {
		t.Errorf("nmea arm payload %d bytes, hub queued %d", got, textBytes)
	}
}
