package checkpoint

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzCheckpointDecode feeds arbitrary bytes to Decode, which parses
// checkpoint files and the bodies of cluster handoff requests, both as
// a whole file and as a payload behind a valid header (so the JSON
// decoder is reached past the checksum). Decode must never panic, and
// anything it accepts must survive an encode → decode round trip
// unchanged.
func FuzzCheckpointDecode(f *testing.F) {
	clean, err := Encode(sampleState())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(clean[bytes.IndexByte(clean, '\n')+1:]) // bare JSON payload
	f.Add(clean[:len(clean)-3])                   // truncated payload
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	empty, err := Encode(&State{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte("GPSCKPT 1 00000000 0\n"))
	f.Add([]byte("GPSCKPT 2 00000000 2\n{}"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		framed := fmt.Appendf(nil, "%s %d %08x %d\n", magic, Version, crc32.ChecksumIEEE(data), len(data))
		roundTrip(t, data)
		roundTrip(t, append(framed, data...))
	})
}

// roundTrip checks the decode → encode → decode property on one input.
func roundTrip(t *testing.T, data []byte) {
	t.Helper()
	st, err := Decode(data)
	if err != nil {
		return
	}
	enc, err := Encode(st)
	if err != nil {
		t.Fatalf("decoded state does not re-encode: %v", err)
	}
	again, err := Decode(enc)
	if err != nil {
		t.Fatalf("re-encoded state does not decode: %v\n%s", err, enc)
	}
	if !reflect.DeepEqual(st, again) {
		t.Fatalf("round trip changed the state:\n%+v\n%+v", st, again)
	}
	if enc2, _ := Encode(again); !bytes.Equal(enc, enc2) {
		t.Fatalf("encoding not stable:\n%s\n%s", enc, enc2)
	}
}
