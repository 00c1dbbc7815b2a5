package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzWireDecode feeds arbitrary bytes to the wire decoders, both as a
// byte stream of frames (FrameReader.Next, several frames deep) and as
// one payload behind a valid envelope (so the payload decoders are
// reached past the CRC). Every payload goes through DecodeSubscribe,
// DecodeResume, PeekFix and a stream FixDecoder. Nothing may panic; an
// accepted SUBSCRIBE or RESUME must re-encode, unframe and decode to an
// equal value; and whenever DecodeFix accepts a payload, PeekFix must
// report the same session, epoch and keyframe flag.
func FuzzWireDecode(f *testing.F) {
	var stream []byte
	stream = AppendSubscribe(stream, 7, 41)
	stream = AppendResume(stream, Resume{Session: 7, Status: StatusReplay, Resume: 42, Head: 80})
	var enc FixEncoder
	for e := uint64(40); e < 72; e++ {
		fx := synthFix(7, e)
		if e%9 == 4 {
			fx = Fix{Session: 7, Epoch: e, Miss: true, State: 2, Solver: 1}
		}
		stream, _ = enc.AppendFix(stream, &fx)
	}
	f.Add(stream)
	f.Add(AppendSubscribe(nil, 3, -1))
	f.Add(AppendResume(nil, Resume{Session: 3, Status: StatusUnknown, Head: -1}))
	key, _ := (&FixEncoder{}).AppendFix(nil, &Fix{Session: 1, Epoch: 5, X: 1, Y: 2, Z: 3, Sats: 4})
	f.Add(key)
	f.Add(payloadOf(f, key)) // a bare payload, no envelope
	f.Add(stream[:len(stream)/2])
	flipped := append([]byte(nil), stream...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{FrameMarker, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		checkStream(t, data)
		checkStream(t, AppendFrame(nil, data))
	})
}

// checkStream reads up to 64 frames off b and checks each payload.
func checkStream(t *testing.T, b []byte) {
	t.Helper()
	fr := NewFrameReader(bytes.NewReader(b))
	var dec FixDecoder
	for i := 0; i < 64; i++ {
		p, err := fr.Next()
		if err != nil {
			return
		}
		checkPayload(t, p, &dec)
	}
}

// checkPayload runs one payload through every decoder and checks the
// round-trip and PeekFix-agreement properties.
func checkPayload(t *testing.T, p []byte, dec *FixDecoder) {
	t.Helper()
	if s, err := DecodeSubscribe(p); err == nil {
		again, err := DecodeSubscribe(payloadOf(t, AppendSubscribe(nil, s.Session, s.Ack)))
		if err != nil || again != s {
			t.Fatalf("subscribe round trip: %+v → %+v (%v)", s, again, err)
		}
	}
	if r, err := DecodeResume(p); err == nil {
		again, err := DecodeResume(payloadOf(t, AppendResume(nil, r)))
		if err != nil || again != r {
			t.Fatalf("resume round trip: %+v → %+v (%v)", r, again, err)
		}
	}
	session, epoch, keyframe, peekErr := PeekFix(p)
	fx, err := dec.DecodeFix(p)
	if err != nil {
		return
	}
	if peekErr != nil {
		t.Fatalf("DecodeFix accepted %x but PeekFix failed: %v", p, peekErr)
	}
	if session != fx.Session || epoch != fx.Epoch {
		t.Fatalf("PeekFix (session %d, epoch %d) disagrees with DecodeFix (%d, %d)",
			session, epoch, fx.Session, fx.Epoch)
	}
	if fx.Miss {
		return // a miss frame carries no position, keyframe or delta
	}
	// A keyframe decodes without history; a delta needs a primed chain.
	_, freshErr := (&FixDecoder{}).DecodeFix(p)
	if keyframe != (freshErr == nil) {
		t.Fatalf("PeekFix keyframe = %v, but a fresh decoder says %v", keyframe, freshErr)
	}
	if !keyframe && !errors.Is(freshErr, ErrDeltaWithoutKeyframe) {
		t.Fatalf("delta frame on a fresh decoder: %v, want ErrDeltaWithoutKeyframe", freshErr)
	}
}
