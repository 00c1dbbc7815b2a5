package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"gpsdl/internal/frame"
	"gpsdl/internal/rng"
)

// synthFix builds a deterministic pseudo-random walk fix for session s
// at epoch e.
func synthFix(s int, e uint64) Fix {
	r := rng.New(int64(rng.Mix64(uint64(s)*911 + e)))
	return Fix{
		Session:   s,
		Epoch:     e,
		X:         1.2e6 + 40*r.NormFloat64(),
		Y:         -4.5e6 + 40*r.NormFloat64(),
		Z:         3.3e6 + 40*r.NormFloat64(),
		ClockBias: 2000 + 0.5*r.NormFloat64(),
		HDOP:      1 + r.Float64(),
		Sats:      6 + int(e%3),
		State:     uint8(e % 3),
		Solver:    uint8(e % 4),
		Coast:     e%7 == 3,
		Suspect:   e%11 == 5,
		Degraded:  e%13 == 6,
	}
}

func quantized(f Fix) Fix {
	f.X = frame.Unquant(frame.Quant(f.X))
	f.Y = frame.Unquant(frame.Quant(f.Y))
	f.Z = frame.Unquant(frame.Quant(f.Z))
	f.ClockBias = frame.Unquant(frame.Quant(f.ClockBias))
	f.HDOP = frame.Unquant(frame.Quant(f.HDOP))
	return f
}

// TestFixRoundTrip: encode → frame-read → decode reproduces every fix
// field at millimetre quantization, across keyframes, deltas and
// misses.
func TestFixRoundTrip(t *testing.T) {
	var enc FixEncoder
	var buf []byte
	var want []Fix
	for e := uint64(0); e < 200; e++ {
		f := synthFix(7, e)
		if e%17 == 9 { // sprinkle misses
			f = Fix{Session: 7, Epoch: e, Miss: true, State: 2, Solver: 1}
		}
		buf, _ = enc.AppendFix(buf, &f)
		want = append(want, quantized(f))
	}
	fr := NewFrameReader(bytes.NewReader(buf))
	var dec FixDecoder
	for i, w := range want {
		p, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := dec.DecodeFix(p)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if w.Miss {
			w.X, w.Y, w.Z, w.ClockBias, w.HDOP, w.Sats = 0, 0, 0, 0, 0, 0
		}
		if got != w {
			t.Fatalf("fix %d mismatch:\n got %+v\nwant %+v", i, got, w)
		}
	}
}

// TestAppendFixZeroAlloc: once the encoder's payload buffer and the
// caller's dst have grown, encoding a fix (keyframe, delta or miss)
// allocates nothing.
func TestAppendFixZeroAlloc(t *testing.T) {
	enc := FixEncoder{KeyframeEvery: 16}
	fixes := make([]Fix, 64)
	for e := range fixes {
		fixes[e] = synthFix(5, uint64(e))
		if e%9 == 4 {
			fixes[e] = Fix{Session: 5, Epoch: uint64(e), Miss: true}
		}
	}
	var dst []byte
	for i := range fixes {
		dst, _ = enc.AppendFix(dst[:0], &fixes[i])
	}
	i := 0
	if n := testing.AllocsPerRun(len(fixes)-1, func() {
		dst, _ = enc.AppendFix(dst[:0], &fixes[i%len(fixes)])
		i++
	}); n != 0 {
		t.Errorf("AppendFix into a reused dst makes %v allocations, want 0", n)
	}
}

// TestEncoderRealignsAtBlockBoundary: an encoder that starts mid-stream
// (a handed-off session) produces byte-identical frames to the
// uninterrupted encoder from the next keyframe block on — and exactly
// identical from a block boundary start.
func TestEncoderRealignsAtBlockBoundary(t *testing.T) {
	const K, cut, end = 16, 48, 120 // cut % K == 0
	fixes := make([]Fix, end)
	for e := range fixes {
		fixes[e] = synthFix(3, uint64(e))
	}
	control := FixEncoder{KeyframeEvery: K}
	var controlBytes [][]byte
	for i := range fixes {
		b, _ := control.AppendFix(nil, &fixes[i])
		controlBytes = append(controlBytes, b)
	}
	// Restarted encoder joins at the block boundary `cut`.
	restart := FixEncoder{KeyframeEvery: K}
	for e := cut; e < end; e++ {
		b, key := restart.AppendFix(nil, &fixes[e])
		if e == cut && !key {
			t.Fatalf("first fix after restart must be a keyframe")
		}
		if !bytes.Equal(b, controlBytes[e]) {
			t.Fatalf("epoch %d: restarted encoder bytes differ from control", e)
		}
	}
	// Joining mid-block: forced keyframe differs, but realigns at the
	// next block boundary.
	mid := FixEncoder{KeyframeEvery: K}
	join := cut + 5
	for e := join; e < end; e++ {
		b, _ := mid.AppendFix(nil, &fixes[e])
		next := (join/K + 1) * K
		if e >= next && !bytes.Equal(b, controlBytes[e]) {
			t.Fatalf("epoch %d: mid-block join did not realign at block boundary %d", e, next)
		}
	}
}

// TestDecoderFromAnyKeyframe: a decoder that joins at any keyframe
// reconstructs values bit-identical to one that saw the whole stream.
func TestDecoderFromAnyKeyframe(t *testing.T) {
	const K, end = 8, 80
	enc := FixEncoder{KeyframeEvery: K}
	var frames [][]byte
	var keys []bool
	for e := uint64(0); e < end; e++ {
		f := synthFix(1, e)
		b, key := enc.AppendFix(nil, &f)
		frames, keys = append(frames, b), append(keys, key)
	}
	var full FixDecoder
	var want []Fix
	for _, b := range frames {
		f, err := full.DecodeFix(payloadOf(t, b))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, f)
	}
	for start := range frames {
		if !keys[start] {
			continue
		}
		var dec FixDecoder
		for e := start; e < end; e++ {
			f, err := dec.DecodeFix(payloadOf(t, frames[e]))
			if err != nil {
				t.Fatalf("join at %d, epoch %d: %v", start, e, err)
			}
			if f != want[e] {
				t.Fatalf("join at %d, epoch %d: values differ", start, e)
			}
		}
	}
}

func payloadOf(t testing.TB, b []byte) []byte {
	t.Helper()
	fr := NewFrameReader(bytes.NewReader(b))
	p, err := fr.Next()
	if err != nil {
		t.Fatalf("payloadOf: %v", err)
	}
	return p
}

// TestDeltaWithoutKeyframe: a delta frame with no chain fails loudly.
func TestDeltaWithoutKeyframe(t *testing.T) {
	enc := FixEncoder{KeyframeEvery: 8}
	f0, f1 := synthFix(0, 0), synthFix(0, 1)
	enc.AppendFix(nil, &f0)
	delta, key := enc.AppendFix(nil, &f1)
	if key {
		t.Fatal("epoch 1 should be a delta")
	}
	var dec FixDecoder
	if _, err := dec.DecodeFix(payloadOf(t, delta)); !errors.Is(err, ErrDeltaWithoutKeyframe) {
		t.Fatalf("err = %v, want ErrDeltaWithoutKeyframe", err)
	}
}

// TestSubscribeResumeRoundTrip covers the control frames.
func TestSubscribeResumeRoundTrip(t *testing.T) {
	for _, ack := range []int64{-1, 0, 7, 1 << 40} {
		p := payloadOf(t, AppendSubscribe(nil, 42, ack))
		s, err := DecodeSubscribe(p)
		if err != nil {
			t.Fatal(err)
		}
		if s.Session != 42 || s.Ack != ack || s.Version != Version {
			t.Fatalf("subscribe roundtrip: %+v", s)
		}
	}
	for _, r := range []Resume{
		{Session: 3, Status: StatusLive, Resume: 10, Head: 9},
		{Session: 0, Status: StatusUnknown, Resume: 0, Head: -1},
		{Session: 9, Status: StatusGap, Resume: 512, Head: 1000},
	} {
		got, err := DecodeResume(payloadOf(t, AppendResume(nil, r)))
		if err != nil {
			t.Fatal(err)
		}
		if got != r {
			t.Fatalf("resume roundtrip: got %+v want %+v", got, r)
		}
	}
}

// TestFrameCorruption: flipped bytes and truncations are detected, and
// PeekFix agrees with the full decoder.
func TestFrameCorruption(t *testing.T) {
	var enc FixEncoder
	f := synthFix(5, 64)
	frame, _ := enc.AppendFix(nil, &f)
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		fr := NewFrameReader(bytes.NewReader(mut))
		if p, err := fr.Next(); err == nil {
			// A flip confined to the payload must fail CRC; a flip in
			// the envelope may legally truncate the stream instead.
			var dec FixDecoder
			got, derr := dec.DecodeFix(p)
			if derr == nil && got == quantized(f) {
				t.Fatalf("flip at %d: frame decoded identically anyway", i)
			}
		}
	}
	s, e, key, err := PeekFix(payloadOf(t, frame))
	if err != nil || s != 5 || e != 64 || !key {
		t.Fatalf("PeekFix = (%d,%d,%v,%v)", s, e, key, err)
	}
}

// TestQuantSaturation: non-finite and absurd fix values cross the wire
// bounded (NaN as 0, the rest saturated at ±frame.QuantMax mm), in
// keyframes and deltas alike, and metres round to the millimetre.
func TestQuantSaturation(t *testing.T) {
	const bound = float64(frame.QuantMax) / 1000
	var enc FixEncoder
	var dec FixDecoder
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 1.0005} {
		f := Fix{Session: 1, Epoch: uint64(i), X: v, Y: -v, Z: v, ClockBias: v, HDOP: v}
		b, _ := enc.AppendFix(nil, &f)
		got, err := dec.DecodeFix(payloadOf(t, b))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		for _, q := range []float64{got.X, got.Y, got.Z, got.ClockBias, got.HDOP} {
			if math.IsNaN(q) || q > bound || q < -bound {
				t.Fatalf("%v crossed the wire as %v, outside ±%v", v, q, bound)
			}
		}
		if math.IsNaN(v) && got.X != 0 {
			t.Fatalf("NaN crossed the wire as %v, want 0", got.X)
		}
		if v == 1e300 && (got.X != bound || got.Y != -bound) {
			t.Fatalf("1e300 crossed the wire as (%v, %v), want ±%v", got.X, got.Y, bound)
		}
	}
	if q := frame.Quant(1.0005); q != 1001 && q != 1000 {
		t.Fatalf("mm rounding broken: %d", q)
	}
}

// TestAppendFixIntoNilAllocatesOnce: the hub frames every fix into a
// fresh slice it keeps in the replay ring, so framing into nil must
// allocate once, at the frame's size, not grow through append.
func TestAppendFixIntoNilAllocatesOnce(t *testing.T) {
	enc := FixEncoder{}
	e := uint64(0)
	var b []byte
	if n := testing.AllocsPerRun(100, func() {
		f := synthFix(3, e)
		b, _ = enc.AppendFix(nil, &f)
		e++
	}); n != 1 {
		t.Fatalf("AppendFix(nil) made %v allocations, want 1", n)
	}
	if cap(b) > len(b)+len(b)/2 {
		t.Fatalf("%d-byte frame in a %d-byte buffer", len(b), cap(b))
	}
}
