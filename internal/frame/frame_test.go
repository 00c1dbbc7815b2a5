package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"
)

const testMarker = 0xC3

// stream frames payloads of 1, 200 and 3 bytes back to back.
func stream() ([]byte, [][]byte) {
	payloads := [][]byte{{1}, bytes.Repeat([]byte{0xAB}, 200), {7, 8, 9}}
	var b []byte
	for _, p := range payloads {
		b = Append(b, testMarker, p)
	}
	return b, payloads
}

// TestReaderRoundTrip: every payload comes back, Frame is the envelope
// exactly as appended, Offset advances by it, and the end of the stream
// on a frame boundary is io.EOF.
func TestReaderRoundTrip(t *testing.T) {
	b, payloads := stream()
	r := NewReader(bytes.NewReader(b), testMarker, 1<<10)
	var off int64
	for i, want := range payloads {
		p, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(p, want) {
			t.Fatalf("frame %d payload %x, want %x", i, p, want)
		}
		env := Append(nil, testMarker, want)
		if !bytes.Equal(r.Frame(), env) || !bytes.Equal(b[off:off+int64(len(env))], env) {
			t.Fatalf("frame %d: Frame() %x, want %x", i, r.Frame(), env)
		}
		off += int64(len(env))
		if r.Offset() != off {
			t.Fatalf("frame %d: offset %d, want %d", i, r.Offset(), off)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestReaderTearAtEveryCut: a stream cut inside its last frame yields
// the complete frames, then a tear at the last frame's offset whose
// reason names the part that is missing.
func TestReaderTearAtEveryCut(t *testing.T) {
	b, payloads := stream()
	last := len(b) - len(Append(nil, testMarker, payloads[2]))
	for cut := last + 1; cut < len(b); cut++ {
		r := NewReader(bytes.NewReader(b[:cut]), testMarker, 1<<10)
		r.Next()
		r.Next()
		_, err := r.Next()
		var te *TearError
		if !errors.As(err, &te) || te.Offset != int64(last) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: %v, want a tear at %d", cut, err, last)
		}
		want := "truncated frame payload"
		switch {
		case cut == last+1:
			want = "truncated frame length"
		case cut >= len(b)-4:
			want = "truncated frame checksum"
		}
		if te.Reason != want {
			t.Fatalf("cut %d: reason %q, want %q", cut, te.Reason, want)
		}
	}
}

// TestReaderRejects: a wrong marker, a zero, oversized or overflowing
// length and a flipped payload bit are ErrBadFrame tears.
func TestReaderRejects(t *testing.T) {
	good := Append(nil, testMarker, []byte{1, 2, 3})
	flipped := append([]byte(nil), good...)
	flipped[3] ^= 1
	for _, tc := range []struct {
		name, reason string
		b            []byte
	}{
		{"marker", "bad frame marker", Append(nil, testMarker+1, []byte{1})},
		{"zero length", "implausible frame length", []byte{testMarker, 0, 0, 0, 0, 0}},
		{"over cap", "implausible frame length", Append(nil, testMarker, make([]byte, 17))},
		{"overflow", "implausible frame length", append([]byte{testMarker}, bytes.Repeat([]byte{0xFF}, 10)...)},
		{"crc", "frame checksum mismatch", flipped},
	} {
		_, err := NewReader(bytes.NewReader(tc.b), testMarker, 16).Next()
		var te *TearError
		if !errors.As(err, &te) || te.Reason != tc.reason || !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: %v, want an ErrBadFrame tear %q", tc.name, err, tc.reason)
		}
	}
}

// TestDecoderBounds: reads past the end, a bad varint and an
// implausible count latch the first error and return zeros after it.
func TestDecoderBounds(t *testing.T) {
	p := binary.AppendVarint([]byte{5}, -3)
	p = AppendFloat(p, math.Pi)
	p = binary.AppendUvarint(p, 2) // two elements of ≥ 1 byte
	p = append(p, 9, 9)
	d := NewDecoder(p)
	if d.Byte() != 5 || d.Varint() != -3 || d.Float() != math.Pi || d.Count(1) != 2 {
		t.Fatal("decoded values differ from the encoded ones")
	}
	if d.Len() != 2 || d.Err() != nil {
		t.Fatalf("len %d err %v, want 2 left and no error", d.Len(), d.Err())
	}
	d.Float()
	if !errors.Is(d.Err(), ErrShortPayload) || d.Byte() != 0 || !errors.Is(d.Err(), ErrShortPayload) {
		t.Fatalf("short float: %v", d.Err())
	}
	if d := NewDecoder([]byte{0x80}); d.Uvarint() != 0 || !errors.Is(d.Err(), ErrBadVarint) {
		t.Fatalf("bad varint: %v", d.Err())
	}
	if d := NewDecoder([]byte{200, 1, 0}); d.Count(1) != 0 || !errors.Is(d.Err(), ErrBadCount) {
		t.Fatalf("count 200 over 1 byte: %v", d.Err())
	}
}

// TestQuantSaturation: non-finite and absurd values stay bounded and
// metres round half away from zero to the millimetre.
func TestQuantSaturation(t *testing.T) {
	for v, want := range map[float64]int64{
		math.Inf(1): QuantMax, math.Inf(-1): -QuantMax, 1e300: QuantMax, -1e300: -QuantMax,
		0.0625: 63, -0.0625: -63, 0.0004: 0, 1.5: 1500,
	} {
		if got := Quant(v); got != want {
			t.Errorf("Quant(%v) = %d, want %d", v, got, want)
		}
	}
	if Quant(math.NaN()) != 0 {
		t.Error("Quant(NaN) != 0")
	}
	if Unquant(Quant(-27.25)) != -27.25 {
		t.Errorf("Unquant(Quant(-27.25)) = %v", Unquant(Quant(-27.25)))
	}
}

// TestSealMatchesAppend: sealing a payload in place yields exactly the
// envelope Append builds, and both equal the layout written out by
// hand, at payload lengths on each side of every length-prefix width
// the caps allow (1, 2, 3 and 4 bytes), with the least and the most
// headroom in front.
func TestSealMatchesAppend(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 2097151, 2097152} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*7 + n)
		}
		want := []byte{testMarker}
		want = binary.AppendUvarint(want, uint64(n))
		want = append(want, payload...)
		want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(payload))
		if got := Append(nil, testMarker, payload); !bytes.Equal(got, want) {
			t.Fatalf("len %d: Append differs from the envelope layout", n)
		}
		prefix := len(want) - n - 4
		for _, at := range []int{prefix, Headroom} {
			buf := append(bytes.Repeat([]byte{0xEE}, at), payload...)
			got, start := Seal(buf, at, testMarker)
			if !bytes.Equal(got[start:], want) {
				t.Fatalf("len %d, headroom %d: Seal differs from Append", n, at)
			}
			if start != at-prefix || !bytes.Equal(got[:start], bytes.Repeat([]byte{0xEE}, start)) {
				t.Fatalf("len %d, headroom %d: frame starts at %d, bytes before it %x", n, at, start, got[:start])
			}
		}
	}
}

// TestAppendGrowsOnce: framing into a nil buffer allocates once, at
// the frame's size.
func TestAppendGrowsOnce(t *testing.T) {
	payload := bytes.Repeat([]byte{1}, 300)
	var out []byte
	if n := testing.AllocsPerRun(20, func() { out = Append(nil, testMarker, payload) }); n != 1 {
		t.Fatalf("Append into nil: %v allocations, want 1", n)
	}
	if cap(out) > len(out)+len(out)/8 {
		t.Fatalf("frame of %d bytes in a %d-byte buffer", len(out), cap(out))
	}
}
