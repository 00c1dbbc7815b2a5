// Package frame is the binary frame codec internal/wire and
// internal/journal share: the CRC-checked envelope
//
//	frame := marker u8 | payloadLen uvarint | payload | crc32(payload) u32le
//
// with its verifying reader, a bounds-checked payload decoder and the
// saturating millimetre quantiser. Marker and payload cap are the
// caller's per-format constants. Signed integers are zigzag varints
// (binary.AppendVarint) and exact floats raw float64le.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Append wraps payload in the envelope with the given marker and
// appends it to dst. Into a nil dst it allocates once, at the frame's
// size.
func Append(dst []byte, marker byte, payload []byte) []byte {
	var hdr [Headroom]byte
	n := header(&hdr, marker, len(payload))
	if dst == nil {
		dst = make([]byte, 0, n+len(payload)+4)
	}
	dst = append(dst, hdr[:n]...)
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// Headroom is the room Seal needs in front of a payload: the marker
// and the longest length prefix.
const Headroom = 1 + binary.MaxVarintLen64

// Seal wraps the payload buf[at:] in the envelope where it lies: the
// marker and length prefix go into the bytes just before at, which
// must be at least as many (Headroom always is), and the CRC is
// appended. It returns the grown buf and the offset in it where the
// frame starts; buf[start:] is what Append(nil, marker, buf[at:])
// returns. The bytes before the frame are left as they were.
func Seal(buf []byte, at int, marker byte) ([]byte, int) {
	var hdr [Headroom]byte
	n := header(&hdr, marker, len(buf)-at)
	start := at - n
	copy(buf[start:at], hdr[:n])
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[at:])), start
}

// header writes the envelope's marker and length prefix for a payload
// of n bytes into hdr and returns their length.
func header(hdr *[Headroom]byte, marker byte, n int) int {
	hdr[0] = marker
	return 1 + binary.PutUvarint(hdr[1:], uint64(n))
}

// ErrBadFrame reports an envelope violation: bad marker, zero or
// oversized length prefix, or CRC mismatch. A stream that produced it
// cannot be resynchronized.
var ErrBadFrame = errors.New("bad frame")

// TearError reports where (the frame's offset from the reader's start)
// and why a stream stopped short of a clean end on a frame boundary.
// Err is ErrBadFrame for an envelope violation, else the read error
// (io.ErrUnexpectedEOF for a truncated frame).
type TearError struct {
	Offset int64
	Reason string // "truncated frame payload", "frame checksum mismatch", ...
	Err    error
}

func (e *TearError) Error() string {
	return fmt.Sprintf("frame at offset %d: %s: %v", e.Offset, e.Reason, e.Err)
}

func (e *TearError) Unwrap() error { return e.Err }

// Reader reads framed payloads off a byte stream, verifying each
// envelope. It reuses one buffer, so a payload (and Frame) is valid
// until the next call to Next.
type Reader struct {
	br     *bufio.Reader
	marker byte
	max    uint64
	off    int64  // bytes consumed by complete frames
	buf    []byte // the last frame read, marker through CRC
}

// NewReader reads frames with the given marker and payload cap from r,
// buffering it unless r already is a large enough *bufio.Reader.
func NewReader(r io.Reader, marker byte, maxPayload int) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 4096), marker: marker, max: uint64(maxPayload)}
}

// Next returns the next frame's payload. It returns io.EOF at a clean
// end on a frame boundary, the read error when the marker byte itself
// cannot be read, and a *TearError for anything wrong after it.
func (r *Reader) Next() ([]byte, error) {
	m, err := r.br.ReadByte()
	if err != nil {
		return nil, err
	}
	if m != r.marker {
		return nil, r.tear("bad frame marker", ErrBadFrame)
	}
	// The length prefix is read byte by byte, so Frame can return the
	// envelope exactly as it arrived.
	head := [1 + binary.MaxVarintLen64]byte{m}
	hdr := 1
	for hdr == 1 || head[hdr-1] >= 0x80 && hdr < len(head) {
		if head[hdr], err = r.br.ReadByte(); err != nil {
			return nil, r.tear("truncated frame length", err)
		}
		hdr++
	}
	n, k := binary.Uvarint(head[1:hdr])
	if k <= 0 || n == 0 || n > r.max {
		return nil, r.tear("implausible frame length", ErrBadFrame)
	}
	need := hdr + int(n) + 4
	if cap(r.buf) < need {
		r.buf = make([]byte, need)
	}
	buf := r.buf[:need]
	r.buf = buf
	copy(buf, head[:hdr])
	if k, err := io.ReadFull(r.br, buf[hdr:]); err != nil {
		if k < int(n) {
			return nil, r.tear("truncated frame payload", err)
		}
		return nil, r.tear("truncated frame checksum", err)
	}
	payload := buf[hdr : hdr+int(n)]
	if binary.LittleEndian.Uint32(buf[hdr+int(n):]) != crc32.ChecksumIEEE(payload) {
		return nil, r.tear("frame checksum mismatch", ErrBadFrame)
	}
	r.off += int64(need)
	return payload, nil
}

// Frame returns the envelope of the payload Next last returned, exactly
// as read: marker, length prefix, payload and CRC.
func (r *Reader) Frame() []byte { return r.buf }

// Offset is the offset, from the reader's start, of the next frame: the
// bytes the complete frames read so far span. After a tear it is the
// offset of the frame that tore, as in TearError.Offset.
func (r *Reader) Offset() int64 { return r.off }

func (r *Reader) tear(reason string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // the input ended inside a frame
	}
	return &TearError{Offset: r.off, Reason: reason, Err: err}
}

// Payload decoding errors.
var (
	ErrShortPayload = errors.New("short payload")
	ErrBadVarint    = errors.New("bad varint")
	ErrBadCount     = errors.New("implausible element count")
)

// Decoder walks a payload with bounds checks. Every method is a no-op
// returning zero once an error is latched, so a decode function can
// chain reads and check Err once.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder starts decoding p at its first byte.
func NewDecoder(p []byte) Decoder { return Decoder{b: p} }

// Err is the first error a read hit, nil when none.
func (d *Decoder) Err() error { return d.err }

// Len is the number of bytes not yet read.
func (d *Decoder) Len() int { return len(d.b) - d.off }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// take consumes and returns the next n bytes, or latches err and
// returns nil when fewer are left (n ≤ 0 is a bad varint).
func (d *Decoder) take(n int, err error) []byte {
	if d.err != nil || n <= 0 || n > d.Len() {
		d.fail(err)
		return nil
	}
	d.off += n
	return d.b[d.off-n : d.off]
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if b := d.take(1, ErrShortPayload); b != nil {
		return b[0]
	}
	return 0
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if d.take(n, ErrBadVarint) == nil {
		return 0
	}
	return v
}

// Varint reads a zigzag varint, as binary.AppendVarint writes it.
func (d *Decoder) Varint() int64 {
	v, n := binary.Varint(d.b[d.off:])
	if d.take(n, ErrBadVarint) == nil {
		return 0
	}
	return v
}

// Float reads a float64le, as AppendFloat writes it.
func (d *Decoder) Float() float64 {
	if b := d.take(8, ErrShortPayload); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Count reads an element-count prefix and checks it against the bytes
// left, at minBytes per element, so a corrupt prefix cannot trigger a
// huge allocation.
func (d *Decoder) Count(minBytes int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(d.Len())/uint64(minBytes)+1 {
		d.fail(ErrBadCount)
		return 0
	}
	return int(v)
}

// AppendFloat appends f's IEEE 754 bits, little-endian, so it decodes
// bit for bit.
func AppendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// QuantMax bounds Quant: ±2⁴⁰ mm (~1.1·10⁹ m) is beyond any GPS quantity.
const QuantMax = 1 << 40

// Quant converts v to millimetre (or 1/1000 unit) fixed point, rounding
// half away from zero and saturating at ±QuantMax (NaN maps to 0), so
// corrupt inputs cannot produce unbounded varints.
func Quant(v float64) int64 {
	if math.IsNaN(v) {
		return 0
	}
	q := math.Round(v * 1000)
	if q > QuantMax {
		return QuantMax
	}
	if q < -QuantMax {
		return -QuantMax
	}
	return int64(q)
}

// Unquant is Quant's inverse at millimetre resolution.
func Unquant(q int64) float64 { return float64(q) / 1000 }
