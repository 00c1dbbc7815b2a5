// Package wire implements the compact binary fix protocol the
// horizontal serving tier speaks between gpsserve nodes, the gpsproxy
// gateway, and subscribing clients. It is the binary sibling of the
// NMEA text broadcast: instead of fanning ~80-byte sentences to every
// client, each session-epoch is encoded once into a delta/varint frame
// (~20 bytes steady state) and the same buffer is written to every
// subscriber of that session.
//
// # Frame envelope
//
//	frame := marker 0xB5 | payloadLen uvarint | payload | crc32(payload) u32le
//
// The envelope, the payload decoder and the millimetre quantiser are
// internal/frame's, shared with the flight journal; this package owns
// the marker, the 64 KiB payload cap and the payload layouts. The
// first payload byte is the frame kind. Every frame is
// independently checksummed, so a torn TCP stream or a flipped byte
// fails loudly at the reader instead of decoding into plausible
// garbage positions.
//
// # Frames
//
//	SUBSCRIBE (client → server): protocol version, session id, and the
//	  resume token's ack epoch — the last epoch the client has safely
//	  consumed (−1 for "no history, start live"). The server must
//	  answer with RESUME.
//	RESUME (server → client): the server's verdict on the token: the
//	  epoch the stream will resume at, the session's current head
//	  epoch, and a status byte (see Status*). A RESUME always arrives
//	  promptly — an unknown or evicted session gets StatusUnknown or a
//	  cold-start resume, never silence.
//	FIX (server → client): one session-epoch. Positions and clock bias
//	  are quantized to millimetres; a keyframe carries absolute values,
//	  every other frame carries zigzag varint deltas against the
//	  previous non-miss epoch. The keyframe rule is a pure function of
//	  the fix history — the first non-miss fix inside each
//	  KeyframeEvery-sized block of absolute epochs is a keyframe — so
//	  the byte stream for a given history is identical no matter which
//	  node encodes it (the handoff bit-identity property), and misses
//	  landing on block boundaries cannot starve the chain of keyframes.
//	  An encoder additionally forces a keyframe on its very first fix,
//	  where no delta reference exists yet; a handed-off encoder that
//	  starts mid-block therefore re-aligns with an uninterrupted
//	  encoder's bytes at the next block boundary at the latest.
//	  Epochs where no fix was produced are MISS frames (FixMiss flag):
//	  they keep the epoch sequence gapless on the wire so a client can
//	  distinguish "the solver failed" from "frames were lost".
//
// Delta decoding is stateful: a subscription always starts at a
// keyframe (the Hub guarantees it), and integer delta accumulation is
// exact, so every subscriber reconstructs bit-identical quantized
// fixes regardless of when it joined.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"gpsdl/internal/frame"
)

// Protocol constants. Version bumps whenever the frame or field
// encoding changes incompatibly.
const (
	Version     = 1
	FrameMarker = 0xB5

	// Frame kinds (first payload byte).
	KindSubscribe = 1
	KindResume    = 2
	KindFix       = 3

	// MaxFramePayload bounds a single frame payload; readers reject
	// larger length prefixes as corruption.
	MaxFramePayload = 1 << 16

	// DefaultKeyframeEvery is the absolute-epoch keyframe block size:
	// the first non-miss fix of each block is encoded absolute, so
	// independently restarted encoders re-align within one block.
	DefaultKeyframeEvery = 32
)

// Subscribe statuses a RESUME frame can carry.
const (
	// StatusLive: the token was current (or absent); the stream starts
	// at the session head with no replay.
	StatusLive = iota
	// StatusReplay: the token's ack was behind the head and the replay
	// ring covered the gap; the stream resumes exactly at ack+1 (after
	// chain-priming frames the client has already consumed).
	StatusReplay
	// StatusGap: the ack was too old for the replay ring; the stream
	// resumes at the oldest replayable keyframe. The gap is explicit —
	// Resume.Resume > ack+1 — never silent.
	StatusGap
	// StatusCold: the session exists but has produced no frames yet;
	// the stream starts from its first future frame.
	StatusCold
	// StatusUnknown: the session id is not hosted here. The documented
	// cold-start response of the resume contract: the subscription
	// stays registered (frames flow if the session is adopted later,
	// e.g. mid-handoff), but the client is told its token matched
	// nothing.
	StatusUnknown
)

// FIX frame flag bits.
const (
	// FixKeyframe: absolute (not delta) position/bias/HDOP fields.
	FixKeyframe = 1 << iota
	// FixMiss: the epoch produced no fix (solver failure, quarantine,
	// epoch error); the frame carries no position fields.
	FixMiss
	// FixCoast: dead-reckoning position hold, not a fresh solve.
	FixCoast
	// FixSuspect: the fix carries an unresolved integrity fault.
	FixSuspect
	// FixDegraded: the session reported a degraded health state.
	FixDegraded
)

// Subscribe is the decoded SUBSCRIBE payload: the resume token.
type Subscribe struct {
	Version int
	Session int
	// Ack is the last epoch the client consumed; −1 subscribes live.
	Ack int64
}

// Resume is the decoded RESUME payload.
type Resume struct {
	Session int
	Status  uint8
	// Resume is the first epoch the stream will deliver (0 when the
	// session has no history and none is promised).
	Resume uint64
	// Head is the session's latest published epoch, −1 when none.
	Head int64
}

// Fix is one decoded session-epoch. Position, clock bias and HDOP are
// millimetre / milli-unit quantized — exactly what was on the wire, so
// two decoders that consumed the same epochs hold bit-identical values.
type Fix struct {
	Session int
	Epoch   uint64
	// X, Y, Z is the ECEF position in meters (mm resolution); Miss
	// frames carry none.
	X, Y, Z   float64
	ClockBias float64
	HDOP      float64
	Sats      int
	// State is the engine session-state ordinal (journal.StateName
	// renders it); Solver the solver-table index (journal.SolverName).
	State  uint8
	Solver uint8
	Miss   bool
	Coast  bool
	// Suspect / Degraded mirror the FixEvent integrity flags.
	Suspect  bool
	Degraded bool
}

// Flags packs the fix's boolean state into FIX frame flag bits
// (keyframe excluded — that is the encoder's choice, not the fix's).
func (f *Fix) flags() byte {
	var fl byte
	if f.Miss {
		fl |= FixMiss
	}
	if f.Coast {
		fl |= FixCoast
	}
	if f.Suspect {
		fl |= FixSuspect
	}
	if f.Degraded {
		fl |= FixDegraded
	}
	return fl
}

// AppendFrame wraps payload in the wire envelope and appends it.
func AppendFrame(dst, payload []byte) []byte {
	return frame.Append(dst, FrameMarker, payload)
}

// AppendSubscribe appends a SUBSCRIBE frame for token (session, ack).
func AppendSubscribe(dst []byte, session int, ack int64) []byte {
	p := make([]byte, 0, 16)
	p = append(p, KindSubscribe, Version)
	p = binary.AppendUvarint(p, uint64(session))
	p = binary.AppendVarint(p, ack)
	return AppendFrame(dst, p)
}

// AppendResume appends a RESUME frame.
func AppendResume(dst []byte, r Resume) []byte {
	p := make([]byte, 0, 24)
	p = append(p, KindResume)
	p = binary.AppendUvarint(p, uint64(r.Session))
	p = append(p, r.Status)
	p = binary.AppendUvarint(p, r.Resume)
	p = binary.AppendVarint(p, r.Head)
	return AppendFrame(dst, p)
}

// DecodeSubscribe parses a SUBSCRIBE payload (kind byte included).
func DecodeSubscribe(p []byte) (Subscribe, error) {
	r := frame.NewDecoder(p)
	if k := r.Byte(); k != KindSubscribe {
		return Subscribe{}, fmt.Errorf("wire: subscribe: kind %d", k)
	}
	s := Subscribe{Version: int(r.Byte())}
	s.Session = int(r.Uvarint())
	s.Ack = r.Varint()
	if err := r.Err(); err != nil {
		return Subscribe{}, fmt.Errorf("wire: subscribe: %w", err)
	}
	if s.Version != Version {
		return Subscribe{}, fmt.Errorf("wire: subscribe: unsupported protocol version %d", s.Version)
	}
	return s, nil
}

// DecodeResume parses a RESUME payload (kind byte included).
func DecodeResume(p []byte) (Resume, error) {
	r := frame.NewDecoder(p)
	if k := r.Byte(); k != KindResume {
		return Resume{}, fmt.Errorf("wire: resume: kind %d", k)
	}
	var res Resume
	res.Session = int(r.Uvarint())
	res.Status = r.Byte()
	res.Resume = r.Uvarint()
	res.Head = r.Varint()
	if err := r.Err(); err != nil {
		return Resume{}, fmt.Errorf("wire: resume: %w", err)
	}
	return res, nil
}

// PeekFix extracts (session, epoch, keyframe) from a FIX payload
// without delta state — what a relay needs to route and deduplicate
// frames it cannot (and must not) decode.
func PeekFix(p []byte) (session int, epoch uint64, keyframe bool, err error) {
	r := frame.NewDecoder(p)
	if k := r.Byte(); k != KindFix {
		return 0, 0, false, fmt.Errorf("wire: fix: kind %d", k)
	}
	session = int(r.Uvarint())
	epoch = r.Uvarint()
	flags := r.Byte()
	if err := r.Err(); err != nil {
		return 0, 0, false, fmt.Errorf("wire: fix: %w", err)
	}
	return session, epoch, flags&FixKeyframe != 0, nil
}

// FixEncoder holds one session stream's delta state. Not safe for
// concurrent use; the Hub serializes per session.
type FixEncoder struct {
	// KeyframeEvery is the absolute-epoch keyframe block size; ≤ 0
	// means DefaultKeyframeEvery.
	KeyframeEvery int

	havePrev  bool
	prevEpoch uint64   // epoch of the previous non-miss fix
	prev      [5]int64 // its quantized x y z bias hdop

	// payload is the reused FIX payload buffer: AppendFrame copies it
	// into dst, so one buffer serves every fix of the stream.
	payload []byte
}

// AppendFix encodes f as one framed FIX, appends it to dst, and
// reports whether the frame is a keyframe. The first non-miss fix
// after construction is a forced keyframe; after that, the first
// non-miss fix of each KeyframeEvery epoch block is a keyframe and
// every other epoch is a delta against the previous non-miss fix.
func (e *FixEncoder) AppendFix(dst []byte, f *Fix) ([]byte, bool) {
	every := e.KeyframeEvery
	if every <= 0 {
		every = DefaultKeyframeEvery
	}
	flags := f.flags()
	key := !f.Miss && (!e.havePrev || f.Epoch/uint64(every) != e.prevEpoch/uint64(every))
	if key {
		flags |= FixKeyframe
	}
	p := append(e.payload[:0], KindFix)
	p = binary.AppendUvarint(p, uint64(f.Session))
	p = binary.AppendUvarint(p, f.Epoch)
	p = append(p, flags, f.State, f.Solver)
	p = binary.AppendUvarint(p, uint64(f.Sats))
	if !f.Miss {
		q := [5]int64{frame.Quant(f.X), frame.Quant(f.Y), frame.Quant(f.Z), frame.Quant(f.ClockBias), frame.Quant(f.HDOP)}
		var ref [5]int64 // a keyframe is a delta against zero
		if !key {
			ref = e.prev
		}
		for i, v := range q {
			p = binary.AppendVarint(p, v-ref[i])
		}
		e.prev, e.havePrev, e.prevEpoch = q, true, f.Epoch
	}
	e.payload = p
	return AppendFrame(dst, p), key
}

// FixDecoder mirrors FixEncoder: it accumulates deltas exactly, so a
// decoder that consumed a stream from any keyframe holds bit-identical
// values to the encoder.
type FixDecoder struct {
	havePrev bool
	prev     [5]int64
}

// ErrDeltaWithoutKeyframe reports a delta frame arriving before any
// keyframe primed the chain — a subscription that did not start at a
// keyframe, which the Hub never produces.
var ErrDeltaWithoutKeyframe = errors.New("wire: delta fix before any keyframe")

// DecodeFix parses a FIX payload (kind byte included) and updates the
// delta chain.
func (d *FixDecoder) DecodeFix(p []byte) (Fix, error) {
	r := frame.NewDecoder(p)
	if k := r.Byte(); k != KindFix {
		return Fix{}, fmt.Errorf("wire: fix: kind %d", k)
	}
	var f Fix
	f.Session = int(r.Uvarint())
	f.Epoch = r.Uvarint()
	flags := r.Byte()
	f.State = r.Byte()
	f.Solver = r.Byte()
	f.Sats = int(r.Uvarint())
	f.Miss = flags&FixMiss != 0
	f.Coast = flags&FixCoast != 0
	f.Suspect = flags&FixSuspect != 0
	f.Degraded = flags&FixDegraded != 0
	if f.Miss {
		if err := r.Err(); err != nil {
			return Fix{}, fmt.Errorf("wire: fix: %w", err)
		}
		return f, nil
	}
	var q [5]int64 // a keyframe is a delta against zero
	if flags&FixKeyframe == 0 {
		if !d.havePrev {
			return Fix{}, ErrDeltaWithoutKeyframe
		}
		q = d.prev
	}
	for i := range q {
		q[i] += r.Varint()
	}
	if err := r.Err(); err != nil {
		return Fix{}, fmt.Errorf("wire: fix: %w", err)
	}
	d.prev, d.havePrev = q, true
	f.X, f.Y, f.Z = frame.Unquant(q[0]), frame.Unquant(q[1]), frame.Unquant(q[2])
	f.ClockBias, f.HDOP = frame.Unquant(q[3]), frame.Unquant(q[4])
	return f, nil
}

// FrameReader reads wire frames off a byte stream, verifying each
// envelope; see frame.Reader. The returned payload is valid until the
// next call.
type FrameReader = frame.Reader

// NewFrameReader wraps r (buffered internally).
func NewFrameReader(r io.Reader) *FrameReader {
	return frame.NewReader(r, FrameMarker, MaxFramePayload)
}

// Kind returns a payload's frame kind (0 when empty).
func Kind(p []byte) byte {
	if len(p) == 0 {
		return 0
	}
	return p[0]
}
