package journal

import (
	"encoding/binary"
	"slices"

	"gpsdl/internal/frame"
)

// Encoder builds one FrameRecords payload. Each engine shard owns one
// Encoder and appends records while stepping a batch; the batch is
// handed to Writer.WriteBatch at the batch boundary, so the solve hot
// path never touches the file or the writer lock. Buffers are reused
// across batches (the writer trades the one it keeps for the one its
// tail ring evicts), so after warm-up Add performs no allocations.
//
// Payload layout:
//
//	kind u8 (FrameRecords) | shard uvarint | baseEpoch uvarint |
//	count uvarint | record*
//
// Record layout (field groups gated by flag bits, see Record):
//
//	receiver uvarint | epoch-baseEpoch uvarint | flags uvarint |
//	state u8 | chain u8 | solver u8 |
//	[FlagFix]      posX f64le posY f64le posZ f64le clockBias f64le |
//	[FlagRMS]      rms_mm uvarint |
//	[FlagDOP]      pdop_milli uvarint hdop_milli uvarint |
//	[FlagClock]    clockInnov_mm zigzag varint |
//	[FlagExcluded] excludedPRN uvarint |
//	nres uvarint { prn uvarint res_mm zigzag varint }* |
//	[FlagObs]      predBias f64le nobs uvarint
//	               { prn uvarint posX posY posZ pr elev (f64le)
//	                 [FlagSigma] sigma f64le }*
//
// mm and milli fields are frame.Quant's; RMS and DOP clamp at 0.
//
// Begin reserves headroom in front of the first record for the payload
// prefix and the frame envelope, whose widths are known only when the
// batch ends. Payload writes the prefix into it; Writer.WriteBatch also
// writes the envelope and frames the batch where it lies.
type Encoder struct {
	buf   []byte // headroom, then the records
	count int
	shard uint64
	base  uint64
}

// headroom is the room Begin leaves in front of the first record: the
// envelope, the kind byte and the shard, base and count uvarints at
// their widest.
const headroom = frame.Headroom + 1 + 3*binary.MaxVarintLen64

// Begin starts a new batch payload for the given shard with the given
// base epoch. Any previously accumulated payload is discarded.
func (e *Encoder) Begin(shard int, baseEpoch uint64) {
	e.buf = slices.Grow(e.buf[:0], headroom)[:headroom]
	e.count = 0
	e.shard = uint64(shard)
	e.base = baseEpoch
}

// Add appends one record. r.Epoch must be >= the base epoch passed to
// Begin. The Record struct is read, never retained.
func (e *Encoder) Add(r *Record) {
	e.count++
	b := e.buf
	b = binary.AppendUvarint(b, uint64(r.Receiver))
	b = binary.AppendUvarint(b, r.Epoch-e.base)
	b = binary.AppendUvarint(b, uint64(r.Flags))
	b = append(b, r.State, r.Chain, r.Solver)
	if r.Flags&FlagFix != 0 {
		b = frame.AppendFloat(b, r.Pos.X)
		b = frame.AppendFloat(b, r.Pos.Y)
		b = frame.AppendFloat(b, r.Pos.Z)
		b = frame.AppendFloat(b, r.ClockBias)
	}
	if r.Flags&FlagRMS != 0 {
		b = binary.AppendUvarint(b, uint64(max(frame.Quant(r.RMS), 0)))
	}
	if r.Flags&FlagDOP != 0 {
		b = binary.AppendUvarint(b, uint64(max(frame.Quant(r.PDOP), 0)))
		b = binary.AppendUvarint(b, uint64(max(frame.Quant(r.HDOP), 0)))
	}
	if r.Flags&FlagClock != 0 {
		b = binary.AppendVarint(b, frame.Quant(r.ClockInnov))
	}
	if r.Flags&FlagExcluded != 0 {
		b = binary.AppendUvarint(b, uint64(r.ExcludedPRN))
	}
	b = binary.AppendUvarint(b, uint64(len(r.Residuals)))
	for i := range r.Residuals {
		b = binary.AppendUvarint(b, uint64(r.Residuals[i].PRN))
		b = binary.AppendVarint(b, frame.Quant(r.Residuals[i].Meters))
	}
	if r.Flags&FlagObs != 0 {
		b = frame.AppendFloat(b, r.PredBias)
		b = binary.AppendUvarint(b, uint64(len(r.Obs)))
		for i := range r.Obs {
			o := &r.Obs[i]
			b = binary.AppendUvarint(b, uint64(o.PRN))
			b = frame.AppendFloat(b, o.Pos.X)
			b = frame.AppendFloat(b, o.Pos.Y)
			b = frame.AppendFloat(b, o.Pos.Z)
			b = frame.AppendFloat(b, o.Pseudorange)
			b = frame.AppendFloat(b, o.Elevation)
			if r.Flags&FlagSigma != 0 {
				b = frame.AppendFloat(b, o.Sigma)
			}
		}
	}
	e.buf = b
}

// Count is the number of records accumulated since Begin.
func (e *Encoder) Count() int { return e.count }

// Payload returns the batch payload, valid until the next Begin or
// Add. It returns nil when no records were added.
func (e *Encoder) Payload() []byte {
	if e.count == 0 {
		return nil
	}
	return e.buf[e.prefix():]
}

// prefix writes the payload prefix into the headroom, just in front
// of the first record, and returns where the payload starts.
func (e *Encoder) prefix() int {
	var pre [headroom - frame.Headroom]byte
	p := append(pre[:0], FrameRecords)
	p = binary.AppendUvarint(p, e.shard)
	p = binary.AppendUvarint(p, e.base)
	p = binary.AppendUvarint(p, uint64(e.count))
	return headroom - copy(e.buf[headroom-len(p):], p)
}

// seal frames the batch where it lies and returns the buffer with the
// offset the frame starts at.
func (e *Encoder) seal() ([]byte, int) {
	return frame.Seal(e.buf, e.prefix(), FrameMarker)
}

// reset empties the encoder onto buf's storage (nil allocates afresh
// at the next Begin).
func (e *Encoder) reset(buf []byte) {
	e.buf, e.count = buf[:0], 0
}
