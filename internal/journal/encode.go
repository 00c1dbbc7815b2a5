package journal

import (
	"encoding/binary"

	"gpsdl/internal/frame"
)

// Encoder builds one FrameRecords payload. Each engine shard owns one
// Encoder and appends records while stepping a batch; the accumulated
// payload is handed to Writer.WriteRecords at the batch boundary, so
// the solve hot path never touches the file or the writer lock. The
// internal buffer is reused across batches — after warm-up, Add
// performs no allocations.
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
type Encoder struct {
	buf   []byte
	count int
	base  uint64

	// countAt remembers where the record-count varint placeholder
	// sits so Payload can patch it without re-encoding.
	countAt int
}

// Begin starts a new batch payload for the given shard with the given
// base epoch. Any previously accumulated payload is discarded.
func (e *Encoder) Begin(shard int, baseEpoch uint64) {
	e.buf = e.buf[:0]
	e.count = 0
	e.base = baseEpoch
	e.buf = append(e.buf, FrameRecords)
	e.buf = binary.AppendUvarint(e.buf, uint64(shard))
	e.buf = binary.AppendUvarint(e.buf, baseEpoch)
	e.countAt = len(e.buf)
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

// Payload finalizes and returns the batch payload (valid until the
// next Begin). It returns nil when no records were added.
func (e *Encoder) Payload() []byte {
	if e.count == 0 {
		return nil
	}
	if e.countAt < 0 { // already finalized
		return e.buf
	}
	// Patch the record count in. The count varint lives between the
	// fixed prefix and the first record; shift the records right by
	// its width. The tail move is a few hundred bytes at most per
	// batch and happens once per frame, off the hot path.
	var cnt [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(cnt[:], uint64(e.count))
	e.buf = append(e.buf, cnt[:n]...) // grow, values overwritten below
	copy(e.buf[e.countAt+n:], e.buf[e.countAt:len(e.buf)-n])
	copy(e.buf[e.countAt:], cnt[:n])
	e.countAt = -1 // Payload is single-shot per Begin
	return e.buf
}
