package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"gpsdl/internal/geo"
)

// ErrBadHeader reports a file that is not a journal (wrong magic,
// unsupported version, or corrupt header metadata).
var ErrBadHeader = errors.New("journal: bad header")

// SyncPoint is a decoded FrameSync payload: the writer's cumulative
// state at the moment the sync frame was written.
type SyncPoint struct {
	MaxEpoch uint64
	Frames   uint64
	Records  uint64
}

// ScanResult is everything a full scan recovers from a journal file,
// including a possibly torn final frame.
type ScanResult struct {
	Meta       Meta
	Records    []Record
	Frames     int // complete record frames
	SyncPoints []SyncPoint

	// Torn reports that the scan stopped at an incomplete or
	// corrupt tail (truncated frame, CRC mismatch, or garbage after
	// the last complete frame). TornOffset is the file offset of the
	// first unrecoverable byte and TornReason describes why.
	Torn       bool
	TornOffset int64
	TornReason string
}

// ScanFile scans the journal at path. See Scan.
func ScanFile(path string) (*ScanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Scan(f)
}

// Scan reads a journal from r until EOF or the first unrecoverable
// frame. A well-formed file yields Torn=false; a file truncated or
// corrupted anywhere inside its final frame yields every record from
// the complete frames plus exactly one torn tail. Only a broken header
// returns an error — frame-level damage is reported via ScanResult.
func Scan(r io.Reader) (*ScanResult, error) {
	br := &countReader{r: r}
	res := &ScanResult{}
	if err := readHeader(br, &res.Meta); err != nil {
		return nil, err
	}
	for {
		frameStart := br.n
		marker, err := br.ReadByte()
		if err == io.EOF {
			return res, nil // clean end on a frame boundary
		}
		if err != nil {
			return nil, err
		}
		if marker != FrameMarker {
			res.tear(frameStart, "bad frame marker")
			return res, nil
		}
		plen, err := binary.ReadUvarint(br)
		if err != nil {
			res.tear(frameStart, "truncated frame length")
			return res, nil
		}
		if plen == 0 || plen > MaxFramePayload {
			res.tear(frameStart, "implausible frame length")
			return res, nil
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			res.tear(frameStart, "truncated frame payload")
			return res, nil
		}
		var crcb [4]byte
		if _, err := io.ReadFull(br, crcb[:]); err != nil {
			res.tear(frameStart, "truncated frame checksum")
			return res, nil
		}
		if binary.LittleEndian.Uint32(crcb[:]) != crc32.ChecksumIEEE(payload) {
			res.tear(frameStart, "frame checksum mismatch")
			return res, nil
		}
		switch payload[0] {
		case FrameRecords:
			recs, err := decodeRecords(payload)
			if err != nil {
				res.tear(frameStart, "undecodable record batch: "+err.Error())
				return res, nil
			}
			res.Records = append(res.Records, recs...)
			res.Frames++
		case FrameSync:
			sp, err := decodeSync(payload)
			if err != nil {
				res.tear(frameStart, "undecodable sync point: "+err.Error())
				return res, nil
			}
			res.SyncPoints = append(res.SyncPoints, sp)
		default:
			res.tear(frameStart, "unknown frame kind")
			return res, nil
		}
	}
}

func (res *ScanResult) tear(off int64, reason string) {
	res.Torn = true
	res.TornOffset = off
	res.TornReason = reason
}

type countReader struct {
	r   io.Reader
	n   int64
	buf [1]byte
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countReader) ReadByte() (byte, error) {
	// io.ReadFull tolerates one-byte reads; keep it simple.
	if _, err := io.ReadFull(c, c.buf[:1]); err != nil {
		return 0, err
	}
	return c.buf[0], nil
}

func readHeader(br *countReader, meta *Meta) error {
	var m [5]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if m[0] != magic[0] || m[1] != magic[1] || m[2] != magic[2] || m[3] != magic[3] {
		return fmt.Errorf("%w: bad magic", ErrBadHeader)
	}
	if m[4] != Version {
		return fmt.Errorf("%w: unsupported version %d", ErrBadHeader, m[4])
	}
	mlen, err := binary.ReadUvarint(br)
	if err != nil || mlen > MaxFramePayload {
		return fmt.Errorf("%w: bad meta length", ErrBadHeader)
	}
	mj := make([]byte, mlen)
	if _, err := io.ReadFull(br, mj); err != nil {
		return fmt.Errorf("%w: truncated meta", ErrBadHeader)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(br, crcb[:]); err != nil {
		return fmt.Errorf("%w: truncated meta checksum", ErrBadHeader)
	}
	if binary.LittleEndian.Uint32(crcb[:]) != crc32.ChecksumIEEE(mj) {
		return fmt.Errorf("%w: meta checksum mismatch", ErrBadHeader)
	}
	if err := json.Unmarshal(mj, meta); err != nil {
		return fmt.Errorf("%w: meta: %v", ErrBadHeader, err)
	}
	return nil
}

// payloadDecoder walks a frame payload with bounds checking; all
// methods are no-ops once an error is latched, so decode functions can
// chain reads and check the error once.
type payloadDecoder struct {
	b   []byte
	off int
	err error
}

func (d *payloadDecoder) fail(msg string) {
	if d.err == nil {
		d.err = errors.New(msg)
	}
}

func (d *payloadDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

func (d *payloadDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("short payload")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *payloadDecoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail("short payload")
		return 0
	}
	v := mathFloat(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// count validates a length prefix against the bytes that remain, with
// minBytes the minimum encoded size per element, so corrupt prefixes
// cannot trigger huge allocations.
func (d *payloadDecoder) count(minBytes int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b)-d.off)/uint64(minBytes)+1 {
		d.fail("implausible element count")
		return 0
	}
	return int(v)
}

func decodeRecords(payload []byte) ([]Record, error) {
	d := &payloadDecoder{b: payload, off: 1} // kind already known
	_ = d.uvarint()                          // shard (informational)
	base := d.uvarint()
	n := d.count(6)
	if d.err != nil {
		return nil, d.err
	}
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		var r Record
		r.Receiver = int(d.uvarint())
		r.Epoch = base + d.uvarint()
		r.Flags = uint32(d.uvarint())
		r.State = d.byte()
		r.Chain = d.byte()
		r.Solver = d.byte()
		if r.Flags&FlagFix != 0 {
			r.Pos = geo.ECEF{X: d.float(), Y: d.float(), Z: d.float()}
			r.ClockBias = d.float()
		}
		if r.Flags&FlagRMS != 0 {
			r.RMS = unquant(d.uvarint())
		}
		if r.Flags&FlagDOP != 0 {
			r.PDOP = unquant(d.uvarint())
			r.HDOP = unquant(d.uvarint())
		}
		if r.Flags&FlagClock != 0 {
			r.ClockInnov = unquantSigned(unzigzag(d.uvarint()))
		}
		if r.Flags&FlagExcluded != 0 {
			r.ExcludedPRN = int(d.uvarint())
		}
		nres := d.count(2)
		if nres > 0 && d.err == nil {
			r.Residuals = make([]SatResidual, nres)
			for j := 0; j < nres; j++ {
				r.Residuals[j].PRN = int(d.uvarint())
				r.Residuals[j].Meters = unquantSigned(unzigzag(d.uvarint()))
			}
		}
		if r.Flags&FlagObs != 0 {
			r.PredBias = d.float()
			nobs := d.count(41)
			if nobs > 0 && d.err == nil {
				r.Obs = make([]CapturedObs, nobs)
				for j := 0; j < nobs; j++ {
					o := &r.Obs[j]
					o.PRN = int(d.uvarint())
					o.Pos = geo.ECEF{X: d.float(), Y: d.float(), Z: d.float()}
					o.Pseudorange = d.float()
					o.Elevation = d.float()
				}
			}
		}
		if d.err != nil {
			return nil, d.err
		}
		recs = append(recs, r)
	}
	if d.off != len(d.b) {
		return nil, errors.New("trailing bytes in record batch")
	}
	return recs, nil
}

func decodeSync(payload []byte) (SyncPoint, error) {
	d := &payloadDecoder{b: payload, off: 1}
	sp := SyncPoint{
		MaxEpoch: d.uvarint(),
		Frames:   d.uvarint(),
		Records:  d.uvarint(),
	}
	if d.err != nil {
		return sp, d.err
	}
	if d.off != len(d.b) {
		return sp, errors.New("trailing bytes in sync point")
	}
	return sp, nil
}
