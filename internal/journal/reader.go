package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"gpsdl/internal/frame"
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
// (or a read error on a frame boundary) returns an error — frame-level
// damage is reported via ScanResult.
func Scan(r io.Reader) (*ScanResult, error) {
	br := bufio.NewReader(r)
	res := &ScanResult{}
	hlen, err := readHeader(br, &res.Meta)
	if err != nil {
		return nil, err
	}
	fr := frame.NewReader(br, FrameMarker, MaxFramePayload)
	for {
		frameStart := hlen + fr.Offset()
		payload, err := fr.Next()
		var te *frame.TearError
		switch {
		case err == io.EOF:
			return res, nil // clean end on a frame boundary
		case errors.As(err, &te):
			res.tear(frameStart, te.Reason)
			return res, nil
		case err != nil:
			return nil, err
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

// readHeader reads the magic and the meta envelope (marker: the version
// byte) and returns the header's length in bytes.
func readHeader(br *bufio.Reader, meta *Meta) (int64, error) {
	m, err := br.Peek(len(magic) + 1)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if [4]byte(m) != magic {
		return 0, fmt.Errorf("%w: bad magic", ErrBadHeader)
	}
	if m[4] != Version {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrBadHeader, m[4])
	}
	_, _ = br.Discard(len(magic)) // held in the buffer by the Peek above
	hr := frame.NewReader(br, Version, MaxFramePayload)
	mj, err := hr.Next()
	if err != nil {
		return 0, fmt.Errorf("%w: meta: %v", ErrBadHeader, err)
	}
	if err := json.Unmarshal(mj, meta); err != nil {
		return 0, fmt.Errorf("%w: meta: %v", ErrBadHeader, err)
	}
	return int64(len(magic)) + hr.Offset(), nil
}

func decodeRecords(payload []byte) ([]Record, error) {
	d := frame.NewDecoder(payload)
	d.Byte()    // kind, already known
	d.Uvarint() // shard (informational)
	base := d.Uvarint()
	n := d.Count(6)
	if err := d.Err(); err != nil {
		return nil, err
	}
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		var r Record
		r.Receiver = int(d.Uvarint())
		r.Epoch = base + d.Uvarint()
		r.Flags = uint32(d.Uvarint())
		r.State = d.Byte()
		r.Chain = d.Byte()
		r.Solver = d.Byte()
		if r.Flags&FlagFix != 0 {
			r.Pos = geo.ECEF{X: d.Float(), Y: d.Float(), Z: d.Float()}
			r.ClockBias = d.Float()
		}
		if r.Flags&FlagRMS != 0 {
			r.RMS = frame.Unquant(int64(d.Uvarint()))
		}
		if r.Flags&FlagDOP != 0 {
			r.PDOP = frame.Unquant(int64(d.Uvarint()))
			r.HDOP = frame.Unquant(int64(d.Uvarint()))
		}
		if r.Flags&FlagClock != 0 {
			r.ClockInnov = frame.Unquant(d.Varint())
		}
		if r.Flags&FlagExcluded != 0 {
			r.ExcludedPRN = int(d.Uvarint())
		}
		nres := d.Count(2)
		if nres > 0 && d.Err() == nil {
			r.Residuals = make([]SatResidual, nres)
			for j := 0; j < nres; j++ {
				r.Residuals[j].PRN = int(d.Uvarint())
				r.Residuals[j].Meters = frame.Unquant(d.Varint())
			}
		}
		if r.Flags&FlagObs != 0 {
			r.PredBias = d.Float()
			nobs := d.Count(41)
			if nobs > 0 && d.Err() == nil {
				r.Obs = make([]CapturedObs, nobs)
				for j := 0; j < nobs; j++ {
					o := &r.Obs[j]
					o.PRN = int(d.Uvarint())
					o.Pos = geo.ECEF{X: d.Float(), Y: d.Float(), Z: d.Float()}
					o.Pseudorange = d.Float()
					o.Elevation = d.Float()
					if r.Flags&FlagSigma != 0 {
						o.Sigma = d.Float()
					}
				}
			}
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
	if d.Len() != 0 {
		return nil, errors.New("trailing bytes in record batch")
	}
	return recs, nil
}

func decodeSync(payload []byte) (SyncPoint, error) {
	d := frame.NewDecoder(payload)
	d.Byte() // kind, already known
	sp := SyncPoint{
		MaxEpoch: d.Uvarint(),
		Frames:   d.Uvarint(),
		Records:  d.Uvarint(),
	}
	if err := d.Err(); err != nil {
		return sp, err
	}
	if d.Len() != 0 {
		return sp, errors.New("trailing bytes in sync point")
	}
	return sp, nil
}
