package scenario

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Binary dataset format, the one on-disk dataset form: a fixed header,
// then per epoch a timestamp + observation count + fixed-width
// observation records. Little-endian throughout.
//
// Layout (version 3):
//
//	magic    [8]byte  "GPSDLBIN"
//	version  uint16   3
//	station  ID (uint8 length + bytes), pos (3×float64),
//	         date (uint8 length + bytes), clock type (uint8)
//	config   seed int64, elevMask, noise, iono, tropo float64,
//	         multipath uint8, step float64
//	epochs   uint32 count, then per epoch:
//	           t float64, n uint16, n × obsRecord
//	obsRecord prn uint16, pos 3×float64, pr, elev, cn0 float64
//
// Versions 1 and 2 also stored L2 code, carrier phase, Doppler and
// satellite velocity per observation (v1 without cn0), a codeOnly config
// byte, and the seed as a float64. The generator no longer synthesizes
// those observables, so ReadBinary rejects both versions; regenerate such
// files with gpsgen -format bin. The same goes for the retired JSON-lines
// datasets, which ReadBinary recognizes by their leading '{'.
const (
	binaryMagic   = "GPSDLBIN"
	binaryVersion = 3
)

// WriteBinary writes the dataset in the compact binary format.
func (d *Dataset) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return fmt.Errorf("scenario: write magic: %w", err)
	}
	le := binary.LittleEndian
	writeU16 := func(v uint16) {
		var b [2]byte
		le.PutUint16(b[:], v)
		bw.Write(b[:]) //nolint:errcheck // flushed at the end
	}
	writeU32 := func(v uint32) {
		var b [4]byte
		le.PutUint32(b[:], v)
		bw.Write(b[:]) //nolint:errcheck
	}
	writeU64 := func(v uint64) {
		var b [8]byte
		le.PutUint64(b[:], v)
		bw.Write(b[:]) //nolint:errcheck
	}
	writeF := func(v float64) { writeU64(math.Float64bits(v)) }
	writeStr := func(s string) error {
		if len(s) > 255 {
			return fmt.Errorf("scenario: string field %q too long", s)
		}
		bw.WriteByte(byte(len(s))) //nolint:errcheck
		bw.WriteString(s)          //nolint:errcheck
		return nil
	}
	writeU16(binaryVersion)
	if err := writeStr(d.Station.ID); err != nil {
		return err
	}
	writeF(d.Station.Pos.X)
	writeF(d.Station.Pos.Y)
	writeF(d.Station.Pos.Z)
	if err := writeStr(d.Station.Date); err != nil {
		return err
	}
	if d.Station.Clock < 0 || d.Station.Clock > math.MaxUint8 {
		return fmt.Errorf("scenario: clock type %d does not fit the binary format", d.Station.Clock)
	}
	bw.WriteByte(byte(d.Station.Clock)) //nolint:errcheck
	writeU64(uint64(d.Config.Seed))
	writeF(d.Config.ElevMaskDeg)
	writeF(d.Config.NoiseSigma)
	writeF(d.Config.IonoRemainder)
	writeF(d.Config.TropoRemainder)
	bw.WriteByte(boolByte(d.Config.Multipath)) //nolint:errcheck
	writeF(d.Config.Step)
	writeU32(uint32(len(d.Epochs)))
	for i := range d.Epochs {
		e := &d.Epochs[i]
		if len(e.Obs) > math.MaxUint16 {
			return fmt.Errorf("scenario: epoch %d has %d observations", i, len(e.Obs))
		}
		writeF(e.T)
		writeU16(uint16(len(e.Obs)))
		for _, o := range e.Obs {
			if o.PRN < 0 || o.PRN > math.MaxUint16 {
				return fmt.Errorf("scenario: epoch %d: PRN %d does not fit the binary format", i, o.PRN)
			}
			writeU16(uint16(o.PRN))
			writeF(o.Pos.X)
			writeF(o.Pos.Y)
			writeF(o.Pos.Z)
			writeF(o.Pseudorange)
			writeF(o.Elevation)
			writeF(o.CN0)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("scenario: flush binary: %w", err)
	}
	return nil
}

// ReadBinary reads a dataset written by WriteBinary.
func ReadBinary(r io.Reader) (*Dataset, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("scenario: read magic: %w", err)
	}
	if string(magic) != binaryMagic {
		if magic[0] == '{' {
			return nil, errors.New("scenario: JSON-lines datasets are retired; regenerate the file with gpsgen -format bin")
		}
		return nil, fmt.Errorf("scenario: bad magic %q", magic)
	}
	le := binary.LittleEndian
	readU16 := func() (uint16, error) {
		var b [2]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return le.Uint16(b[:]), nil
	}
	readU32 := func() (uint32, error) {
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return le.Uint32(b[:]), nil
	}
	readU64 := func() (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return le.Uint64(b[:]), nil
	}
	readF := func() (float64, error) {
		v, err := readU64()
		return math.Float64frombits(v), err
	}
	readStr := func() (string, error) {
		n, err := br.ReadByte()
		if err != nil {
			return "", err
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	fail := func(what string, err error) (*Dataset, error) {
		return nil, fmt.Errorf("scenario: read %s: %w", what, err)
	}
	version, err := readU16()
	if err != nil {
		return fail("version", err)
	}
	if version == 1 || version == 2 {
		return nil, fmt.Errorf("scenario: binary dataset version %d carries the retired carrier/L2/Doppler records; regenerate it with gpsgen -format bin", version)
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("scenario: unsupported binary version %d", version)
	}
	ds := &Dataset{}
	if ds.Station.ID, err = readStr(); err != nil {
		return fail("station id", err)
	}
	if ds.Station.Pos.X, err = readF(); err != nil {
		return fail("station x", err)
	}
	if ds.Station.Pos.Y, err = readF(); err != nil {
		return fail("station y", err)
	}
	if ds.Station.Pos.Z, err = readF(); err != nil {
		return fail("station z", err)
	}
	if ds.Station.Date, err = readStr(); err != nil {
		return fail("station date", err)
	}
	clockByte, err := br.ReadByte()
	if err != nil {
		return fail("clock type", err)
	}
	ds.Station.Clock = ClockType(clockByte)
	seed, err := readU64()
	if err != nil {
		return fail("seed", err)
	}
	ds.Config.Seed = int64(seed)
	if ds.Config.ElevMaskDeg, err = readF(); err != nil {
		return fail("elev mask", err)
	}
	if ds.Config.NoiseSigma, err = readF(); err != nil {
		return fail("noise", err)
	}
	if ds.Config.IonoRemainder, err = readF(); err != nil {
		return fail("iono", err)
	}
	if ds.Config.TropoRemainder, err = readF(); err != nil {
		return fail("tropo", err)
	}
	mp, err := br.ReadByte()
	if err != nil {
		return fail("multipath", err)
	}
	ds.Config.Multipath = mp != 0
	if ds.Config.Step, err = readF(); err != nil {
		return fail("step", err)
	}
	count, err := readU32()
	if err != nil {
		return fail("epoch count", err)
	}
	const maxEpochs = 10_000_000 // sanity bound against corrupt headers
	if count > maxEpochs {
		return nil, fmt.Errorf("scenario: implausible epoch count %d", count)
	}
	ds.Epochs = make([]Epoch, 0, min(count, maxPreallocEpochs))
	for i := uint32(0); i < count; i++ {
		var e Epoch
		if e.T, err = readF(); err != nil {
			return fail("epoch time", err)
		}
		n, err := readU16()
		if err != nil {
			return fail("obs count", err)
		}
		e.Obs = make([]SatObs, 0, min(n, maxPreallocObs))
		for j := uint16(0); j < n; j++ {
			var o SatObs
			prn, err := readU16()
			if err != nil {
				return fail("prn", err)
			}
			o.PRN = int(prn)
			for _, f := range [...]*float64{&o.Pos.X, &o.Pos.Y, &o.Pos.Z, &o.Pseudorange, &o.Elevation, &o.CN0} {
				if *f, err = readF(); err != nil {
					return fail("obs field", err)
				}
			}
			e.Obs = append(e.Obs, o)
		}
		ds.Epochs = append(ds.Epochs, e)
	}
	return ds, nil
}

// SaveFile writes the dataset to path in the binary format.
func (d *Dataset) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("scenario: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("scenario: close %s: %w", path, cerr)
		}
	}()
	return d.WriteBinary(f)
}

// LoadFile reads a binary dataset from path and rejects one without
// epochs.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: open %s: %w", path, err)
	}
	defer f.Close()
	ds, err := ReadBinary(f)
	if err != nil {
		return nil, err
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("scenario: dataset %s has no epochs", path)
	}
	return ds, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
