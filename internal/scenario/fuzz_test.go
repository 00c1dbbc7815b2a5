package scenario

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"gpsdl/internal/geo"
)

// FuzzReadDataset drives the dataset decoder, which reads operator-
// supplied files (gpsserve -dataset, gpsrun -dataset), with arbitrary
// bytes. It may not panic, and any dataset it accepts must survive a
// WriteBinary/ReadBinary round trip bit for bit.
func FuzzReadDataset(f *testing.F) {
	st, err := StationByID("KYCP")
	if err != nil {
		f.Fatal(err)
	}
	ds, err := NewGenerator(st, DefaultConfig(9)).GenerateRange(0, 2)
	if err != nil {
		f.Fatal(err)
	}
	var bin, header bytes.Buffer
	if err := ds.WriteBinary(&bin); err != nil {
		f.Fatal(err)
	}
	if err := (&Dataset{Station: st, Config: ds.Config}).WriteBinary(&header); err != nil {
		f.Fatal(err)
	}
	withCount := func(n uint32, tail ...byte) []byte {
		b := bytes.Clone(header.Bytes())
		binary.LittleEndian.PutUint32(b[len(b)-4:], n) // the epoch count ends the header
		return append(b, tail...)
	}
	f.Add(bin.Bytes())
	f.Add(bin.Bytes()[:bin.Len()-3])
	f.Add(withCount(10_000_000))
	f.Add(withCount(1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0xff, 0xff)) // t = 1, 65535 observations claimed
	f.Add([]byte(binaryMagic + "\x02\x00"))
	f.Add([]byte(`{"station":{},"config":{},"epochs":1}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := ds.WriteBinary(&buf); err != nil {
			t.Fatalf("decoded dataset does not re-encode: %v", err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-encoded dataset does not decode: %v", err)
		}
		if !sameDataset(ds, back) {
			t.Fatalf("round trip changed the dataset:\n%+v\n%+v", ds, back)
		}
	})
}

// sameDataset reports whether a and b are identical, comparing floats by
// their bits so that NaN equals NaN and 0 differs from -0.
func sameDataset(a, b *Dataset) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	samePos := func(p, q geo.ECEF) bool { return same(p.X, q.X) && same(p.Y, q.Y) && same(p.Z, q.Z) }
	sa, sb := a.Station, b.Station
	if sa.ID != sb.ID || sa.Date != sb.Date || sa.Clock != sb.Clock ||
		!samePos(sa.Pos, sb.Pos) {
		return false
	}
	ca, cb := a.Config, b.Config
	if ca.Seed != cb.Seed || ca.Multipath != cb.Multipath || !same(ca.ElevMaskDeg, cb.ElevMaskDeg) ||
		!same(ca.NoiseSigma, cb.NoiseSigma) || !same(ca.IonoRemainder, cb.IonoRemainder) ||
		!same(ca.TropoRemainder, cb.TropoRemainder) || !same(ca.Step, cb.Step) {
		return false
	}
	if len(a.Epochs) != len(b.Epochs) {
		return false
	}
	for i := range a.Epochs {
		ea, eb := &a.Epochs[i], &b.Epochs[i]
		if !same(ea.T, eb.T) || len(ea.Obs) != len(eb.Obs) {
			return false
		}
		for j := range ea.Obs {
			oa, ob := &ea.Obs[j], &eb.Obs[j]
			if oa.PRN != ob.PRN || !same(oa.Pseudorange, ob.Pseudorange) ||
				!same(oa.Elevation, ob.Elevation) || !same(oa.CN0, ob.CN0) ||
				!samePos(oa.Pos, ob.Pos) {
				return false
			}
		}
	}
	return true
}
