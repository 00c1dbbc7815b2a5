package scenario

import (
	"bytes"
	"math"
	"testing"

	"gpsdl/internal/geo"
)

// FuzzReadDataset drives both dataset decoders, which read operator-
// supplied files (gpsserve -dataset, gpsrun -dataset), with arbitrary
// bytes. Neither may panic, and any dataset either accepts must survive
// a WriteBinary/ReadBinary round trip bit for bit. A JSON-decoded
// dataset may instead hold a value the binary format cannot store (a PRN
// beyond uint16, say), which WriteBinary must then reject with an error.
func FuzzReadDataset(f *testing.F) {
	st, err := StationByID("KYCP")
	if err != nil {
		f.Fatal(err)
	}
	ds, err := NewGenerator(st, DefaultConfig(9)).GenerateRange(0, 2)
	if err != nil {
		f.Fatal(err)
	}
	var bin, js bytes.Buffer
	if err := ds.WriteBinary(&bin); err != nil {
		f.Fatal(err)
	}
	if err := ds.WriteJSON(&js); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes())
	f.Add(bin.Bytes()[:bin.Len()-3])
	f.Add(js.Bytes())
	f.Add([]byte(`{"station":{},"config":{},"epochs":9223372036854775807}`))
	f.Add([]byte(`{"station":{},"config":{},"epochs":1}` + "\n" + `{"t":1,"obs":[{"prn":70000}]}`))
	f.Add([]byte(binaryMagic + "\x02\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if ds, err := ReadBinary(bytes.NewReader(data)); err == nil {
			binaryRoundTrip(t, ds, false)
		}
		if ds, err := ReadJSON(bytes.NewReader(data)); err == nil {
			binaryRoundTrip(t, ds, true)
		}
	})
}

// binaryRoundTrip checks that ds re-encodes and decodes to an identical
// dataset. mayReject allows WriteBinary to refuse ds with an error.
func binaryRoundTrip(t *testing.T, ds *Dataset, mayReject bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		if mayReject {
			return
		}
		t.Fatalf("decoded dataset does not re-encode: %v", err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("re-encoded dataset does not decode: %v", err)
	}
	if !sameDataset(ds, back) {
		t.Fatalf("round trip changed the dataset:\n%+v\n%+v", ds, back)
	}
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
