package scenario

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gpsdl/internal/geo"
)

func TestBinaryRoundTrip(t *testing.T) {
	st, err := StationByID("KYCP")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(st, DefaultConfig(44))
	ds, err := g.GenerateRange(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Station != ds.Station {
		t.Errorf("station: %+v vs %+v", back.Station, ds.Station)
	}
	if back.Config != ds.Config {
		t.Errorf("config: %+v vs %+v", back.Config, ds.Config)
	}
	if back.Len() != ds.Len() {
		t.Fatalf("epochs: %d vs %d", back.Len(), ds.Len())
	}
	for i := range ds.Epochs {
		if back.Epochs[i].T != ds.Epochs[i].T {
			t.Fatalf("epoch %d time mismatch", i)
		}
		if len(back.Epochs[i].Obs) != len(ds.Epochs[i].Obs) {
			t.Fatalf("epoch %d size mismatch", i)
		}
		for j := range ds.Epochs[i].Obs {
			if back.Epochs[i].Obs[j] != ds.Epochs[i].Obs[j] {
				t.Errorf("epoch %d obs %d mismatch:\n  %+v\n  %+v",
					i, j, back.Epochs[i].Obs[j], ds.Epochs[i].Obs[j])
			}
		}
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	st, _ := StationByID("SRZN")
	g := NewGenerator(st, DefaultConfig(44))
	ds, err := g.GenerateRange(0, 60)
	if err != nil {
		t.Fatal(err)
	}
	var jsonBuf, binBuf bytes.Buffer
	if err := ds.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteBinary(&binBuf); err != nil {
		t.Fatal(err)
	}
	ratio := float64(jsonBuf.Len()) / float64(binBuf.Len())
	t.Logf("JSON %d B, binary %d B (%.1fx smaller)", jsonBuf.Len(), binBuf.Len(), ratio)
	if ratio < 2 {
		t.Errorf("binary only %.1fx smaller than JSON", ratio)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad magic", "NOTMAGIC rest"},
		{"truncated header", "GPSDLBIN"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadBinary(strings.NewReader(tt.in)); err == nil {
				t.Error("ReadBinary succeeded on garbage")
			}
		})
	}
	// Corrupt version.
	var buf bytes.Buffer
	st, _ := StationByID("SRZN")
	g := NewGenerator(st, DefaultConfig(1))
	ds, _ := g.GenerateRange(0, 1)
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[8] = 99 // version low byte
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Error("ReadBinary accepted wrong version")
	}
	// Truncated body.
	data[8] = binaryVersion
	if _, err := ReadBinary(bytes.NewReader(data[:len(data)-5])); err == nil {
		t.Error("ReadBinary accepted truncated body")
	}
}

// TestBinaryRejectsRetiredVersions checks that version 1 and 2 files,
// which carry the retired carrier/L2/Doppler records, fail with an error
// that names the version and says how to regenerate the file.
func TestBinaryRejectsRetiredVersions(t *testing.T) {
	for _, version := range []byte{1, 2} {
		in := binaryMagic + string([]byte{version, 0}) + "rest of an old header"
		_, err := ReadBinary(strings.NewReader(in))
		if err == nil {
			t.Fatalf("version %d accepted", version)
		}
		for _, want := range []string{fmt.Sprintf("version %d", version), "gpsgen -format bin"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("version %d: error %q does not mention %q", version, err, want)
			}
		}
	}
}

// allocatedBy returns the bytes f allocates, and fails the test if f
// panics.
func allocatedBy(t *testing.T, f func()) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decoder panicked: %v", r)
			}
		}()
		f()
	}()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decoderAllocBudget bounds what a decoder may allocate for a short
// input whose header claims far more epochs than follow.
const decoderAllocBudget = 1 << 20

// TestReadBinaryTrustsNoEpochCount feeds a header that claims 10 million
// epochs and carries none: the decoder must fail with an error, not size
// its epoch slice by the claim.
func TestReadBinaryTrustsNoEpochCount(t *testing.T) {
	st, _ := StationByID("SRZN")
	ds := &Dataset{Station: st, Config: DefaultConfig(1)}
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint32(data[len(data)-4:], 10_000_000) // the epoch count ends the header
	var err error
	alloc := allocatedBy(t, func() { _, err = ReadBinary(bytes.NewReader(data)) })
	if err == nil {
		t.Error("ReadBinary accepted a file missing its epochs")
	}
	if alloc > decoderAllocBudget {
		t.Errorf("ReadBinary allocated %d B for a %d B file", alloc, len(data))
	}
}

// TestReadJSONTrustsNoEpochCount is the JSON-lines counterpart: an epoch
// count beyond any slice capacity must give an error, not a panic.
func TestReadJSONTrustsNoEpochCount(t *testing.T) {
	in := `{"station":{},"config":{},"epochs":9223372036854775807}`
	var err error
	alloc := allocatedBy(t, func() { _, err = ReadJSON(strings.NewReader(in)) })
	if err == nil {
		t.Error("ReadJSON accepted a file missing its epochs")
	}
	if alloc > decoderAllocBudget {
		t.Errorf("ReadJSON allocated %d B for a %d B file", alloc, len(in))
	}
}

// TestReadJSONIgnoresRetiredKeys checks that JSON-lines datasets written
// before the generator dropped the carrier, L2 and Doppler observables
// (keys pr2, cp, dop, vel and the config's CodeOnly) still load, with
// every surviving field intact.
func TestReadJSONIgnoresRetiredKeys(t *testing.T) {
	in := `{"station":{"id":"SRZN","pos":{"X":1,"Y":2,"Z":3},"date":"2009/08/12","clock":1},` +
		`"config":{"Seed":7,"ElevMaskDeg":7,"NoiseSigma":2,"IonoRemainder":0.3,"TropoRemainder":0.1,"Multipath":true,"Step":1,"CodeOnly":true},"epochs":1}
{"t":5,"obs":[{"prn":12,"pos":{"X":4,"Y":5,"Z":6},"pr":2.1e7,"pr2":2.1e7,"cp":2.2e7,"dop":-310.5,"vel":{"X":1,"Y":2,"Z":3},"elev":0.7,"cn0":44.5}]}
`
	ds, err := ReadJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Station.ID != "SRZN" || ds.Config.Seed != 7 || ds.Config.Step != 1 || ds.Len() != 1 {
		t.Fatalf("header: %+v %+v, %d epochs", ds.Station, ds.Config, ds.Len())
	}
	want := SatObs{PRN: 12, Pos: geo.ECEF{X: 4, Y: 5, Z: 6}, Pseudorange: 2.1e7, Elevation: 0.7, CN0: 44.5}
	if e := ds.Epochs[0]; e.T != 5 || len(e.Obs) != 1 || e.Obs[0] != want {
		t.Errorf("epoch: %+v, want one obs %+v", e, want)
	}
}

func TestBinaryFileHelpers(t *testing.T) {
	st, _ := StationByID("FAI1")
	g := NewGenerator(st, DefaultConfig(2))
	ds, err := g.GenerateRange(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ds.bin"
	if err := ds.SaveBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 {
		t.Errorf("loaded %d epochs", back.Len())
	}
	if _, err := LoadBinaryFile(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}
