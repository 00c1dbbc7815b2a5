package scenario

import (
	"bytes"
	"encoding/binary"
	"os"
	"runtime"
	"strings"
	"testing"
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
// which carry the retired carrier/L2/Doppler records, and JSON-lines
// files, the retired text format, fail with an error that names what
// the file is and says how to regenerate it.
func TestBinaryRejectsRetiredVersions(t *testing.T) {
	tests := []struct {
		in, want string
	}{
		{binaryMagic + "\x01\x00rest of an old header", "version 1"},
		{binaryMagic + "\x02\x00rest of an old header", "version 2"},
		{`{"station":{"id":"SRZN"},"config":{},"epochs":1}` + "\n", "JSON-lines"},
	}
	for _, tt := range tests {
		_, err := ReadBinary(strings.NewReader(tt.in))
		if err == nil {
			t.Fatalf("%s accepted", tt.want)
		}
		for _, want := range []string{tt.want, "gpsgen -format bin"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", tt.want, err, want)
			}
		}
	}
}

// TestBinaryFileHelpers checks what LoadFile rejects: a missing path,
// a dataset with no epochs, and a retired JSON-lines file.
// TestDatasetSaveLoadFile checks the round trip.
func TestBinaryFileHelpers(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadFile(dir + "/missing.bin"); err == nil {
		t.Error("LoadFile of missing path succeeded")
	}
	st, _ := StationByID("FAI1")
	empty := &Dataset{Station: st, Config: DefaultConfig(2)}
	emptyPath := dir + "/empty.bin"
	if err := empty.SaveFile(emptyPath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(emptyPath); err == nil || !strings.Contains(err.Error(), "no epochs") {
		t.Errorf("LoadFile of an empty dataset: err = %v, want a no-epochs error", err)
	}
	jsonPath := dir + "/old.jsonl"
	if err := os.WriteFile(jsonPath, []byte(`{"station":{"id":"FAI1"},"config":{},"epochs":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(jsonPath); err == nil || !strings.Contains(err.Error(), "gpsgen -format bin") {
		t.Errorf("LoadFile of a JSON-lines file: err = %v, want the gpsgen -format bin hint", err)
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
