package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gpsdl/internal/engine"
	"gpsdl/internal/scenario"
)

func writeDataset(t *testing.T) string {
	t.Helper()
	st, err := scenario.StationByID("KYCP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenario.DefaultConfig(3)
	cfg.Step = 5
	g := scenario.NewGenerator(st, cfg)
	ds, err := g.GenerateRange(0, 1200)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "kycp.bin")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllSolvers(t *testing.T) {
	path := writeDataset(t)
	for _, solver := range []string{"nr", "dlo", "dlg", "bancroft", "trisat"} {
		t.Run(solver, func(t *testing.T) {
			if err := run([]string{"-dataset", path, "-solver", solver, "-sats", "6"}, io.Discard); err != nil {
				t.Errorf("run(%s): %v", solver, err)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	path := writeDataset(t)
	jsonl := filepath.Join(t.TempDir(), "kycp.jsonl")
	if err := os.WriteFile(jsonl, []byte(`{"station":{"id":"KYCP"},"config":{},"epochs":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"missing dataset flag", nil, "-dataset is required"},
		{"unknown solver", []string{"-dataset", path, "-solver", "magic"}, "unknown solver"},
		{"missing file", []string{"-dataset", path + ".nope"}, "no such file"},
		{"json-lines dataset", []string{"-dataset", jsonl}, "gpsgen -format bin"},
		{"nmea from trisat", []string{"-dataset", path, "-solver", "trisat", "-nmea", "3"}, "unknown solver"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := run(tt.args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("err = %v, want one mentioning %q", err, tt.want)
			}
		})
	}
}

// TestRunNMEAMatchesEngine checks that -nmea N prints, byte for byte,
// the GGA/RMC a one-session engine emits over the first N epochs of the
// same dataset, and that two runs print identical output. N = 100 runs
// past DLG's 60-fix calibration, where the engine stops falling back to
// NR, so a run with the wrong solver fails too.
func TestRunNMEAMatchesEngine(t *testing.T) {
	path := writeDataset(t)
	ds, err := scenario.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{3, 100} {
		args := []string{"-dataset", path, "-solver", "dlg", "-sats", "6", "-nmea", strconv.Itoa(n)}
		var out, again bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		if err := run(args, &again); err != nil {
			t.Fatal(err)
		}
		if out.String() != again.String() {
			t.Errorf("-nmea %d: two runs differ:\n%s\n---\n%s", n, out.String(), again.String())
		}

		var want []string
		eng, err := engine.New(engine.Config{
			Receivers: 1, Workers: 1, Solver: "dlg", Step: ds.Config.Step,
			Stations: []scenario.Station{ds.Station},
			Sink: func(e engine.FixEvent) {
				if e.Err == nil {
					want = append(want, string(e.GGA), string(e.RMC))
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.Preload(ds.Epochs)
		if err := eng.RunRange(context.Background(), 0, n); err != nil {
			t.Fatal(err)
		}
		if len(want) != 2*n {
			t.Fatalf("engine emitted %d sentences over %d epochs, want %d", len(want), n, 2*n)
		}
		lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
		got := lines[len(lines)-len(want):]
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("-nmea %d: sentence %d:\n got %q\nwant %q", n, i, got[i], want[i])
			}
		}
		if head := lines[len(lines)-len(want)-1]; !strings.HasPrefix(head, "  fixes/failures") {
			t.Errorf("-nmea %d: line before the sentences is %q, want the fixes/failures line", n, head)
		}
	}
}

func TestRunLoadsBinaryDataset(t *testing.T) {
	st, err := scenario.StationByID("SRZN")
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenario.DefaultConfig(3)
	cfg.Step = 10
	g := scenario.NewGenerator(st, cfg)
	ds, err := g.GenerateRange(0, 900)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "srzn.bin")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-dataset", path, "-solver", "nr", "-sats", "6"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestHelpReturnsNil: -h prints the usage and is not an error, so the
// command exits 0.
func TestHelpReturnsNil(t *testing.T) {
	if err := run([]string{"-h"}, io.Discard); err != nil {
		t.Fatalf("-h: %v", err)
	}
}
