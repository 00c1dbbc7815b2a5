package main

import (
	"path/filepath"
	"testing"

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
	path := filepath.Join(t.TempDir(), "kycp.jsonl")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllSolvers(t *testing.T) {
	path := writeDataset(t)
	for _, solver := range []string{"nr", "dlo", "dlg", "bancroft", "trisat"} {
		t.Run(solver, func(t *testing.T) {
			if err := run([]string{"-dataset", path, "-solver", solver, "-sats", "6"}); err != nil {
				t.Errorf("run(%s): %v", solver, err)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	path := writeDataset(t)
	tests := []struct {
		name string
		args []string
	}{
		{"missing dataset flag", nil},
		{"unknown solver", []string{"-dataset", path, "-solver", "magic"}},
		{"missing file", []string{"-dataset", path + ".nope"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Error("run succeeded, want error")
			}
		})
	}
}

func TestRunEmitsNMEA(t *testing.T) {
	path := writeDataset(t)
	if err := run([]string{"-dataset", path, "-solver", "dlg", "-sats", "6", "-nmea", "3"}); err != nil {
		t.Fatalf("run with -nmea: %v", err)
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
	if err := ds.SaveBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-dataset", path, "-solver", "nr", "-sats", "6"}); err != nil {
		t.Fatal(err)
	}
}
