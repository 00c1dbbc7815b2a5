package main

import (
	"os"
	"path/filepath"
	"testing"

	"gpsdl/internal/orbit"
	"gpsdl/internal/rinex"
	"gpsdl/internal/scenario"
)

func TestRunTable(t *testing.T) {
	if err := run([]string{"-table"}); err != nil {
		t.Fatalf("run(-table): %v", err)
	}
}

func TestRunGeneratesBinaryByDefault(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-station", "YYR1", "-duration", "30", "-out", dir})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := scenario.LoadFile(filepath.Join(dir, "yyr1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 30 {
		t.Errorf("dataset has %d epochs, want 30", ds.Len())
	}
	if ds.Station.ID != "YYR1" {
		t.Errorf("station = %q", ds.Station.ID)
	}
}

func TestRunGeneratesRINEX(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-station", "SRZN", "-duration", "10", "-format", "rinex", "-out", dir})
	if err != nil {
		t.Fatal(err)
	}
	obsF, err := os.Open(filepath.Join(dir, "srzn.09o"))
	if err != nil {
		t.Fatal(err)
	}
	defer obsF.Close()
	obs, err := rinex.ReadObs(obsF)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.Epochs) != 10 {
		t.Errorf("obs has %d epochs, want 10", len(obs.Epochs))
	}
	navF, err := os.Open(filepath.Join(dir, "srzn.09n"))
	if err != nil {
		t.Fatal(err)
	}
	defer navF.Close()
	sats, err := rinex.ReadNav(navF)
	if err != nil {
		t.Fatal(err)
	}
	if len(sats) != 31 {
		t.Errorf("nav has %d satellites, want 31", len(sats))
	}
}

func TestRunAllStations(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-station", "all", "-duration", "5", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"srzn", "yyr1", "fai1", "kycp"} {
		if _, err := os.Stat(filepath.Join(dir, name+".bin")); err != nil {
			t.Errorf("missing %s.bin: %v", name, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"unknown station", []string{"-station", "NOPE", "-duration", "1"}},
		{"bad format", []string{"-station", "YYR1", "-duration", "1", "-format", "xml"}},
		{"retired json format", []string{"-station", "YYR1", "-duration", "1", "-format", "json"}},
		{"bad flag", []string{"-bogus"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Error("run succeeded, want error")
			}
		})
	}
}

func TestRunWritesAlmanac(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-station", "YYR1", "-duration", "2", "-out", dir, "-almanac"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "constellation.alm"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sats, err := orbit.ReadYuma(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(sats) != 31 {
		t.Errorf("almanac has %d satellites", len(sats))
	}
}

func TestRunGeneratesBinary(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-station", "KYCP", "-duration", "15", "-format", "bin", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	ds, err := scenario.LoadFile(filepath.Join(dir, "kycp.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 15 {
		t.Errorf("binary dataset has %d epochs", ds.Len())
	}
}

// TestHelpReturnsNil: -h prints the usage and is not an error, so the
// command exits 0.
func TestHelpReturnsNil(t *testing.T) {
	if err := run([]string{"-h"}); err != nil {
		t.Fatalf("-h: %v", err)
	}
}
