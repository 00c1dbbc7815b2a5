package main

import (
	"os"
	"path/filepath"
	"testing"

	"gpsdl/internal/orbit"
	"gpsdl/internal/rinex"
	"gpsdl/internal/scenario"
)

func writeRinexPair(t *testing.T) (obsPath, navPath string) {
	t.Helper()
	st, err := scenario.StationByID("FAI1")
	if err != nil {
		t.Fatal(err)
	}
	g := scenario.NewGenerator(st, scenario.DefaultConfig(4))
	ds, err := g.GenerateRange(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	obsPath = filepath.Join(dir, "fai1.09o")
	obsF, err := os.Create(obsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer obsF.Close()
	if err := rinex.WriteObs(obsF, ds); err != nil {
		t.Fatal(err)
	}
	navPath = filepath.Join(dir, "fai1.09n")
	navF, err := os.Create(navPath)
	if err != nil {
		t.Fatal(err)
	}
	defer navF.Close()
	if err := rinex.WriteNav(navF, orbit.DefaultConstellation().Satellites()); err != nil {
		t.Fatal(err)
	}
	return obsPath, navPath
}

func TestRunDumpsBoth(t *testing.T) {
	obsPath, navPath := writeRinexPair(t)
	if err := run([]string{"-obs", obsPath}); err != nil {
		t.Errorf("dump obs: %v", err)
	}
	if err := run([]string{"-nav", navPath}); err != nil {
		t.Errorf("dump nav: %v", err)
	}
	if err := run([]string{"-obs", obsPath, "-nav", navPath}); err != nil {
		t.Errorf("dump both: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("run with no flags succeeded")
	}
	if err := run([]string{"-obs", "/does/not/exist"}); err == nil {
		t.Error("run with missing file succeeded")
	}
	// A nav file fed as obs must fail parsing (no valid epoch lines
	// after an END OF HEADER-less scan or garbage epochs).
	_, navPath := writeRinexPair(t)
	if err := run([]string{"-obs", navPath}); err == nil {
		t.Error("nav file parsed as obs")
	}
}

// TestHelpReturnsNil: -h prints the usage and is not an error, so the
// command exits 0.
func TestHelpReturnsNil(t *testing.T) {
	if err := run([]string{"-h"}); err != nil {
		t.Fatalf("-h: %v", err)
	}
}
