package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpsdl/internal/eval"
	"gpsdl/internal/scenario"
)

// Short end-to-end runs of every figure and ablation path: they must
// complete without error on a small window. Output goes to stdout (the
// test harness captures it).
func TestRunFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("gpsbench end-to-end runs take seconds")
	}
	for _, fig := range []string{"table", "5.1", "5.2"} {
		t.Run(fig, func(t *testing.T) {
			if err := run([]string{"-fig", fig, "-duration", "900", "-step", "10"}); err != nil {
				t.Errorf("run(-fig %s): %v", fig, err)
			}
		})
	}
}

func TestRunAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("gpsbench end-to-end runs take seconds")
	}
	for _, abl := range []string{"base", "clock", "gls", "direct", "dgps", "noise", "selection"} {
		t.Run(abl, func(t *testing.T) {
			if err := run([]string{"-ablation", abl, "-duration", "900", "-step", "10"}); err != nil {
				t.Errorf("run(-ablation %s): %v", abl, err)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"unknown fig", []string{"-fig", "9.9"}},
		{"unknown ablation", []string{"-ablation", "nothing"}},
		{"bad flag", []string{"-zap"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Error("run succeeded, want error")
			}
		})
	}
}

func TestRunWritesCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end")
	}
	dir := t.TempDir()
	if err := run([]string{"-fig", "5.1", "-duration", "600", "-step", "20", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"srzn", "yyr1", "fai1", "kycp"} {
		data, err := os.ReadFile(filepath.Join(dir, "sweep_"+id+".csv"))
		if err != nil {
			t.Errorf("missing CSV for %s: %v", id, err)
			continue
		}
		if !strings.HasPrefix(string(data), "sats,epochs") {
			t.Errorf("%s CSV header wrong", id)
		}
	}
}

func TestRunPlotFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end")
	}
	if err := run([]string{"-fig", "5.2", "-duration", "600", "-step", "20", "-plot"}); err != nil {
		t.Fatal(err)
	}
}

// A row with no epoch left after calibration keeps its census columns
// but has no error, τ, η or θ to report: those cells must be empty, not
// the η = 100 / θ = 0 that AccuracyRate(0, 0) and TimeRate(0, 0) return.
func TestWriteCSVLeavesEmptyRowUnmeasured(t *testing.T) {
	dir := t.TempDir()
	arm := eval.ArmStats{MeanError: 2, MedianError: 1.5, P95Error: 4, MeanNanos: 900, Fixes: 3}
	res := &eval.Result{
		Station: scenario.Station{ID: "TEST"},
		Rows: []eval.Row{
			{M: 9, Census: eval.Census{Epochs: 3, SkippedDOP: 1}, NR: arm, DLO: arm, DLG: arm},
			{M: 10, Census: eval.Census{SkippedSats: 7}},
		},
	}
	if err := writeCSV(dir, res); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "sweep_test.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d CSV records, want header + 2 rows", len(recs))
	}
	header, full, empty := recs[0], recs[1], recs[2]
	if got, want := strings.Join(empty[:5], ","), "10,0,0,7,0.000"; got != want {
		t.Errorf("empty row census = %s, want %s", got, want)
	}
	for i := 5; i < len(header); i++ {
		if empty[i] != "" {
			t.Errorf("empty row %s = %q, want an empty cell", header[i], empty[i])
		}
		if full[i] == "" {
			t.Errorf("measured row %s is empty", header[i])
		}
	}
	if got := full[len(header)-4]; got != "100.000" {
		t.Errorf("measured row eta_dlo_pct = %s, want 100.000 (DLO error equals NR's)", got)
	}
}

// decodeTwoIdenticalRuns runs a benchmark twice, each writing its JSON
// record to a fresh path, requires the two records to be byte-identical
// (no benchmark record holds a timing) and decodes the record into v.
func decodeTwoIdenticalRuns(t *testing.T, run func(jsonPath string) error, v any) {
	t.Helper()
	dir := t.TempDir()
	var runs [2][]byte
	for i := range runs {
		path := filepath.Join(dir, fmt.Sprintf("run%d.json", i))
		if err := run(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = data
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatalf("two runs wrote different JSON:\n%s\n%s", runs[0], runs[1])
	}
	if err := json.Unmarshal(runs[0], v); err != nil {
		t.Fatal(err)
	}
}

// TestHelpReturnsNil: -h prints the usage and is not an error, so the
// command exits 0.
func TestHelpReturnsNil(t *testing.T) {
	if err := run([]string{"-h"}); err != nil {
		t.Fatalf("-h: %v", err)
	}
}
