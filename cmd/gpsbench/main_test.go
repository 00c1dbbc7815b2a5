package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
