package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gpsdl/internal/fault"
)

// Every scenario's fault spec must parse under the real grammar for any
// plausible epoch count.
func TestQualityScenarioSpecsParse(t *testing.T) {
	for _, sc := range qualitySweepScenarios {
		for _, n := range []int{60, 300, 600, 86400} {
			spec := sc.spec(n)
			if spec == "" {
				continue
			}
			if _, err := fault.ParseSpec(spec); err != nil {
				t.Errorf("scenario %s epochs=%d: %v", sc.name, n, err)
			}
		}
	}
}

// End-to-end: a short -quality run must produce a parsable JSON report
// covering every scenario × solver cell, with a page verdict somewhere
// in the degraded scenarios.
func TestRunQualitySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end")
	}
	path := filepath.Join(t.TempDir(), "q.json")
	err := runQualityBench(qualityBenchConfig{
		receivers: 2, epochs: 120, solvers: []string{"dlg"}, seed: 2009, jsonPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report qualityBenchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.Benchmark != "quality" {
		t.Errorf("benchmark = %q", report.Benchmark)
	}
	if len(report.Series) != len(qualitySweepScenarios) {
		t.Fatalf("%d series points, want %d", len(report.Series), len(qualitySweepScenarios))
	}
	for _, pt := range report.Series {
		if pt.Digest.Count == 0 {
			t.Errorf("scenario %s: empty digest", pt.Scenario)
		}
		if len(pt.Objectives) == 0 {
			t.Errorf("scenario %s: no SLO statuses", pt.Scenario)
		}
	}
}
