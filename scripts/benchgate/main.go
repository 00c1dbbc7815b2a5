// Command benchgate is the throughput half of `make bench-gate`. It runs
// the fix-pipeline benchmark (fixbench/run.sh) on a base checkout and on
// the working tree, and fails when the change is worse than
// BENCHMARK.json allows. Run it from the repository root:
//
//	go run ./scripts/benchgate .bench_build/gate/base
//
// Every workload BENCHMARK.json declares gets five pairs of untraced
// 3-second runs, one seed per pair (1–5). The side that runs first
// alternates from pair to pair. The verdict (judge) is the benchmark
// pipeline's rule: for every end-to-end metric the change's median may
// be worse than the base's by at most the metric's bound, in its better
// direction; every run must exit 0 and print "correct": true; and the
// change may not fail a larger share of operations than the base.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

const (
	pairs      = 5
	runSeconds = 3
)

// metricSpec is one BENCHMARK.json end-to-end metric.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the gate reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// result is the last line a fixbench run prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted float64 `json:"attempted"`
	Failed    float64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate BASE-CHECKOUT")
		os.Exit(2)
	}
	pass, err := gate(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	if !pass {
		os.Exit(1)
	}
}

// loadSpec reads the workloads and end-to-end bounds the gate applies.
func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 {
		return spec, fmt.Errorf("%s declares no workloads or no end-to-end metrics", path)
	}
	return spec, nil
}

// gate runs every workload's pairs, base checkout against the working
// tree, and prints each workload's verdict. It returns an error when a
// run fails, so that no verdict is possible.
func gate(baseDir string) (bool, error) {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	dirs := [2]string{baseDir, "."}
	pass := true
	for _, w := range spec.Workloads {
		var runs [2][]result // base, change
		for seed := 1; seed <= pairs; seed++ {
			order := [2]int{0, 1}
			if seed%2 == 0 {
				order = [2]int{1, 0}
			}
			for _, side := range order {
				r, err := runOnce(dirs[side], w.Name, seed)
				if err != nil {
					return false, err
				}
				runs[side] = append(runs[side], r)
			}
		}
		report, ok := judge(spec.EndToEnd, runs[0], runs[1])
		verdict := "ok"
		if !ok {
			verdict = "FAIL"
			pass = false
		}
		fmt.Printf("%s: %d pairs of %d s runs, medians base -> change: %s\n", w.Name, pairs, runSeconds, verdict)
		for _, line := range report {
			fmt.Println("  " + line)
		}
	}
	return pass, nil
}

// runOnce runs one untraced fixbench run from the checkout at dir.
func runOnce(dir, workload string, seed int) (result, error) {
	cmd := exec.Command("bash", "fixbench/run.sh", "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(runSeconds), "--trace", "0")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	what := fmt.Sprintf("%s seed %d in %s", workload, seed, dir)
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s: %v\n%s%s", what, err, stdout.Bytes(), stderr.Bytes())
	}
	r, err := parseResult(stdout.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", what, err)
	}
	return r, nil
}

// parseResult decodes the last non-empty line of a run's output.
func parseResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil || r.Metrics == nil {
		return r, fmt.Errorf("last output line is not a result record: %q", lines[len(lines)-1])
	}
	return r, nil
}

// judge compares one workload's base and change runs. It returns one
// line per check and whether every check held.
func judge(metrics []metricSpec, base, change []result) ([]string, bool) {
	var report []string
	pass := true
	fail := func(format string, args ...any) {
		report = append(report, "FAIL "+fmt.Sprintf(format, args...))
		pass = false
	}
	for i, r := range base {
		if !r.Correct {
			fail("base run %d printed \"correct\": false", i+1)
		}
	}
	for i, r := range change {
		if !r.Correct {
			fail("change run %d printed \"correct\": false", i+1)
		}
	}
	if b, c := failedShare(base), failedShare(change); c > b {
		fail("failed share %.3g%% > base %.3g%%", 100*c, 100*b)
	}
	for _, m := range metrics {
		c, ok := median(change, m.Name)
		if !ok {
			fail("%s missing from the change's runs", m.Name)
			continue
		}
		b, ok := median(base, m.Name)
		if !ok {
			report = append(report, fmt.Sprintf("     %-20s change %10.4g %-3s (not in the base's runs)", m.Name, c, m.Unit))
			continue
		}
		var limit float64
		var worse bool
		switch m.Better {
		case "lower":
			limit = b * (1 + m.Bound)
			worse = c > limit
		case "higher":
			limit = b * (1 - m.Bound)
			worse = c < limit
		default:
			fail("%s: unknown direction %q", m.Name, m.Better)
			continue
		}
		line := fmt.Sprintf("%-20s base %10.4g  change %10.4g %-3s  limit %10.4g (%s is better)",
			m.Name, b, c, m.Unit, limit, m.Better)
		if worse {
			fail("%s", line)
		} else {
			report = append(report, "ok   "+line)
		}
	}
	return report, pass
}

// median returns the median of metric over runs; ok is false when any
// run lacks it.
func median(runs []result, metric string) (float64, bool) {
	if len(runs) == 0 {
		return 0, false
	}
	v := make([]float64, 0, len(runs))
	for _, r := range runs {
		m, ok := r.Metrics[metric]
		if !ok {
			return 0, false
		}
		v = append(v, m.Value)
	}
	slices.Sort(v)
	n := len(v)
	return (v[(n-1)/2] + v[n/2]) / 2, true
}

// failedShare is the pooled share of failed operations over runs.
func failedShare(runs []result) float64 {
	var attempted, failed float64
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return failed / attempted
}
