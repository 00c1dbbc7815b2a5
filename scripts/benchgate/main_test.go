package main

import (
	"strings"
	"testing"
)

// canned is a pregen-solve result line as fixbench prints it, preceded
// by the env line the gate must skip.
const canned = `{"env":{"workload":"pregen-solve","seed":1}}
{"correct":true,"attempted":933888,"failed":0,"metrics":{"cpu_us_per_fix":{"value":1.86,"unit":"us"},"fix_delivered_pct":{"value":100,"unit":"%"},"fix_latency_p50_ms":{"value":0.0303,"unit":"ms"},"fix_latency_p99_ms":{"value":0.0714,"unit":"ms"},"fixes_per_s":{"value":532396,"unit":"1/s"},"horiz_err_p50_m":{"value":2.096,"unit":"m"},"horiz_err_p95_m":{"value":4.823,"unit":"m"},"retained_heap_mb":{"value":12.18,"unit":"MB"},"setup_s":{"value":0.0872,"unit":"s"}}}
`

// runs parses n copies of the canned result and applies edit to run i.
func runs(t *testing.T, n int, edit func(i int, r *result)) []result {
	t.Helper()
	out := make([]result, n)
	for i := range out {
		r, err := parseResult([]byte(canned))
		if err != nil {
			t.Fatal(err)
		}
		if edit != nil {
			edit(i, &r)
		}
		out[i] = r
	}
	return out
}

// scale multiplies one metric of a run.
func scale(r *result, metric string, f float64) {
	m := r.Metrics[metric]
	m.Value *= f
	r.Metrics[metric] = m
}

func TestJudge(t *testing.T) {
	spec, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	bound := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bound[m.Name] = m.Bound
	}
	for _, name := range []string{"cpu_us_per_fix", "horiz_err_p95_m", "fixes_per_s"} {
		if bound[name] == 0 {
			t.Fatalf("BENCHMARK.json has no bound for %s", name)
		}
	}
	tests := []struct {
		name   string
		change func(i int, r *result)
		pass   bool
	}{
		{"identical sides", nil, true},
		{"cpu_us_per_fix 1.5x its bound worse", func(_ int, r *result) {
			scale(r, "cpu_us_per_fix", 1+1.5*bound["cpu_us_per_fix"])
		}, false},
		{"cpu_us_per_fix half its bound worse", func(_ int, r *result) {
			scale(r, "cpu_us_per_fix", 1+0.5*bound["cpu_us_per_fix"])
		}, true},
		{"fixes_per_s better", func(_ int, r *result) { scale(r, "fixes_per_s", 2) }, true},
		{"fixes_per_s 1.5x its bound worse", func(_ int, r *result) {
			scale(r, "fixes_per_s", 1-1.5*bound["fixes_per_s"])
		}, false},
		{"horiz_err_p95_m beyond its bound", func(_ int, r *result) {
			scale(r, "horiz_err_p95_m", 1+1.5*bound["horiz_err_p95_m"])
		}, false},
		{"one slow outlier, median holds", func(i int, r *result) {
			if i == 0 {
				scale(r, "cpu_us_per_fix", 3)
			}
		}, true},
		{"correct false", func(i int, r *result) { r.Correct = i != 2 }, false},
		{"larger failed share", func(i int, r *result) {
			if i == 0 {
				r.Failed = 1
			}
		}, false},
		{"metric missing", func(_ int, r *result) { delete(r.Metrics, "setup_s") }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			report, pass := judge(spec.EndToEnd, runs(t, pairs, nil), runs(t, pairs, tt.change))
			if pass != tt.pass {
				t.Errorf("pass = %v, want %v\n%s", pass, tt.pass, strings.Join(report, "\n"))
			}
			if fails := strings.Contains(strings.Join(report, "\n"), "FAIL"); fails == pass {
				t.Errorf("report disagrees with verdict %v:\n%s", pass, strings.Join(report, "\n"))
			}
		})
	}
}

func TestParseResultRejectsNonResult(t *testing.T) {
	for _, out := range []string{"", "build failed\n", `{"env":{}}`} {
		if _, err := parseResult([]byte(out)); err == nil {
			t.Errorf("parseResult(%q) succeeded, want error", out)
		}
	}
}
