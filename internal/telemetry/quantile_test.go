package telemetry

import (
	"math"
	"strings"
	"testing"
)

// quantile is the q-th quantile of h's observations as BucketQuantile
// estimates it from the histogram's buckets.
func quantile(h *Histogram, q float64) float64 {
	cum, count, _ := h.snapshot()
	return BucketQuantile(h.bounds, cum, count, q)
}

// TestHistogramQuantile drives BucketQuantile through the interpolation
// cases:
// within-bucket linear interpolation, exact bucket edges, the first
// bucket (interpolating from 0), the +Inf overflow bucket (clamped to
// the last finite bound), and degenerate inputs.
func TestHistogramQuantile(t *testing.T) {
	tests := []struct {
		name    string
		bounds  []float64
		observe []float64
		q       float64
		want    float64
	}{
		{
			name:    "median interpolates within bucket",
			bounds:  []float64{1, 2, 4},
			observe: []float64{1.5, 1.5, 1.5, 1.5}, // all 4 in (1,2]
			q:       0.5,
			// rank 2 of 4 in the (1,2] bucket: 1 + (2-1)*2/4 = 1.5
			want: 1.5,
		},
		{
			name:    "quantile at bucket edge",
			bounds:  []float64{1, 2, 4},
			observe: []float64{0.5, 1.5, 3, 3},
			q:       0.25,
			// rank 1 lands in the first bucket: 0 + 1*(1/1) = 1
			want: 1,
		},
		{
			name:    "first bucket interpolates from zero",
			bounds:  []float64{10, 20},
			observe: []float64{3, 7},
			q:       0.5,
			// rank 1 of 2, both in (0,10]: 0 + 10*(1/2) = 5
			want: 5,
		},
		{
			name:    "overflow bucket clamps to last finite bound",
			bounds:  []float64{1, 2},
			observe: []float64{100, 200, 300},
			q:       0.99,
			want:    2,
		},
		{
			name:    "q=0 clamps to lowest rank",
			bounds:  []float64{1, 2, 4},
			observe: []float64{1.5, 3.5},
			q:       0,
			// rank clamps to 1: in (1,2]: 1 + 1*(1/1) = 2
			want: 2,
		},
		{
			name:    "q=1 is the max bucket edge",
			bounds:  []float64{1, 2, 4},
			observe: []float64{0.5, 1.5, 3},
			q:       1,
			// rank 3 in (2,4]: 2 + 2*(1/1) = 4
			want: 4,
		},
		{
			name:    "q>1 clamps like q=1",
			bounds:  []float64{1, 2, 4},
			observe: []float64{0.5, 1.5, 3},
			q:       1.7,
			want:    4,
		},
		{
			name:    "uniform spread p90",
			bounds:  []float64{10, 20, 30, 40, 50},
			observe: []float64{5, 15, 25, 35, 45, 5, 15, 25, 35, 45},
			q:       0.9,
			// rank 9 of 10: bucket (40,50] holds ranks 9-10, so
			// 40 + 10*(1/2) = 45.
			want: 45,
		},
		{
			name:    "negative bounds first bucket returns its edge",
			bounds:  []float64{-5, 0, 5},
			observe: []float64{-7, -6},
			q:       0.5,
			// Both in the (-inf,-5] bucket; no lower edge → the bound.
			want: -5,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			reg := NewRegistry()
			h := reg.Histogram("q_test", "", tt.bounds)
			for _, v := range tt.observe {
				h.Observe(v)
			}
			got := quantile(h, tt.q)
			if math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Quantile(%g) = %g, want %g", tt.q, got, tt.want)
			}
		})
	}
}

func TestHistogramQuantileDegenerate(t *testing.T) {
	reg := NewRegistry()
	empty := reg.Histogram("q_empty", "", []float64{1, 2})
	if got := quantile(empty, 0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram quantile = %g, want NaN", got)
	}
}

// Quantile estimates must agree with the exact order statistic to within
// one bucket width on a dense histogram — the contract dashboards rely
// on when they alert on p99 latencies.
func TestHistogramQuantileAccuracy(t *testing.T) {
	bounds := make([]float64, 100)
	for i := range bounds {
		bounds[i] = float64(i + 1)
	}
	reg := NewRegistry()
	h := reg.Histogram("q_dense", "", bounds)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i%100) + 0.5)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		got := quantile(h, q)
		want := q * 100 // uniform on (0,100)
		if math.Abs(got-want) > 1.5 {
			t.Errorf("Quantile(%g) = %g, want %g ± 1.5", q, got, want)
		}
	}
}

// Regression: a +Inf or NaN passed as a histogram *bound* must be
// dropped at construction (the implicit overflow bucket covers +Inf),
// so the rendered le="..." labels never carry a non-finite edge other
// than the canonical le="+Inf" terminator.
func TestPrometheusNonFiniteBoundsDropped(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("edge_bounds", "", []float64{1, math.Inf(1), math.NaN(), 2})
	h.Observe(1.5)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, `le="NaN"`) {
		t.Errorf("rendered a NaN bucket bound:\n%s", out)
	}
	// Exactly one +Inf bucket: the implicit overflow terminator.
	if n := strings.Count(out, `le="+Inf"`); n != 1 {
		t.Errorf("rendered %d le=\"+Inf\" series, want exactly 1:\n%s", n, out)
	}
	if !strings.Contains(out, `edge_bounds_bucket{le="1"} 0`) ||
		!strings.Contains(out, `edge_bounds_bucket{le="2"} 1`) {
		t.Errorf("finite bounds misrendered:\n%s", out)
	}
}

// Regression: non-finite observed values must render in the exact forms
// the Prometheus text format requires — "+Inf", "-Inf" (never "Inf" or
// "inf") — in both histogram sums and gauges, and NaN sums must render
// as "NaN". A scraper that receives Go's default "%g" rendering of
// these values rejects the whole exposition.
func TestPrometheusNonFiniteValueRendering(t *testing.T) {
	if got := formatFloat(math.Inf(1)); got != "+Inf" {
		t.Errorf("formatFloat(+Inf) = %q, want \"+Inf\"", got)
	}
	if got := formatFloat(math.Inf(-1)); got != "-Inf" {
		t.Errorf("formatFloat(-Inf) = %q, want \"-Inf\"", got)
	}
	if got := formatFloat(math.NaN()); got != "NaN" {
		t.Errorf("formatFloat(NaN) = %q, want \"NaN\"", got)
	}

	reg := NewRegistry()
	h := reg.Histogram("edge_sum", "", []float64{1})
	h.Observe(math.Inf(1)) // lands in overflow bucket, sum becomes +Inf
	g := reg.Gauge("edge_gauge", "")
	g.Set(math.Inf(-1))
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "edge_sum_sum +Inf\n") {
		t.Errorf("+Inf sum misrendered:\n%s", out)
	}
	if !strings.Contains(out, "edge_sum_count 1\n") {
		t.Errorf("count must still advance for a +Inf observation:\n%s", out)
	}
	if !strings.Contains(out, `edge_sum_bucket{le="+Inf"} 1`) {
		t.Errorf("+Inf observation must land in the overflow bucket:\n%s", out)
	}
	if !strings.Contains(out, "edge_gauge -Inf\n") {
		t.Errorf("-Inf gauge misrendered:\n%s", out)
	}
}

func TestRegisterBuildInfo(t *testing.T) {
	RegisterBuildInfo(nil) // must not panic
	reg := NewRegistry()
	RegisterBuildInfo(reg)
	RegisterBuildInfo(reg) // idempotent
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, MetricBuildInfo+"{") {
		t.Fatalf("missing %s family:\n%s", MetricBuildInfo, out)
	}
	for _, label := range []string{`version="`, `goversion="`, `revision="`} {
		if !strings.Contains(out, label) {
			t.Errorf("%s missing label %s:\n%s", MetricBuildInfo, label, out)
		}
	}
	// The gauge's value is the constant 1.
	if !strings.Contains(out, "} 1\n") {
		t.Errorf("%s not a constant-1 gauge:\n%s", MetricBuildInfo, out)
	}
	start := reg.Gauge(MetricProcessStartEpoch, "")
	if start.Value() <= 0 {
		t.Errorf("%s = %g, want a positive Unix epoch", MetricProcessStartEpoch, start.Value())
	}
	before := start.Value()
	RegisterBuildInfo(reg)
	if start.Value() != before {
		t.Errorf("re-registration moved %s from %g to %g", MetricProcessStartEpoch, before, start.Value())
	}
}
