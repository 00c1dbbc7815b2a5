package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("Value() = %d, want 42", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	var g Gauge
	g.Set(3.5)
	g.Add(-1.5)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 2 {
		t.Errorf("Value() = %v, want 2", got)
	}
}

func TestNilInstrumentsNoop(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	g.Inc()
	g.Dec()
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Sum() != 0 {
		t.Error("nil instruments reported non-zero values")
	}
}

func TestNilRegistryConstructors(t *testing.T) {
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Error("nil registry returned non-nil instruments")
	}
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry exposition = %q, %v", buf.String(), err)
	}
}

func TestHistogramBelowFirstBucket(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	h.Observe(-100)
	h.Observe(0)
	h.Observe(0.5)
	cum, count, sum := h.snapshot()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if cum[0] != 3 {
		t.Errorf("first bucket cumulative = %d, want 3 (below-range values must land in the first bucket)", cum[0])
	}
	if sum != -99.5 {
		t.Errorf("sum = %v, want -99.5", sum)
	}
}

func TestHistogramAboveLastBucket(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	h.Observe(4.0001)
	h.Observe(math.Inf(1))
	h.Observe(1e300)
	cum, count, _ := h.snapshot()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if cum[len(cum)-2] != 0 {
		t.Errorf("last finite bucket = %d, want 0", cum[len(cum)-2])
	}
	if cum[len(cum)-1] != 3 {
		t.Errorf("+Inf cumulative = %d, want 3", cum[len(cum)-1])
	}
}

func TestHistogramBoundaryInclusive(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1) // exactly on a bound: le="1" is inclusive
	cum, _, _ := h.snapshot()
	if cum[0] != 1 {
		t.Errorf("bucket le=1 cumulative = %d, want 1", cum[0])
	}
}

func TestHistogramNaNDropped(t *testing.T) {
	h := newHistogram([]float64{1})
	h.Observe(math.NaN())
	if h.count.Load() != 0 {
		t.Errorf("NaN was counted: count = %d", h.count.Load())
	}
}

func TestHistogramUnsortedDuplicateBounds(t *testing.T) {
	h := newHistogram([]float64{4, 1, 2, 2, math.NaN(), math.Inf(1)})
	if got, want := len(h.bounds), 3; got != want {
		t.Fatalf("bounds = %v, want 3 finite deduplicated bounds", h.bounds)
	}
	for i := 1; i < len(h.bounds); i++ {
		if h.bounds[i-1] >= h.bounds[i] {
			t.Fatalf("bounds not strictly sorted: %v", h.bounds)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(ExponentialBuckets(1, 2, 8))
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g*per+i) / 1000)
			}
		}(g)
	}
	wg.Wait()
	if got, want := h.count.Load(), uint64(goroutines*per); got != want {
		t.Errorf("count = %d, want %d", got, want)
	}
	cum, count, _ := h.snapshot()
	if cum[len(cum)-1] != count {
		t.Errorf("+Inf cumulative %d != count %d", cum[len(cum)-1], count)
	}
}

func TestConcurrentCounterGauge(t *testing.T) {
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Errorf("counter = %d, want 16000", c.Value())
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %v, want 0", g.Value())
	}
}

func TestBucketHelpers(t *testing.T) {
	if got := ExponentialBuckets(1, 2, 4); len(got) != 4 || got[3] != 8 {
		t.Errorf("ExponentialBuckets = %v", got)
	}
	if ExponentialBuckets(0, 2, 3) != nil || ExponentialBuckets(1, 1, 3) != nil {
		t.Error("invalid bucket parameters not rejected")
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", "hits", Label{"path", "/x"})
	b := r.Counter("hits_total", "hits", Label{"path", "/x"})
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	other := r.Counter("hits_total", "hits", Label{"path", "/y"})
	if other == a {
		t.Error("different label values shared an instrument")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestRegistryConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("shared_total", "h").Inc()
				r.Histogram("lat_seconds", "h", []float64{1, 2}).Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total", "h").Value(); got != 4000 {
		t.Errorf("shared counter = %d, want 4000", got)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "total requests", Label{"code", "200"}).Add(3)
	r.Counter("app_requests_total", "total requests", Label{"code", "500"}).Inc()
	r.Gauge("app_clients", "connected clients").Set(2)
	h := r.Histogram("app_latency_seconds", "request latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP app_clients connected clients",
		"# TYPE app_clients gauge",
		"app_clients 2",
		"# TYPE app_latency_seconds histogram",
		`app_latency_seconds_bucket{le="0.1"} 1`,
		`app_latency_seconds_bucket{le="1"} 2`,
		`app_latency_seconds_bucket{le="+Inf"} 3`,
		"app_latency_seconds_sum 5.55",
		"app_latency_seconds_count 3",
		"# TYPE app_requests_total counter",
		`app_requests_total{code="200"} 3`,
		`app_requests_total{code="500"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Families must come out name-sorted.
	if strings.Index(out, "app_clients") > strings.Index(out, "app_requests_total") {
		t.Error("families not sorted by name")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", Label{"v", "a\"b\\c\nd"}).Inc()
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `esc_total{v="a\"b\\c\nd"} 1`; !strings.Contains(buf.String(), want) {
		t.Errorf("escaped output missing %q in %q", want, buf.String())
	}
}

// BenchmarkHistogramObserve pins the cost of the binary-search bucket
// lookup on the default 12-bound solve histogram: widening the bucket
// set must not regress the per-solve hot path. Values rotate across the
// full range so every branch of the search is exercised.
func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "", ExponentialBuckets(1e-7, 4, 12))
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = 1e-8 * float64(uint64(1)<<(uint(i)%28))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(vals[i%len(vals)])
	}
}

// BenchmarkHistogramObserveWide doubles the bound count to show the
// lookup scales logarithmically, not linearly.
func BenchmarkHistogramObserveWide(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_wide_seconds", "", ExponentialBuckets(1e-9, 2, 24))
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = 1e-8 * float64(uint64(1)<<(uint(i)%28))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(vals[i%len(vals)])
	}
}
