// Package telemetry is the repository's dependency-free observability
// layer: typed atomic metrics (Counter, Gauge, Histogram) behind a
// thread-safe Registry with Prometheus text-format exposition, plus a
// log/slog-based structured-logging setup whose loggers carry a
// component attribute.
//
// It is expvar in spirit but typed and labeled, so a production
// positioning service can answer "how many fixes per second, at what
// latency, with how many solver failures?" without importing anything
// outside the standard library.
//
// Every instrument is safe for concurrent use, and every method is a
// no-op on a nil receiver: code paths instrument themselves
// unconditionally and pay nothing (not even a time.Now call, when the
// caller gates on the nil instrument) unless a Registry was wired in.
package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1. No-op on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that can go up and down (queue depths,
// connected clients, last-fix age).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (which may be negative) atomically. No-op on nil.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+delta)) {
			return
		}
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Buckets are defined
// by their inclusive upper bounds; an implicit +Inf bucket catches
// everything above the last bound, and values at or below the first
// bound land in the first bucket, so no observation is ever lost off
// either end. NaN observations are dropped (they carry no magnitude).
//
// Observation is lock-free: one binary search plus two atomic adds.
type Histogram struct {
	bounds  []float64 // sorted inclusive upper bounds
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// newHistogram builds a histogram from sorted, deduplicated bounds.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	dedup := bs[:0]
	for i, b := range bs {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			continue
		}
		if i > 0 && len(dedup) > 0 && b == dedup[len(dedup)-1] {
			continue
		}
		dedup = append(dedup, b)
	}
	return &Histogram{
		bounds:  dedup,
		buckets: make([]atomic.Uint64, len(dedup)+1), // +1: the +Inf bucket
	}
}

// Observe records one value. No-op on a nil histogram or a NaN value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// First bucket whose upper bound is >= v; len(bounds) selects +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		sum := math.Float64frombits(old)
		if h.sumBits.CompareAndSwap(old, math.Float64bits(sum+v)) {
			return
		}
	}
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// BucketQuantile estimates the q-th quantile (0 ≤ q ≤ 1) of a
// fixed-bucket distribution by linear interpolation within the bucket
// that contains the target rank — the estimate Prometheus'
// histogram_quantile() computes server-side. Quality windows use it.
// bounds are sorted inclusive upper bounds, cum the cumulative counts
// aligned with bounds plus a final +Inf entry, count the total. Values
// in the +Inf overflow bucket have no upper bound to interpolate toward,
// so ranks landing there return the last finite bound. The first bucket
// interpolates from 0 when its bound is positive, else from the bound
// itself; q outside [0, 1] is clamped. Returns NaN when count is 0.
func BucketQuantile(bounds []float64, cum []uint64, count uint64, q float64) float64 {
	if count == 0 || len(cum) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the sample whose value we estimate.
	rank := uint64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	i := 0
	for i < len(cum) && cum[i] < rank {
		i++
	}
	if i >= len(bounds) {
		// Overflow bucket: no finite upper edge to interpolate toward.
		if len(bounds) == 0 {
			return math.NaN()
		}
		return bounds[len(bounds)-1]
	}
	lower := 0.0
	var below uint64
	if i > 0 {
		lower = bounds[i-1]
		below = cum[i-1]
	} else if bounds[0] <= 0 {
		lower = bounds[0]
	}
	in := cum[i] - below
	if in == 0 {
		return bounds[i]
	}
	frac := float64(rank-below) / float64(in)
	return lower + (bounds[i]-lower)*frac
}

// snapshot returns cumulative bucket counts aligned with bounds plus
// the +Inf total, consistent enough for scraping (buckets are read in
// order, so a racing Observe can at worst undercount the tail).
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.buckets))
	var running uint64
	for i := range h.buckets {
		running += h.buckets[i].Load()
		cum[i] = running
	}
	return cum, h.count.Load(), h.Sum()
}

// ExponentialBuckets returns n upper bounds starting at start (> 0) and
// multiplying by factor (> 1) — the standard latency-histogram shape.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}
