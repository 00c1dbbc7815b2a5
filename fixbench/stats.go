package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// chunkLen is the size of one series chunk. Recording appends into
// fixed chunks, so it never copies what it already holds and the
// benchmark's own allocations stay far below the engine's.
const chunkLen = 1 << 14

// series is an append-only sample store. It is owned by one goroutine
// while a run is in flight and read by the main goroutine after.
type series struct {
	chunks [][]float64
}

func (s *series) add(v float64) {
	k := len(s.chunks)
	if k == 0 || len(s.chunks[k-1]) == chunkLen {
		s.chunks = append(s.chunks, make([]float64, 0, chunkLen))
		k++
	}
	s.chunks[k-1] = append(s.chunks[k-1], v)
}

// heldBytes is the memory the series keeps alive; it is subtracted from
// the retained heap so the metric describes the program, not the
// benchmark's sample buffers.
func (s *series) heldBytes() uint64 { return uint64(len(s.chunks)) * chunkLen * 8 }

// appendTo appends every sample to dst.
func (s *series) appendTo(dst []float64) []float64 {
	for _, c := range s.chunks {
		dst = append(dst, c...)
	}
	return dst
}

// quantiles returns the requested quantiles of xs (sorted in place),
// interpolating linearly between order statistics. +Inf samples sort
// last, so an undelivered fix counts as missing every limit. An empty
// input yields zeros.
func quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	sort.Float64s(xs)
	for i, q := range qs {
		pos := q * float64(len(xs)-1)
		lo, frac := int(pos), pos-math.Floor(pos)
		switch {
		case frac == 0:
			out[i] = xs[lo]
		case math.IsInf(xs[lo+1], 1):
			out[i] = xs[lo+1]
		default:
			out[i] = xs[lo] + (xs[lo+1]-xs[lo])*frac
		}
	}
	return out
}

func median(xs []float64) float64 {
	return quantiles(append([]float64(nil), xs...), 0.5)[0]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload does not
// exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
