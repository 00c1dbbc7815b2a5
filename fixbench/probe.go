package main

import (
	"math"
	"time"
)

// The machine this benchmark runs on is shared: other tenants can slow
// every instruction by 2x for minutes at a time, which no run length or
// median absorbs. A fixed CPU kernel, timed next to the workload, tracks
// that slowdown (it moved with the engine within 10% when the host went
// from quiet to contended), so the time metrics are reported scaled to a
// host on which the kernel takes probeRef. The unscaled values and the
// scale factor are printed with every result.

// probeIters sizes the kernel to about probeRef on a quiet 2.1 GHz Xeon.
const probeIters = 5200

// probeRef is the kernel's reference duration.
const probeRef = time.Millisecond

// probeSink keeps the kernel's result observable so it is not removed.
var probeSink float64

// probeKernel is fixed floating-point work with a small working set, like
// the solvers': repeated normal-equation solves of a 10×4 system.
func probeKernel() float64 {
	var a [10][4]float64
	var y [10]float64
	for i := range a {
		for j := range a[i] {
			a[i][j] = math.Sin(float64(i*4 + j + 1))
		}
		y[i] = math.Cos(float64(i + 1))
	}
	acc := 0.0
	for it := 0; it < probeIters; it++ {
		var n [4][5]float64
		for i := 0; i < 10; i++ {
			for j := 0; j < 4; j++ {
				n[j][4] += a[i][j] * y[i]
				for k := 0; k < 4; k++ {
					n[j][k] += a[i][j] * a[i][k]
				}
			}
		}
		for p := 0; p < 4; p++ {
			inv := 1 / n[p][p]
			for r := p + 1; r < 4; r++ {
				f := n[r][p] * inv
				for c := p; c < 5; c++ {
					n[r][c] -= f * n[p][c]
				}
			}
		}
		var x [4]float64
		for r := 3; r >= 0; r-- {
			s := n[r][4]
			for c := r + 1; c < 4; c++ {
				s -= n[r][c] * x[c]
			}
			x[r] = s / n[r][r]
		}
		acc += math.Sqrt(math.Abs(x[0]) + 1)
		y[it%10] += 1e-12 * x[1] // each solve depends on the last
	}
	return acc
}

// probe times one run of the kernel.
func probe() time.Duration {
	t0 := time.Now()
	probeSink += probeKernel()
	return time.Since(t0)
}

// hostFactor is how much slower than the reference host this run's
// machine was: the median probe over probeRef.
func hostFactor(probes []float64) float64 {
	if len(probes) == 0 {
		return 1
	}
	return median(probes) / float64(probeRef)
}
