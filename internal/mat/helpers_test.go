package mat

import (
	"fmt"
	"math"
)

// Test helpers: literal construction, approximate comparison and the
// vector arithmetic the reference checks need.

// NewDenseData returns a rows×cols matrix initialized with a copy of data,
// which must have exactly rows*cols elements in row-major order.
func NewDenseData(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: NewDenseData with %d elements for %dx%d matrix", len(data), rows, cols))
	}
	m := NewDense(rows, cols)
	copy(m.data, data)
	return m
}

// EqualApprox reports whether a and b have the same shape and all elements
// within tol of each other.
func EqualApprox(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// VecNorm2 returns the Euclidean norm of x.
func VecNorm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// VecSub returns x−y as a new slice.
func VecSub(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic("mat: VecSub with mismatched lengths")
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - y[i]
	}
	return out
}
