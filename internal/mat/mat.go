// Package mat holds the linear algebra behind the GPS solvers, in two
// parts:
//
//   - small.go: the fixed-size kernels the solvers run — unrolled 3×3 and
//     4×4 solves, the 4×4 inverse and the normal-equation builders over
//     [3]/[4]float64 rows. They allocate nothing.
//   - mat.go, lu.go, cholesky.go: a small dense matrix type with LU and
//     Cholesky factorizations. No binary calls this code; it is the
//     reference the kernels and the DLG covariance routes are tested
//     against (the explicit eq. 4-21 oracle in internal/core builds on
//     it).
//
// Conventions:
//   - Matrices are dense, row-major, float64.
//   - Dimension mismatches are programmer errors and panic with a
//     descriptive message (as gonum does); numerical failures such as
//     singular or non-positive-definite inputs are returned as errors.
//   - Vectors are plain []float64.
package mat

import (
	"errors"
	"fmt"
)

// Numerical failure modes reported by factorizations and solvers.
var (
	// ErrSingular is returned when a matrix is singular to working precision.
	ErrSingular = errors.New("mat: matrix is singular")
	// ErrNotSPD is returned by Cholesky when the input is not symmetric
	// positive definite.
	ErrNotSPD = errors.New("mat: matrix is not symmetric positive definite")
)

// Dense is a dense, row-major matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols
}

// NewDense returns a zeroed rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: NewDense with non-positive dims %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (rows, cols int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// rawRow returns the i-th row as a slice aliasing the matrix storage.
func (m *Dense) rawRow(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols]
}

// SetRow copies v into row i.
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: SetRow with %d elements for %d columns", len(v), m.cols))
	}
	copy(m.rawRow(i), v)
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.rawRow(i)
		for j, v := range row {
			out.data[j*out.cols+i] = v
		}
	}
	return out
}

// Mul returns the matrix product a*b. Panics if a.cols != b.rows.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.rawRow(i)
		orow := out.rawRow(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.rawRow(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product a*x. Panics if a.cols != len(x).
func MulVec(a *Dense, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec shape mismatch %dx%d * vec(%d)", a.rows, a.cols, len(x)))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		row := a.rawRow(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// MulTVec returns aᵀ*x without forming the transpose.
// Panics if a.rows != len(x).
func MulTVec(a *Dense, x []float64) []float64 {
	if a.rows != len(x) {
		panic(fmt.Sprintf("mat: MulTVec shape mismatch %dx%d with vec(%d)", a.rows, a.cols, len(x)))
	}
	out := make([]float64, a.cols)
	for i := 0; i < a.rows; i++ {
		row := a.rawRow(i)
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, v := range row {
			out[j] += v * xi
		}
	}
	return out
}

// MulATA returns aᵀ*a, exploiting symmetry of the result.
func MulATA(a *Dense) *Dense {
	out := NewDense(a.cols, a.cols)
	for k := 0; k < a.rows; k++ {
		row := a.rawRow(k)
		for i, vi := range row {
			if vi == 0 {
				continue
			}
			orow := out.rawRow(i)
			for j := i; j < a.cols; j++ {
				orow[j] += vi * row[j]
			}
		}
	}
	// Mirror the upper triangle into the lower.
	for i := 0; i < a.cols; i++ {
		for j := 0; j < i; j++ {
			out.data[i*a.cols+j] = out.data[j*a.cols+i]
		}
	}
	return out
}
