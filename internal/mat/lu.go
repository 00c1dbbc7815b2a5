package mat

import (
	"fmt"
	"math"
)

// LU holds an LU factorization with partial pivoting: P*A = L*U, where L is
// unit lower triangular and U is upper triangular, stored packed in lu.
type LU struct {
	lu    *Dense
	pivot []int // row i of the factorization came from row pivot[i] of A
}

// FactorizeLU computes the LU factorization of the square matrix a.
// It returns ErrSingular if a pivot is exactly zero; near-singular systems
// succeed but produce large solution errors.
func FactorizeLU(a *Dense) (*LU, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: FactorizeLU of non-square %dx%d matrix", a.rows, a.cols))
	}
	n := a.rows
	f := &LU{lu: a.Clone(), pivot: make([]int, n)}
	lu := f.lu
	for i := range f.pivot {
		f.pivot[i] = i
	}
	for k := 0; k < n; k++ {
		// Find pivot row.
		p := k
		maxAbs := math.Abs(lu.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.data[i*n+k]); v > maxAbs {
				maxAbs = v
				p = i
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rowK, rowP := lu.rawRow(k), lu.rawRow(p)
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			f.pivot[k], f.pivot[p] = f.pivot[p], f.pivot[k]
		}
		pivotVal := lu.data[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu.data[i*n+k] / pivotVal
			lu.data[i*n+k] = m
			if m == 0 {
				continue
			}
			rowI, rowK := lu.rawRow(i), lu.rawRow(k)
			for j := k + 1; j < n; j++ {
				rowI[j] -= m * rowK[j]
			}
		}
	}
	return f, nil
}

// Solve solves A*x = b for x using the factorization.
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: LU.Solve with vec(%d) for %dx%d system", len(b), n, n))
	}
	x := make([]float64, n)
	// Apply permutation: x = P*b.
	for i, p := range f.pivot {
		x[i] = b[p]
	}
	lu := f.lu
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := lu.rawRow(i)
		var s float64
		for j := 0; j < i; j++ {
			s += row[j] * x[j]
		}
		x[i] -= s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := lu.rawRow(i)
		var s float64
		for j := i + 1; j < n; j++ {
			s += row[j] * x[j]
		}
		x[i] = (x[i] - s) / row[i]
	}
	return x
}

// SolveMat solves A*X = B column by column.
func (f *LU) SolveMat(b *Dense) *Dense {
	n := f.lu.rows
	if b.rows != n {
		panic(fmt.Sprintf("mat: LU.SolveMat with %dx%d rhs for %dx%d system", b.rows, b.cols, n, n))
	}
	out := NewDense(n, b.cols)
	col := make([]float64, n)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.data[i*b.cols+j]
		}
		x := f.Solve(col)
		for i := 0; i < n; i++ {
			out.data[i*out.cols+j] = x[i]
		}
	}
	return out
}

// Inverse returns A⁻¹ computed from the factorization.
func (f *LU) Inverse() *Dense {
	return f.SolveMat(Identity(f.lu.rows))
}

// Solve solves the square linear system a*x = b.
func Solve(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorizeLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// Inverse returns the inverse of the square matrix a.
func Inverse(a *Dense) (*Dense, error) {
	f, err := FactorizeLU(a)
	if err != nil {
		return nil, err
	}
	return f.Inverse(), nil
}
