package mat

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L*Lᵀ.
type Cholesky struct {
	l *Dense
}

// FactorizeCholesky computes the Cholesky factorization of the symmetric
// positive definite matrix a. Only the lower triangle of a is read.
// It returns ErrNotSPD if a pivot is non-positive.
func FactorizeCholesky(a *Dense) (*Cholesky, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: FactorizeCholesky of non-square %dx%d matrix", a.rows, a.cols))
	}
	n := a.rows
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		var d float64
		lrowJ := l.rawRow(j)
		for k := 0; k < j; k++ {
			d += lrowJ[k] * lrowJ[k]
		}
		d = a.data[j*n+j] - d
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotSPD
		}
		diag := math.Sqrt(d)
		lrowJ[j] = diag
		for i := j + 1; i < n; i++ {
			lrowI := l.rawRow(i)
			var s float64
			for k := 0; k < j; k++ {
				s += lrowI[k] * lrowJ[k]
			}
			lrowI[j] = (a.data[i*n+j] - s) / diag
		}
	}
	return &Cholesky{l: l}, nil
}

// Solve solves A*x = b using the factorization: L*y = b, then Lᵀ*x = y.
func (c *Cholesky) Solve(b []float64) []float64 {
	n := c.l.rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: Cholesky.Solve with vec(%d) for %dx%d system", len(b), n, n))
	}
	x := make([]float64, n)
	copy(x, b)
	l := c.l
	// Forward substitution: L*y = b.
	for i := 0; i < n; i++ {
		row := l.rawRow(i)
		var s float64
		for j := 0; j < i; j++ {
			s += row[j] * x[j]
		}
		x[i] = (x[i] - s) / row[i]
	}
	// Back substitution: Lᵀ*x = y.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += l.data[j*n+i] * x[j]
		}
		x[i] = (x[i] - s) / l.data[i*n+i]
	}
	return x
}

// SolveSPD solves the symmetric positive definite system a*x = b via
// Cholesky, falling back to LU if a is not numerically SPD.
func SolveSPD(a *Dense, b []float64) ([]float64, error) {
	ch, err := FactorizeCholesky(a)
	if err == nil {
		return ch.Solve(b), nil
	}
	return Solve(a, b)
}
