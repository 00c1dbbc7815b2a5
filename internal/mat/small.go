package mat

import "math"

// Fast paths for the tiny fixed-size systems that dominate GPS positioning:
// the normal-equation systems are 3×3 (direct linearization, unknowns
// x,y,z) or 4×4 (Newton–Raphson, unknowns x,y,z,clock). Solving them with
// unrolled Cramer/cofactor arithmetic avoids the factorization and
// bookkeeping overhead of the general LU path. This implements the paper's
// Section 6 extension 3 ("optimize the matrix operations in the context of
// our problem").

// Solve3 solves the 3×3 system a*x = b with a given row-major.
// It returns ErrSingular when |det a| is zero.
func Solve3(a [9]float64, b [3]float64) ([3]float64, error) {
	// Cofactors of the first row.
	c00 := a[4]*a[8] - a[5]*a[7]
	c01 := a[5]*a[6] - a[3]*a[8]
	c02 := a[3]*a[7] - a[4]*a[6]
	det := a[0]*c00 + a[1]*c01 + a[2]*c02
	if det == 0 || math.IsNaN(det) {
		return [3]float64{}, ErrSingular
	}
	inv := 1 / det
	var x [3]float64
	x[0] = inv * (b[0]*c00 + b[1]*(a[2]*a[7]-a[1]*a[8]) + b[2]*(a[1]*a[5]-a[2]*a[4]))
	x[1] = inv * (b[0]*c01 + b[1]*(a[0]*a[8]-a[2]*a[6]) + b[2]*(a[2]*a[3]-a[0]*a[5]))
	x[2] = inv * (b[0]*c02 + b[1]*(a[1]*a[6]-a[0]*a[7]) + b[2]*(a[0]*a[4]-a[1]*a[3]))
	return x, nil
}

// Solve4 solves the 4×4 system a*x = b with a given row-major, using
// Gaussian elimination with partial pivoting unrolled over fixed storage.
// It returns ErrSingular when a pivot vanishes.
func Solve4(a [16]float64, b [4]float64) ([4]float64, error) {
	// Augment in fixed storage.
	var m [4][5]float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			m[i][j] = a[i*4+j]
		}
		m[i][4] = b[i]
	}
	for k := 0; k < 4; k++ {
		p := k
		maxAbs := math.Abs(m[k][k])
		for i := k + 1; i < 4; i++ {
			if v := math.Abs(m[i][k]); v > maxAbs {
				maxAbs = v
				p = i
			}
		}
		if maxAbs == 0 {
			return [4]float64{}, ErrSingular
		}
		if p != k {
			m[k], m[p] = m[p], m[k]
		}
		pivotInv := 1 / m[k][k]
		for i := k + 1; i < 4; i++ {
			f := m[i][k] * pivotInv
			if f == 0 {
				continue
			}
			for j := k; j < 5; j++ {
				m[i][j] -= f * m[k][j]
			}
		}
	}
	var x [4]float64
	for i := 3; i >= 0; i-- {
		s := m[i][4]
		for j := i + 1; j < 4; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}

// NormalEq3 forms the 3×3 normal-equation system (AᵀA, Aᵀb) for an m×3
// design matrix given as row slices, without allocating Dense matrices.
func NormalEq3(rows [][3]float64, b []float64) (ata [9]float64, atb [3]float64) {
	for k, r := range rows {
		bk := b[k]
		ata[0] += r[0] * r[0]
		ata[1] += r[0] * r[1]
		ata[2] += r[0] * r[2]
		ata[4] += r[1] * r[1]
		ata[5] += r[1] * r[2]
		ata[8] += r[2] * r[2]
		atb[0] += r[0] * bk
		atb[1] += r[1] * bk
		atb[2] += r[2] * bk
	}
	ata[3], ata[6], ata[7] = ata[1], ata[2], ata[5]
	return ata, atb
}

// NormalEq4 forms the 4×4 normal-equation system (AᵀA, Aᵀb) for an m×4
// design matrix given as row slices.
func NormalEq4(rows [][4]float64, b []float64) (ata [16]float64, atb [4]float64) {
	for k, r := range rows {
		bk := b[k]
		for i := 0; i < 4; i++ {
			ri := r[i]
			if ri == 0 {
				continue
			}
			for j := i; j < 4; j++ {
				ata[i*4+j] += ri * r[j]
			}
			atb[i] += ri * bk
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < i; j++ {
			ata[i*4+j] = ata[j*4+i]
		}
	}
	return ata, atb
}
