package core

// Scratch is the reusable workspace for the solver hot paths. The paper's
// serving story (and this repository's multi-receiver engine) amortizes
// one Scratch across every fix a receiver session computes: after the
// first few epochs have grown the buffers to the session's satellite
// count, the steady-state path linearize → solve allocates nothing.
//
// The pattern started life as the private psi/wl/ul/diag fields of
// DLGSolver; hoisting it into a shared type lets NR, DLO and DLG draw
// from the same arena, so a session carrying one solver plus an NR
// warm-up solver still owns exactly one set of buffers.
//
// A Scratch is not safe for concurrent use: give each goroutine (each
// engine shard session) its own. The zero value is ready to use. Solvers
// with a nil Scratch fall back to per-call allocation, which keeps their
// zero values safe for concurrent use exactly as before.
type Scratch struct {
	rhoE  []float64    // clock-corrected pseudo-ranges (m)
	rows3 [][3]float64 // differenced design matrix (m−1 × 3)
	d     []float64    // differenced right-hand side (m−1)
	sqw   []float64    // NR sqrt-weights (m)
	diag  []float64    // GLS covariance diagonal (m−1)
	psi   []float64    // dense covariance / Cholesky factor (k×k)
	wl    []float64    // whitened design (k×3)
	ul    []float64    // whitened rhs (k)
}

// ranges returns the corrected-ranges buffer sized for n observations.
func (s *Scratch) ranges(n int) []float64 {
	if cap(s.rhoE) < n {
		s.rhoE = make([]float64, n)
	}
	return s.rhoE[:n]
}

// differenced returns the (rows, d) buffers for a k-equation differenced
// system, length 0 with capacity >= k, ready for append.
func (s *Scratch) differenced(k int) ([][3]float64, []float64) {
	if cap(s.rows3) < k {
		s.rows3 = make([][3]float64, 0, k)
		s.d = make([]float64, 0, k)
	}
	return s.rows3[:0], s.d[:0]
}

// weights returns the sqrt-weight buffer for m observations.
func (s *Scratch) weights(m int) []float64 {
	if cap(s.sqw) < m {
		s.sqw = make([]float64, m)
	}
	return s.sqw[:m]
}

// glsDiag returns the covariance-diagonal buffer, length 0 with capacity
// >= k, ready for append.
func (s *Scratch) glsDiag(k int) []float64 {
	if cap(s.diag) < k {
		s.diag = make([]float64, 0, k)
	}
	return s.diag[:0]
}

// cholesky returns the (psi, w, u) buffers for a k×k whitening: the dense
// covariance/factor, the k×3 whitened design, and the k whitened rhs.
func (s *Scratch) cholesky(k int) (psi, w, u []float64) {
	if cap(s.psi) < k*k {
		s.psi = make([]float64, k*k)
		s.wl = make([]float64, k*3)
		s.ul = make([]float64, k)
	}
	return s.psi[:k*k], s.wl[:k*3], s.ul[:k]
}
