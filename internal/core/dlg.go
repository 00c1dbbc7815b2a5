package core

import (
	"errors"
	"fmt"
	"math"

	"gpsdl/internal/clock"
	"gpsdl/internal/geo"
	"gpsdl/internal/mat"
)

// DLGVariant selects how Algorithm DLG applies the covariance.
type DLGVariant int

// DLG variants. The zero value is the paper-faithful implementation.
const (
	// VariantPaper factors the dense (m−1)×(m−1) covariance Ψ with
	// Cholesky and whitens the system — the O(m³) cost profile the
	// paper's Fig. 5.1 measures (its DLG time rate grows with the number
	// of satellites). Default.
	VariantPaper DLGVariant = iota
	// VariantFast applies Ψ⁻¹ through the Sherman–Morrison identity in
	// O(m), implementing Section 6 extension 3 ("optimize the matrix
	// operations in the context of our problem"). Ablation A3; the route
	// the serving engine runs.
	VariantFast
)

// String implements fmt.Stringer.
func (v DLGVariant) String() string {
	switch v {
	case VariantPaper:
		return "paper"
	case VariantFast:
		return "fast"
	default:
		return fmt.Sprintf("DLGVariant(%d)", int(v))
	}
}

// DLGSolver is the paper's Algorithm DLG (Section 4.5): like DLO, but the
// over-determined differenced system is solved with general least squares
// Xᵉ = (AᵀM⁻¹A)⁻¹AᵀM⁻¹Dᵉ (eq. 4-21), where M is the covariance of the
// differenced errors. Theorem 4.1 shows the differencing correlates every
// pair of equations through the shared base satellite
// (cov(Δβᵢ, Δβⱼ) = ρ₁²σ², eq. 4-20); Theorem 4.2 shows the GLS conditions
// hold with Ψ = ρ₁²·𝟙𝟙ᵀ + diag(ρ₂², …, ρ_m²) (eq. 4-25/4-26).
//
// σ² scales out of eq. 4-21, so Ψ is used directly with the measured
// (clock-corrected) pseudo-ranges standing in for the true ranges.
//
// A DLGSolver reuses internal scratch buffers between calls; it is not
// safe for concurrent use. Create one per goroutine.
type DLGSolver struct {
	// Predictor supplies ε̂ᴿ (required).
	Predictor clock.Predictor
	// Base selects the base satellite; nil means BaseFirst.
	Base BaseSelector
	// Variant selects the covariance path; the zero value is the
	// paper-faithful dense Cholesky.
	Variant DLGVariant
	// Metrics, when non-nil, counts solves per covariance path and
	// fast-path fallbacks (see NewGLSMetrics). Nil records nothing.
	Metrics *GLSMetrics
	// Weighted scales the covariance terms by each observation's Sigma:
	// diag entries become ρⱼ²σⱼ² and the shared base term ρ₁²σ₁²
	// (heteroscedastic eq. 4-26 — Theorem 4.2's structure survives
	// because per-satellite variances only reshape the diagonal and the
	// rank-one coefficient). Observations with Sigma unset (0) weigh as
	// σ=1, so enabling Weighted on sigma-free input reproduces the
	// unweighted solution bit for bit.
	Weighted bool
	// Scratch, when non-nil, supplies the reusable workspace (shared with
	// whatever other solvers the owning session runs). Nil falls back to
	// a lazily created private scratch, preserving the historical
	// reuse-between-calls behavior.
	Scratch *Scratch

	own *Scratch // lazily created when Scratch is nil
}

var _ Solver = (*DLGSolver)(nil)

// NewDLGSolver returns a paper-faithful DLG solver with the default base
// selection.
func NewDLGSolver(p clock.Predictor) *DLGSolver {
	return &DLGSolver{Predictor: p}
}

// Name implements Solver. The names are literals, not concatenations:
// Name runs on the per-fix hot path (the fallback chain labels every
// result with it), which must stay allocation-free.
func (s *DLGSolver) Name() string {
	if s.Variant == VariantFast {
		return "DLG-fast"
	}
	return "DLG"
}

// scratch returns the workspace for this solve: the caller-provided
// Scratch when set, otherwise a lazily created private one.
func (s *DLGSolver) scratch() *Scratch {
	if s.Scratch != nil {
		return s.Scratch
	}
	if s.own == nil {
		s.own = &Scratch{}
	}
	return s.own
}

// Solve implements Solver. It requires at least 4 satellites.
func (s *DLGSolver) Solve(t float64, obs []Observation) (Solution, error) {
	sc := s.scratch()
	sys, err := s.system(sc, t, obs)
	if err != nil {
		return Solution{}, err
	}
	var x [3]float64
	switch s.Variant {
	case VariantFast:
		x, err = solveGLSFast(sys.rows, sys.d, sys.diag, sys.shared)
		if err != nil {
			// The Sherman-Morrison identity needs every diagonal term
			// positive; when an epoch violates that, retry through the
			// dense Cholesky route before declaring the geometry
			// degenerate. Ψ = diag + shared·𝟙𝟙ᵀ stays positive definite
			// with one zero diagonal term as long as shared > 0.
			s.Metrics.countFallback()
			x, err = solveGLSPaper(sc, sys.rows, sys.d, sys.diag, sys.shared)
		}
	default:
		x, err = solveGLSPaper(sc, sys.rows, sys.d, sys.diag, sys.shared)
	}
	if err != nil {
		return Solution{}, fmt.Errorf("DLG GLS solve (%s): %w", s.Variant, ErrDegenerateGeometry)
	}
	s.Metrics.countPath(s.Variant)
	return sys.solution(x), nil
}

// glsSystem is one epoch's DLG problem: the differenced rows and
// right-hand side (eq. 4-11), the covariance terms of Ψ (eq. 4-26), and
// the clock bias ε̂ᴿ that corrected the ranges.
type glsSystem struct {
	rows         [][3]float64
	d, diag      []float64
	shared, epsR float64
}

// solution packages a GLS position estimate x as DLG's fix.
func (g glsSystem) solution(x [3]float64) Solution {
	return Solution{
		Pos:        geo.ECEF{X: x[0], Y: x[1], Z: x[2]},
		ClockBias:  g.epsR,
		Iterations: 1,
	}
}

// system assembles the epoch's GLS problem from scratch buffers: clock
// correction, base selection, differencing and covariance terms.
func (s *DLGSolver) system(sc *Scratch, t float64, obs []Observation) (glsSystem, error) {
	if err := checkMinObs("DLG", obs, 4); err != nil {
		return glsSystem{}, err
	}
	rhoE, epsR, err := correctedRanges(sc, s.Predictor, t, obs)
	if err != nil {
		if errors.Is(err, clock.ErrNotCalibrated) {
			return glsSystem{}, fmt.Errorf("DLG: %w", ErrNoClockPrediction)
		}
		return glsSystem{}, fmt.Errorf("DLG clock prediction: %w", err)
	}
	base := 0
	if s.Base != nil {
		base = s.Base.SelectBase(obs)
	}
	rows, d := buildDifferenced(sc, obs, rhoE, base)
	// Covariance terms (eq. 4-26): diagonal ρⱼ² per remaining satellite
	// plus the shared base term ρ_base².
	k := len(rows)
	diag := sc.glsDiag(k)
	for j := range obs {
		if j == base {
			continue
		}
		v := rhoE[j]
		if s.Weighted {
			v *= obsSigma(obs[j])
		}
		diag = append(diag, v*v)
	}
	vb := rhoE[base]
	if s.Weighted {
		vb *= obsSigma(obs[base])
	}
	return glsSystem{rows: rows, d: d, diag: diag, shared: vb * vb, epsR: epsR}, nil
}

// solveGLSPaper whitens the system with an in-place Cholesky factorization
// of the dense covariance Ψ = diag + shared·𝟙𝟙ᵀ, then solves the 3×3
// normal equations of the whitened system. Scratch buffers come from sc,
// so the hot path allocates nothing once warmed up.
func solveGLSPaper(sc *Scratch, rows [][3]float64, d, diag []float64, shared float64) ([3]float64, error) {
	k := len(rows)
	psi, w, u := sc.cholesky(k)
	// Build Ψ.
	for i := 0; i < k; i++ {
		ri := psi[i*k : (i+1)*k]
		for j := range ri {
			ri[j] = shared
		}
		ri[i] += diag[i]
	}
	// In-place Cholesky (lower triangle).
	for j := 0; j < k; j++ {
		sum := psi[j*k+j]
		for p := 0; p < j; p++ {
			sum -= psi[j*k+p] * psi[j*k+p]
		}
		if sum <= 0 || math.IsNaN(sum) {
			return [3]float64{}, mat.ErrNotSPD
		}
		ljj := math.Sqrt(sum)
		psi[j*k+j] = ljj
		for i := j + 1; i < k; i++ {
			sum := psi[i*k+j]
			for p := 0; p < j; p++ {
				sum -= psi[i*k+p] * psi[j*k+p]
			}
			psi[i*k+j] = sum / ljj
		}
	}
	// Forward-substitute L·W = A (3 columns) and L·u = d.
	for i := 0; i < k; i++ {
		w0, w1, w2, ud := rows[i][0], rows[i][1], rows[i][2], d[i]
		for p := 0; p < i; p++ {
			l := psi[i*k+p]
			w0 -= l * w[p*3]
			w1 -= l * w[p*3+1]
			w2 -= l * w[p*3+2]
			ud -= l * u[p]
		}
		inv := 1 / psi[i*k+i]
		w[i*3] = w0 * inv
		w[i*3+1] = w1 * inv
		w[i*3+2] = w2 * inv
		u[i] = ud * inv
	}
	// 3×3 normal equations of the whitened system.
	var ata [9]float64
	var atb [3]float64
	for i := 0; i < k; i++ {
		a0, a1, a2 := w[i*3], w[i*3+1], w[i*3+2]
		b := u[i]
		ata[0] += a0 * a0
		ata[1] += a0 * a1
		ata[2] += a0 * a2
		ata[4] += a1 * a1
		ata[5] += a1 * a2
		ata[8] += a2 * a2
		atb[0] += a0 * b
		atb[1] += a1 * b
		atb[2] += a2 * b
	}
	ata[3], ata[6], ata[7] = ata[1], ata[2], ata[5]
	return mat.Solve3(ata, atb)
}

// solveGLSFast solves the same GLS problem through the Sherman–Morrison
// identity: AᵀΨ⁻¹A = Σ aⱼaⱼᵀ/dⱼ − γ·ppᵀ and AᵀΨ⁻¹b = Σ aⱼbⱼ/dⱼ − γ·q·p,
// where p = Σ aⱼ/dⱼ, q = Σ bⱼ/dⱼ and γ = s/(1 + s·Σ 1/dⱼ). O(m) work and
// no allocations.
func solveGLSFast(rows [][3]float64, d, diag []float64, shared float64) ([3]float64, error) {
	var ata [9]float64
	var atb [3]float64
	var p [3]float64
	var q, sumInv float64
	for i, r := range rows {
		di := diag[i]
		if di <= 0 {
			return [3]float64{}, mat.ErrNotSPD
		}
		inv := 1 / di
		a0, a1, a2 := r[0]*inv, r[1]*inv, r[2]*inv
		ata[0] += a0 * r[0]
		ata[1] += a0 * r[1]
		ata[2] += a0 * r[2]
		ata[4] += a1 * r[1]
		ata[5] += a1 * r[2]
		ata[8] += a2 * r[2]
		atb[0] += a0 * d[i]
		atb[1] += a1 * d[i]
		atb[2] += a2 * d[i]
		p[0] += a0
		p[1] += a1
		p[2] += a2
		q += d[i] * inv
		sumInv += inv
	}
	gamma := shared / (1 + shared*sumInv)
	ata[0] -= gamma * p[0] * p[0]
	ata[1] -= gamma * p[0] * p[1]
	ata[2] -= gamma * p[0] * p[2]
	ata[4] -= gamma * p[1] * p[1]
	ata[5] -= gamma * p[1] * p[2]
	ata[8] -= gamma * p[2] * p[2]
	atb[0] -= gamma * q * p[0]
	atb[1] -= gamma * q * p[1]
	atb[2] -= gamma * q * p[2]
	ata[3], ata[6], ata[7] = ata[1], ata[2], ata[5]
	return mat.Solve3(ata, atb)
}
