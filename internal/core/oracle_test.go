package core

import (
	"errors"
	"fmt"
	"testing"

	"gpsdl/internal/mat"
	"gpsdl/internal/telemetry"
)

// solveGLSExplicit computes eq. 4-21 exactly as written, through the
// dense reference routines of internal/mat: it forms
// Ψ = diag(d) + s·𝟙𝟙ᵀ, inverts it, and multiplies through. It is the
// test oracle the dense and Sherman–Morrison routes are verified against.
func solveGLSExplicit(rows [][3]float64, d, diag []float64, shared float64) ([3]float64, error) {
	k := len(rows)
	a := mat.NewDense(k, 3)
	for i, r := range rows {
		a.SetRow(i, r[:])
	}
	psi := mat.NewDense(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			v := shared
			if i == j {
				v += diag[i]
			}
			psi.Set(i, j, v)
		}
	}
	x, err := glsExplicit(a, d, psi)
	if err != nil {
		return [3]float64{}, err
	}
	return [3]float64{x[0], x[1], x[2]}, nil
}

// glsExplicit returns the GLS solution computed exactly as written in the
// paper: form M⁻¹, then (AᵀM⁻¹A)⁻¹AᵀM⁻¹b.
func glsExplicit(a *mat.Dense, b []float64, m *mat.Dense) ([]float64, error) {
	rows, _ := a.Dims()
	mr, mc := m.Dims()
	if mr != rows || mc != rows || len(b) != rows {
		return nil, fmt.Errorf("GLS covariance %dx%d, b(%d) for %d-row system", mr, mc, len(b), rows)
	}
	minv, err := mat.Inverse(m)
	if err != nil {
		return nil, fmt.Errorf("GLS explicit inverse: %w", err)
	}
	at := a.T()
	atm := mat.Mul(at, minv)  // n×m
	lhs := mat.Mul(atm, a)    // n×n
	rhs := mat.MulVec(atm, b) // n
	x, err := mat.SolveSPD(lhs, rhs)
	if err != nil {
		return nil, fmt.Errorf("GLS explicit solve: %w", err)
	}
	return x, nil
}

// explicitDLG is a DLGSolver whose GLS step is the explicit oracle: the
// same clock correction, base selection and covariance assembly as
// DLGSolver.Solve, then eq. 4-21 through solveGLSExplicit.
type explicitDLG struct{ DLGSolver }

func (s *explicitDLG) Name() string { return "DLG-explicit" }

func (s *explicitDLG) Solve(t float64, obs []Observation) (Solution, error) {
	sys, err := s.system(s.scratch(), t, obs)
	if err != nil {
		return Solution{}, err
	}
	x, err := solveGLSExplicit(sys.rows, sys.d, sys.diag, sys.shared)
	if err != nil {
		return Solution{}, fmt.Errorf("DLG GLS solve (explicit): %w", ErrDegenerateGeometry)
	}
	return sys.solution(x), nil
}

// dlgRoutes returns the three DLG covariance routes over one solver
// configuration, keyed by route name: the paper's dense Cholesky, the
// Sherman–Morrison fast path and the explicit oracle.
func dlgRoutes(cfg DLGSolver) map[string]Solver {
	paper, fast := cfg, cfg
	paper.Variant, fast.Variant = VariantPaper, VariantFast
	return map[string]Solver{
		"paper":    &paper,
		"fast":     &fast,
		"explicit": &explicitDLG{cfg},
	}
}

// TestDLGFastFallbackZeroDiagonal: a satellite whose clock-corrected range
// is exactly zero puts a zero term on Ψ's diagonal. The Sherman–Morrison
// route refuses it, the fast solver falls back to the dense route (Ψ is
// still positive definite because the shared base term is positive), and
// the fix matches the explicit oracle.
func TestDLGFastFallbackZeroDiagonal(t *testing.T) {
	const bias = 25.0
	obs := scene(t, yyr1(), 5000, bias, 7)
	// ρᴱ = ρ − ε̂ᴿ = 0 for a non-base satellite (BaseFirst picks obs[0]).
	obs[3].Pseudorange = bias

	s := &DLGSolver{Predictor: oracle(bias), Variant: VariantFast,
		Metrics: NewGLSMetrics(telemetry.NewRegistry())}
	sys, err := s.system(&Scratch{}, 5000, obs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solveGLSFast(sys.rows, sys.d, sys.diag, sys.shared); !errors.Is(err, mat.ErrNotSPD) {
		t.Fatalf("solveGLSFast accepted a zero diagonal term: err = %v", err)
	}

	got, err := s.Solve(5000, obs)
	if err != nil {
		t.Fatalf("DLG-fast did not recover through the dense route: %v", err)
	}
	want, err := (&explicitDLG{DLGSolver{Predictor: oracle(bias)}}).Solve(5000, obs)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Pos.DistanceTo(want.Pos); d > 1e-6 {
		t.Errorf("fallback fix differs from the explicit oracle by %g m", d)
	}
	if n := s.Metrics.FastFallbacks.Value(); n != 1 {
		t.Errorf("FastFallbacks = %d, want 1", n)
	}
	if n := s.Metrics.FastSolves.Value(); n != 1 {
		t.Errorf("FastSolves = %d, want 1 (a fallback still counts as a fast-path solve)", n)
	}
}

// BenchmarkAblation_GLSFastPath compares the three DLG covariance
// implementations (A3 / Section 6 extension 3) at m = 10.
func BenchmarkAblation_GLSFastPath(b *testing.B) {
	const bias = 6.0
	obs := scene(b, yyr1(), 4321, bias, 10)
	routes := dlgRoutes(DLGSolver{Predictor: oracle(bias)})
	for _, name := range []string{"paper", "fast", "explicit"} {
		s := routes[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(4321, obs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
