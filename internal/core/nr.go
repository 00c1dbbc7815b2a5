package core

import (
	"fmt"
	"math"

	"gpsdl/internal/geo"
	"gpsdl/internal/mat"
)

// NRSolver is the classic Newton–Raphson positioning algorithm of
// Section 3.4: four unknowns (xₑ, yₑ, zₑ, εᴿ), Taylor-series linearization
// at each iterate (eq. 3-25/3-26), and ordinary least squares on the
// over-determined per-iteration system (Step 4 of the algorithm).
//
// The zero value is ready to use with the paper's defaults: initial guess
// (0, 0, 0, 0) (eq. 3-27) and convergence when the update is below 1e-4 m.
type NRSolver struct {
	// MaxIter caps the iteration count; 0 means the default of 20.
	MaxIter int
	// Tol is the convergence threshold on the ∞-norm of the state update
	// in meters; 0 means the default of 1e-4.
	Tol float64
	// InitialGuess, when non-nil, overrides the paper's (0,0,0,0) start.
	// Warm-starting from the previous fix is what tracking receivers do;
	// used in ablation A4.
	InitialGuess *Solution
	// Weight, when non-nil, turns the per-iteration OLS into weighted
	// least squares with the returned per-observation weights (must be
	// > 0). Receivers typically use elevation weighting (see
	// ElevationWeight) because low satellites carry more atmospheric and
	// multipath error. Nil keeps the paper's unweighted OLS.
	Weight func(Observation) float64
	// Scratch, when non-nil, supplies reusable workspace so steady-state
	// solves allocate nothing; the solver is then not safe for concurrent
	// use. Nil keeps the allocate-per-call behavior, which leaves the
	// zero-value solver safe to share.
	Scratch *Scratch
}

// ElevationWeight is the standard sin²(elev) weighting with a floor at
// 5°: low-elevation pseudo-ranges are noisier, so they should pull less.
func ElevationWeight(o Observation) float64 {
	elev := o.Elevation
	if elev < 5*math.Pi/180 {
		elev = 5 * math.Pi / 180
	}
	s := math.Sin(elev)
	return s * s
}

var _ Solver = (*NRSolver)(nil)

// Name implements Solver.
func (s *NRSolver) Name() string { return "NR" }

// Solve implements Solver. It requires at least 4 satellites.
func (s *NRSolver) Solve(_ float64, obs []Observation) (Solution, error) {
	if err := checkMinObs("NR", obs, 4); err != nil {
		return Solution{}, err
	}
	maxIter := s.MaxIter
	if maxIter <= 0 {
		maxIter = 20
	}
	tol := s.Tol
	if tol <= 0 {
		tol = 1e-4
	}
	// State: (xₑ, yₑ, zₑ, εᴿ), eq. 3-27 initial solution.
	var x, y, z, eps float64
	if s.InitialGuess != nil {
		x, y, z = s.InitialGuess.Pos.X, s.InitialGuess.Pos.Y, s.InitialGuess.Pos.Z
		eps = s.InitialGuess.ClockBias
	}
	m := len(obs)
	// Precompute sqrt-weights once: scaling each equation by √wᵢ makes
	// the normal equations those of the weighted problem.
	var sqw []float64
	if s.Weight != nil {
		if s.Scratch != nil {
			sqw = s.Scratch.weights(m)
		} else {
			sqw = make([]float64, m)
		}
		for i, o := range obs {
			w := s.Weight(o)
			if w <= 0 || math.IsNaN(w) {
				return Solution{}, fmt.Errorf("NR weight %v for observation %d: %w", w, i, ErrBadObservation)
			}
			sqw[i] = math.Sqrt(w)
		}
	}
	for iter := 1; iter <= maxIter; iter++ {
		// Build the linearized system of eq. 3-26 and fold it straight
		// into the normal equations: for each satellite, residual
		// Pᵢ = ℜᵢ − ρᵉᵢ + εᴿ (eq. 3-24) and partials
		// X'ᵢ = (xₑ−xᵢ)/ℜᵢ, …, E'ᵢ = 1 (eq. 3-20…3-23). The ten unique
		// entries of AᵀA and the four of Aᵀb are summed in observation
		// order with the same products as mat.NormalEq4, so the result
		// is bit-identical to building the rows first (DESIGN.md).
		var s00, s01, s02, s03, s11, s12, s13, s22, s23, s33 float64
		var b0, b1, b2, b3 float64
		for i, o := range obs {
			dx, dy, dz := x-o.Pos.X, y-o.Pos.Y, z-o.Pos.Z
			r := math.Sqrt(dx*dx + dy*dy + dz*dz)
			if r == 0 {
				return Solution{}, fmt.Errorf("NR iterate coincides with satellite %d: %w", i, ErrDegenerateGeometry)
			}
			a0, a1, a2, a3 := dx/r, dy/r, dz/r, 1.0
			rhs := -(r - o.Pseudorange + eps) // −Pᵢ
			if sqw != nil {
				w := sqw[i]
				a0, a1, a2, a3 = a0*w, a1*w, a2*w, w
				rhs *= w
			}
			s00 += a0 * a0
			s01 += a0 * a1
			s02 += a0 * a2
			s03 += a0 * a3
			b0 += a0 * rhs
			s11 += a1 * a1
			s12 += a1 * a2
			s13 += a1 * a3
			b1 += a1 * rhs
			s22 += a2 * a2
			s23 += a2 * a3
			b2 += a2 * rhs
			s33 += a3 * a3
			b3 += a3 * rhs
		}
		// Step 4: ordinary least squares on the (possibly over-
		// determined) system via the 4×4 normal equations.
		ata := [16]float64{
			s00, s01, s02, s03,
			s01, s11, s12, s13,
			s02, s12, s22, s23,
			s03, s13, s23, s33,
		}
		atb := [4]float64{b0, b1, b2, b3}
		delta, err := mat.Solve4(ata, atb)
		if err != nil {
			return Solution{}, fmt.Errorf("NR normal equations: %w", ErrDegenerateGeometry)
		}
		x += delta[0]
		y += delta[1]
		z += delta[2]
		eps += delta[3]
		if math.Abs(delta[0]) < tol && math.Abs(delta[1]) < tol &&
			math.Abs(delta[2]) < tol && math.Abs(delta[3]) < tol {
			return Solution{
				Pos:        geo.ECEF{X: x, Y: y, Z: z},
				ClockBias:  eps,
				Iterations: iter,
			}, nil
		}
	}
	return Solution{}, fmt.Errorf("NR after %d iterations: %w", maxIter, ErrNoConvergence)
}
