// Package core implements the positioning algorithms the paper studies:
//
//   - NR: the classic Newton–Raphson iterative solver of Section 3.4 (the
//     baseline every metric is normalized against),
//   - DLO: direct linearization + ordinary least squares (Section 4.5),
//   - DLG: direct linearization + general least squares with the
//     correlated-error covariance of Theorem 4.2 (Section 4.5),
//   - Bancroft: the classic algebraic direct solution (paper ref [2]),
//     used as an additional direct baseline in ablation A4,
//
// plus base-satellite selection strategies (Section 6 extension 1) and
// dilution-of-precision diagnostics.
package core

import (
	"errors"
	"fmt"

	"gpsdl/internal/geo"
)

// Solver failure modes.
var (
	// ErrTooFewSatellites is returned when an epoch has fewer
	// observations than the algorithm needs (NR/Bancroft: 4; DLO/DLG: 4,
	// since m−1 ≥ 3 difference equations are required).
	ErrTooFewSatellites = errors.New("core: too few satellites")
	// ErrNoConvergence is returned when an iterative solver exhausts its
	// iteration budget.
	ErrNoConvergence = errors.New("core: iteration did not converge")
	// ErrDegenerateGeometry is returned when the satellite geometry makes
	// the system singular (e.g. coplanar satellites).
	ErrDegenerateGeometry = errors.New("core: degenerate satellite geometry")
	// ErrNoClockPrediction is returned by DLO/DLG when their clock
	// predictor cannot produce an estimate yet.
	ErrNoClockPrediction = errors.New("core: clock predictor not ready")
)

// Observation is one satellite's measurement at an epoch: the satellite
// ECEF coordinates (from broadcast ephemeris) and the measured pseudo-range
// ρᵉ (paper eq. 3-5).
type Observation struct {
	Pos         geo.ECEF
	Pseudorange float64
	// Elevation (radians) is optional metadata used by elevation-based
	// satellite selection; zero when unknown.
	Elevation float64
	// Sigma is the per-satellite 1σ pseudo-range noise in meters, used by
	// the weighted solve paths (WLS in NR via SigmaWeight, heteroscedastic
	// Ψ in DLG). Zero means unknown and is treated as 1 — the paper's
	// homoscedastic model — so unweighted callers are unaffected.
	// Negative or non-finite values fail validation.
	Sigma float64
}

// Solution is a position fix.
type Solution struct {
	// Pos is the estimated receiver position (xₑ, yₑ, zₑ).
	Pos geo.ECEF
	// ClockBias is the estimated receiver range bias εᴿ in meters
	// (c·Δt). NR estimates it; DLO/DLG report the predicted value they
	// subtracted.
	ClockBias float64
	// Iterations is the number of iterations used (1 for direct methods).
	Iterations int
}

// Solver is a positioning algorithm. Solve computes a fix from one epoch
// of observations; t is the receiver timestamp (seconds), which direct
// methods use for clock-bias prediction and NR ignores.
type Solver interface {
	// Name returns the algorithm's short name ("NR", "DLO", "DLG", ...).
	Name() string
	// Solve computes a position fix for the epoch.
	Solve(t float64, obs []Observation) (Solution, error)
}

// ErrBadObservation is returned when an observation carries non-finite
// values (NaN/Inf pseudo-range or coordinates).
var ErrBadObservation = errors.New("core: observation has non-finite values")

// checkMinObs validates the observation count and that every measurement
// is finite: a single NaN pseudo-range would otherwise propagate silently
// into the closed-form solutions.
func checkMinObs(name string, obs []Observation, minimum int) error {
	if len(obs) < minimum {
		return fmt.Errorf("%s needs >= %d satellites, have %d: %w",
			name, minimum, len(obs), ErrTooFewSatellites)
	}
	for i, o := range obs {
		if !finite(o.Pseudorange) || !finite(o.Pos.X) || !finite(o.Pos.Y) || !finite(o.Pos.Z) ||
			o.Sigma < 0 || !finite(o.Sigma) {
			return fmt.Errorf("%s observation %d: %w", name, i, ErrBadObservation)
		}
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf, in one subtraction:
// v−v is 0 for every finite v and NaN otherwise.
func finite(v float64) bool {
	return v-v == 0
}
