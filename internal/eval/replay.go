package eval

import (
	"gpsdl/internal/clock"
	"gpsdl/internal/core"
	"gpsdl/internal/geo"
	"gpsdl/internal/scenario"
)

// ReplayInput is everything needed to re-run one captured fix offline,
// deterministically; ReplayInputFromRecord lifts it from a journal
// record. The clock estimate is stored in seconds exactly as the live predictor
// returned it, so a clock.Constant replay predictor reproduces the
// range-domain correction bit-for-bit and direct-solver replays are
// byte-identical to the captured solution.
type ReplayInput struct {
	// Station identifies the receiver (its Pos is the ground truth the
	// residual was computed against).
	Station scenario.Station
	// EpochIndex is the epoch's position in the stream or dataset.
	EpochIndex int
	// T is the receiver timestamp (seconds).
	T float64
	// Obs is the exact observation set the solver saw (post satellite
	// selection), not the full epoch.
	Obs []core.Observation
	// Solver names the algorithm that produced the captured fix.
	Solver string
	// ClockBias is the predicted clock bias Δt̂ (seconds) the direct
	// solvers subtracted. Zero for NR, which estimates its own.
	ClockBias float64
	// Solution is the captured fix position, the replay reference.
	Solution geo.ECEF
}

// Solvers returns the solver configurations a replay runs the captured
// epoch through, all sharing the captured clock estimate. The two DLG
// covariance paths are listed separately: they agree to numerical
// precision but not bit for bit, so a replay must re-run the exact
// variant the capture names to reproduce the fix byte-identically.
// NR and DLG weigh each observation by its σ (WLS via SigmaWeight, the
// heteroscedastic Ψ of eq. 4-26), as the engine solves weighted and
// disruption-scored fixes; an unset σ weighs exactly 1, which
// reproduces an unweighted solve bit for bit.
func (in *ReplayInput) Solvers() []core.Solver {
	pred := clock.Constant{Bias: in.ClockBias}
	return []core.Solver{
		&core.NRSolver{Weight: core.SigmaWeight},
		&core.DLOSolver{Predictor: pred},
		&core.DLGSolver{Predictor: pred, Weighted: true},
		&core.DLGSolver{Predictor: pred, Variant: core.VariantFast, Weighted: true},
		core.BancroftSolver{},
	}
}
