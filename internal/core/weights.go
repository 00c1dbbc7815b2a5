package core

import "gpsdl/internal/atmosphere"

// CN0/elevation weight model. The paper's error analysis assumes one σ
// shared by every pseudo-range (conditions 3-33..3-35); real receivers
// see per-satellite noise spanning an order of magnitude between a
// zenith open-sky signal and a low-elevation multipath-contaminated one.
// The C/N0 ↔ σ mapping itself lives in internal/atmosphere (shared with
// the scenario generator, which synthesizes consistent C/N0 values);
// these wrappers re-export it at the layer the solvers live on, next to
// the Observation.Sigma field the weighted solve paths consume.

// SigmaFromCN0 maps a reported carrier-to-noise density (dB-Hz) to the
// 1σ pseudo-range noise in meters; see atmosphere.SigmaFromCN0.
func SigmaFromCN0(cn0 float64) float64 { return atmosphere.SigmaFromCN0(cn0) }

// CN0FromSigma is the exact inverse of SigmaFromCN0 for positive
// sigma; see atmosphere.CN0FromSigma.
func CN0FromSigma(sigma float64) float64 { return atmosphere.CN0FromSigma(sigma) }

// obsSigma returns the weighting σ for one observation: Sigma when set,
// else 1 (the paper's homoscedastic model).
func obsSigma(o Observation) float64 {
	if o.Sigma > 0 {
		return o.Sigma
	}
	return 1
}

// SigmaWeight is the NR weight hook matching the heteroscedastic DLG
// covariance: wᵢ = 1/σᵢ², with unknown σ treated as 1. Assign it to
// NRSolver.Weight to make NR the WLS counterpart of a weighted DLG.
func SigmaWeight(o Observation) float64 {
	s := obsSigma(o)
	return 1 / (s * s)
}
