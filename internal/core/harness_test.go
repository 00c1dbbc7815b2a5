package core

import (
	"math"
	"math/rand"
	"testing"

	"gpsdl/internal/geo"
)

// Differential solver harness: the engine's default DLG route is the
// Sherman–Morrison fast path, so this file is the safety net proving it
// interchangeable with the paper-faithful dense Cholesky route and the
// literal eq. 4-21 reference across randomized geometries, weight
// spectra, satellite counts m=4…16, and base selections. Every case is
// seeded — failures replay exactly.

// gpsShellRadius is the GPS orbital radius used to place synthetic
// satellites along a chosen line of sight.
const gpsShellRadius = 26.56e6

// synthScene builds a fully synthetic geometry: a receiver anywhere on
// Earth and m satellites at the GPS shell radius along random
// elevation/azimuth rays. Unlike scene() it is not limited by what the
// default constellation has visible, so m sweeps to 16 and geometries
// cover the whole sky.
func synthScene(rng *rand.Rand, m int) (recv geo.ECEF, obs []Observation, biasM float64) {
	lat := (rng.Float64()*2 - 1) * 80
	lon := (rng.Float64()*2 - 1) * 180
	recv = geo.FromDegrees(lat, lon, rng.Float64()*2000).ToECEF()
	biasM = (rng.Float64()*2 - 1) * 5000
	obs = make([]Observation, 0, m)
	for i := 0; i < m; i++ {
		elev := (5 + rng.Float64()*80) * math.Pi / 180
		azim := rng.Float64() * 2 * math.Pi
		// Unit line-of-sight in ENU, then the range s to the shell:
		// ‖recv + s·u‖ = R.
		u := geo.ENU{
			E: math.Cos(elev) * math.Sin(azim),
			N: math.Cos(elev) * math.Cos(azim),
			U: math.Sin(elev),
		}
		target := geo.FromENU(recv, u)
		dir := target.Sub(recv) // unit vector in ECEF
		pu := recv.Dot(dir)
		s := -pu + math.Sqrt(pu*pu+gpsShellRadius*gpsShellRadius-recv.Dot(recv))
		pos := recv.Add(dir.Scale(s))
		obs = append(obs, Observation{
			Pos:         pos,
			Pseudorange: recv.DistanceTo(pos) + biasM,
			Elevation:   elev,
		})
	}
	return recv, obs, biasM
}

// weightSpectrum draws per-satellite σ vectors spanning the regimes the
// fast path must survive: homoscedastic, a 1000:1 variance spread,
// near-zero diagonal entries, and a huge shared (base) term that makes
// the rank-one correction dominate the diagonal.
type weightSpectrum struct {
	name string
	tol  float64 // relative agreement bound between variants
	gen  func(rng *rand.Rand, m, base int) []float64
}

var weightSpectra = []weightSpectrum{
	{"uniform", 1e-9, func(rng *rand.Rand, m, base int) []float64 {
		s := make([]float64, m)
		for i := range s {
			s[i] = 1
		}
		return s
	}},
	{"spread-1000x", 1e-9, func(rng *rand.Rand, m, base int) []float64 {
		s := make([]float64, m)
		for i := range s {
			// σ² log-uniform over three decades → 1000:1 condition spread.
			s[i] = math.Pow(10, rng.Float64()*1.5)
		}
		return s
	}},
	// Two almost-noise-free satellites: diagonal entries 1e-4 of their
	// neighbors, the stiffest Ψ this model produces. The tolerance is
	// conditioning-limited, not implementation-limited: the normal
	// matrix condition grows with the diagonal ratio, so at 1e-4 ratio
	// every route (including the dense reference) only carries ~6-7
	// significant digits at m=4 where the differenced system has zero
	// redundancy. (At 1e-6 ratio all three routes diverge at the 1e-3
	// level and the comparison stops measuring implementation
	// differences at all.) The seeded sweep's worst observed divergence
	// is 2.3e-6 relative; the bound carries ~4× margin.
	{"near-zero-diag", 1e-5, func(rng *rand.Rand, m, base int) []float64 {
		s := make([]float64, m)
		for i := range s {
			s[i] = 1
		}
		s[(base+1)%m] = 1e-2
		s[(base+2)%m] = 1e-2
		return s
	}},
	// A terrible base satellite: the shared ρ₁²σ₁² term dwarfs every
	// diagonal entry by 1e6, exercising the γ → 1/Σ(1/d) limit of the
	// Sherman–Morrison correction. Rank-one dominance puts Ψ's
	// condition at ~1e6 too, so like near-zero-diag the agreement bound
	// is conditioning-limited (worst observed 2.1e-7 relative at m=4).
	{"huge-shared", 1e-6, func(rng *rand.Rand, m, base int) []float64 {
		s := make([]float64, m)
		for i := range s {
			s[i] = 1
		}
		s[base] = 1e3
		return s
	}},
}

// TestDLGVariantsEquivalentAcrossWeightSpectra is the kernel-level sweep:
// identical (rows, d, diag, shared) inputs through all three GLS routes
// must agree to tight relative tolerance, for every spectrum, m=4…16,
// and three base choices per case.
func TestDLGVariantsEquivalentAcrossWeightSpectra(t *testing.T) {
	for _, spec := range weightSpectra {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(401))
			cases, skipped := 0, 0
			for m := 4; m <= 16; m++ {
				for trial := 0; trial < 6; trial++ {
					recv, obs, bias := synthScene(rng, m)
					_ = recv
					sigma := spec.gen(rng, m, 0)
					for i := range obs {
						obs[i].Pseudorange += rng.NormFloat64() * 3 * sigma[i]
					}
					rhoE := make([]float64, m)
					for i, o := range obs {
						rhoE[i] = o.Pseudorange - bias
					}
					for _, base := range []int{0, m - 1, rng.Intn(m)} {
						sigma := spec.gen(rng, m, base)
						rows, d := buildDifferenced(nil, obs, rhoE, base)
						diag := make([]float64, 0, len(rows))
						for j := range obs {
							if j == base {
								continue
							}
							v := rhoE[j] * sigma[j]
							diag = append(diag, v*v)
						}
						vb := rhoE[base] * sigma[base]
						shared := vb * vb

						xs := map[string][3]float64{}
						var failed []string
						for name, solve := range map[string]func() ([3]float64, error){
							"paper":    func() ([3]float64, error) { return solveGLSPaper(&Scratch{}, rows, d, diag, shared) },
							"fast":     func() ([3]float64, error) { return solveGLSFast(rows, d, diag, shared) },
							"explicit": func() ([3]float64, error) { return solveGLSExplicit(rows, d, diag, shared) },
						} {
							x, err := solve()
							if err != nil {
								failed = append(failed, name)
								continue
							}
							xs[name] = x
						}
						// The differential contract: all three succeed and
						// agree, or the geometry is degenerate for at least
						// one route and the case is skipped (counted so a
						// generator bug cannot silently skip everything).
						if len(failed) > 0 {
							skipped++
							continue
						}
						cases++
						ref := xs["explicit"]
						for name, x := range xs {
							for k := 0; k < 3; k++ {
								if diff := math.Abs(x[k] - ref[k]); diff > spec.tol*(1+math.Abs(ref[k])) {
									t.Errorf("%s m=%d base=%d trial=%d %s[%d]: %.12g vs explicit %.12g (rel diff %g)",
										spec.name, m, base, trial, name, k, x[k], ref[k],
										diff/(1+math.Abs(ref[k])))
								}
							}
						}
					}
				}
			}
			if cases < 100 {
				t.Fatalf("%s: only %d comparable cases (%d skipped) — generator degenerate", spec.name, cases, skipped)
			}
		})
	}
}

// TestDLGSolverVariantsEquivalentEndToEnd drives the full DLGSolver —
// clock correction, base selection, covariance assembly — through all
// three variants on the same weighted observations and requires the
// fixes to coincide. This is the solver-level statement of the kernel
// sweep above, covering the code the engine actually calls.
func TestDLGSolverVariantsEquivalentEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	selectors := map[string]BaseSelector{
		"first":   BaseFirst{},
		"highest": BaseHighestElevation{},
		"nearest": BaseNearest{},
	}
	for m := 4; m <= 16; m += 3 {
		for selName, sel := range selectors {
			for _, weighted := range []bool{false, true} {
				_, obs, bias := synthScene(rng, m)
				for i := range obs {
					sigma := math.Pow(10, rng.Float64()*1.2)
					if weighted {
						obs[i].Sigma = sigma
					}
					obs[i].Pseudorange += rng.NormFloat64() * sigma
				}
				sols := map[string]Solution{}
				for v, s := range dlgRoutes(DLGSolver{Predictor: oracle(bias), Base: sel, Weighted: weighted}) {
					sol, err := s.Solve(1000, obs)
					if err != nil {
						t.Fatalf("m=%d sel=%s weighted=%v %s: %v", m, selName, weighted, v, err)
					}
					sols[v] = sol
				}
				ref := sols["explicit"]
				for v, sol := range sols {
					if d := sol.Pos.DistanceTo(ref.Pos); d > 1e-3 {
						t.Errorf("m=%d sel=%s weighted=%v: %s and explicit fixes differ by %g m",
							m, selName, weighted, v, d)
					}
					if sol.ClockBias != ref.ClockBias {
						t.Errorf("m=%d sel=%s weighted=%v: %s clock bias %g vs %g",
							m, selName, weighted, v, sol.ClockBias, ref.ClockBias)
					}
				}
			}
		}
	}
}

// TestDLGWeightedBaseInvariance: GLS is invariant under invertible
// re-combinations of the observation equations when the covariance is
// transformed consistently — and re-basing the differencing is exactly
// such a re-combination. So unlike DLO (whose OLS estimate moves with
// the base), the weighted DLG fix must not depend on which satellite is
// the base beyond numerical noise. This is the BaseSelector×weighting
// property the conditioning story rests on: base choice reshapes Ψ's
// conditioning, not the estimator.
func TestDLGWeightedBaseInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	for m := 5; m <= 16; m += 2 {
		for trial := 0; trial < 4; trial++ {
			for _, weighted := range []bool{false, true} {
				_, obs, bias := synthScene(rng, m)
				for i := range obs {
					sigma := math.Pow(10, rng.Float64()*1.5)
					if weighted {
						obs[i].Sigma = sigma
					}
					obs[i].Pseudorange += rng.NormFloat64() * sigma
				}
				var ref Solution
				for bi, sel := range []BaseSelector{BaseFirst{}, BaseHighestElevation{}, BaseNearest{}, fixedBase(m - 1)} {
					s := &DLGSolver{Predictor: oracle(bias), Base: sel, Variant: VariantFast, Weighted: weighted}
					sol, err := s.Solve(2000, obs)
					if err != nil {
						t.Fatalf("m=%d trial=%d weighted=%v base#%d: %v", m, trial, weighted, bi, err)
					}
					if bi == 0 {
						ref = sol
						continue
					}
					if d := sol.Pos.DistanceTo(ref.Pos); d > 1e-3 {
						t.Errorf("m=%d trial=%d weighted=%v: base#%d moved the fix by %g m",
							m, trial, weighted, bi, d)
					}
				}
			}
		}
	}
}

// TestDLGWeightedSigmaOneMatchesUnweighted: Weighted with every Sigma
// unset (or exactly 1) must reproduce the unweighted covariance bit for
// bit — this is the guarantee that lets the engine flip the default
// variant and enable weighting plumbing without perturbing sigma-free
// scenarios.
func TestDLGWeightedSigmaOneMatchesUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for m := 4; m <= 16; m += 4 {
		_, obs, bias := synthScene(rng, m)
		for i := range obs {
			obs[i].Pseudorange += rng.NormFloat64() * 4
		}
		weightedRoutes := dlgRoutes(DLGSolver{Predictor: oracle(bias), Weighted: true})
		for v, plain := range dlgRoutes(DLGSolver{Predictor: oracle(bias)}) {
			weighted := weightedRoutes[v]
			a, errA := plain.Solve(3000, obs)
			b, errB := weighted.Solve(3000, obs)
			if errA != nil || errB != nil {
				t.Fatalf("m=%d %s: errs %v / %v", m, v, errA, errB)
			}
			if a != b {
				t.Errorf("m=%d %s: weighted σ≡1 solution %+v differs from unweighted %+v", m, v, a, b)
			}
			withOnes := append([]Observation(nil), obs...)
			for i := range withOnes {
				withOnes[i].Sigma = 1
			}
			c, err := weighted.Solve(3000, withOnes)
			if err != nil {
				t.Fatalf("m=%d %s: %v", m, v, err)
			}
			if c != a {
				t.Errorf("m=%d %s: explicit σ=1 solution %+v differs from unweighted %+v", m, v, c, a)
			}
		}
	}
}

// TestDLGWeightedDownweightsBiasedSatellite: the end-to-end payoff — a
// satellite carrying a large bias but an honest (inflated) σ should
// barely move the weighted fix, while the unweighted fix absorbs the
// full hit. Checked across geometries so it cannot pass by luck.
func TestDLGWeightedDownweightsBiasedSatellite(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	better := 0
	const trials = 24
	for trial := 0; trial < trials; trial++ {
		recv, obs, bias := synthScene(rng, 9)
		for i := range obs {
			obs[i].Pseudorange += rng.NormFloat64() * 2
		}
		// One satellite off by 300 m, flagged with σ = 100 (as the
		// disruption detector would).
		obs[2].Pseudorange += 300
		flagged := append([]Observation(nil), obs...)
		flagged[2].Sigma = 100

		plain := &DLGSolver{Predictor: oracle(bias)}
		weighted := &DLGSolver{Predictor: oracle(bias), Variant: VariantFast, Weighted: true}
		pa, errA := plain.Solve(4000, obs)
		wb, errB := weighted.Solve(4000, flagged)
		if errA != nil || errB != nil {
			t.Fatalf("trial %d: errs %v / %v", trial, errA, errB)
		}
		if wb.Pos.DistanceTo(recv) < pa.Pos.DistanceTo(recv) {
			better++
		}
	}
	if better < trials*3/4 {
		t.Errorf("weighted fix beat unweighted on only %d/%d biased-satellite scenes", better, trials)
	}
}

// TestNRSigmaWeightMatchesDLGWeighting: SigmaWeight is the NR-side
// counterpart of the DLG heteroscedastic covariance. With a biased,
// honestly-flagged satellite the WLS fix must stay near truth where the
// OLS fix is dragged off.
func TestNRSigmaWeightMatchesDLGWeighting(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	recv, obs, _ := synthScene(rng, 8)
	for i := range obs {
		obs[i].Pseudorange += rng.NormFloat64() * 1.5
	}
	obs[3].Pseudorange += 250
	obs[3].Sigma = 80

	plain := &NRSolver{}
	weighted := &NRSolver{Weight: SigmaWeight}
	pa, errA := plain.Solve(0, obs)
	wb, errB := weighted.Solve(0, obs)
	if errA != nil || errB != nil {
		t.Fatalf("errs %v / %v", errA, errB)
	}
	de, dw := pa.Pos.DistanceTo(recv), wb.Pos.DistanceTo(recv)
	if dw >= de {
		t.Errorf("WLS error %g m not below OLS error %g m with flagged satellite", dw, de)
	}
	if dw > 15 {
		t.Errorf("WLS error %g m too large with the fault flagged", dw)
	}
}

// TestDisruptionDetectorFlagsSpoofedPair: two simultaneously biased
// satellites defeat RAIM's single-fault exclusion, but the detector
// must flag exactly the spoofed pair off the innovation statistics and
// leave the clean ones untouched.
func TestDisruptionDetectorFlagsSpoofedPair(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	recv, obs, bias := synthScene(rng, 10)
	for i := range obs {
		obs[i].Pseudorange += rng.NormFloat64() * 2
	}
	obs[1].Pseudorange += 400
	obs[6].Pseudorange -= 350

	ref := Solution{Pos: recv, ClockBias: bias}
	det := &DisruptionDetector{}
	n := det.Downweight(ref, obs)
	if n != 2 {
		t.Fatalf("Downweight flagged %d satellites, want 2", n)
	}
	for i, o := range obs {
		flagged := o.Sigma > 1
		want := i == 1 || i == 6
		if flagged != want {
			t.Errorf("obs[%d]: flagged=%v want %v (sigma=%g)", i, flagged, want, o.Sigma)
		}
	}
}

// TestDisruptionDetectorQuietEpochUntouched: a clean epoch must produce
// zero suspects — the MinResidualM floor keeps a tiny MAD from turning
// ordinary noise into false alarms.
func TestDisruptionDetectorQuietEpochUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(408))
	for trial := 0; trial < 10; trial++ {
		recv, obs, bias := synthScene(rng, 8+trial%5)
		for i := range obs {
			obs[i].Pseudorange += rng.NormFloat64() * 2
		}
		det := &DisruptionDetector{}
		if n := det.Downweight(Solution{Pos: recv, ClockBias: bias}, obs); n != 0 {
			t.Errorf("trial %d: clean epoch produced %d suspects", trial, n)
		}
	}
}

// TestDisruptionDetectorEdgeCases: small constellations and non-finite
// references must be no-ops.
func TestDisruptionDetectorEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	recv, obs, bias := synthScene(rng, 5)
	det := &DisruptionDetector{}
	if n := det.Downweight(Solution{Pos: recv, ClockBias: bias}, obs); n != 0 {
		t.Errorf("5-satellite epoch scored %d suspects, want 0 (below minimum)", n)
	}
	_, obs10, _ := synthScene(rng, 10)
	if n := det.Downweight(Solution{Pos: geo.ECEF{X: math.NaN()}, ClockBias: 0}, obs10); n != 0 {
		t.Errorf("NaN reference scored %d suspects, want 0", n)
	}
}

// TestSigmaFromCN0RoundTrip: the C/N0 ↔ σ mapping must invert exactly
// and be monotone (weaker signal → larger σ).
func TestSigmaFromCN0RoundTrip(t *testing.T) {
	for _, cn0 := range []float64{20, 30, 37.5, 44, 50, 55} {
		sigma := SigmaFromCN0(cn0)
		if sigma <= 0 {
			t.Fatalf("SigmaFromCN0(%g) = %g", cn0, sigma)
		}
		if back := CN0FromSigma(sigma); math.Abs(back-cn0) > 1e-9 {
			t.Errorf("round trip %g → %g → %g", cn0, sigma, back)
		}
	}
	if !(SigmaFromCN0(30) > SigmaFromCN0(44)) {
		t.Error("σ not monotone decreasing in C/N0")
	}
	for _, bad := range []float64{0, -5, math.NaN(), math.Inf(1)} {
		if s := SigmaFromCN0(bad); s != 0 {
			t.Errorf("SigmaFromCN0(%g) = %g, want 0 (unknown)", bad, s)
		}
	}
	// 20 dB-Hz of loss must cost exactly one decade of σ.
	if ratio := SigmaFromCN0(24) / SigmaFromCN0(44); math.Abs(ratio-10) > 1e-9 {
		t.Errorf("σ(24)/σ(44) = %g, want 10", ratio)
	}
}

// TestSigmaWeightDefaults: unknown σ weighs as 1, known σ as 1/σ².
func TestSigmaWeightDefaults(t *testing.T) {
	if w := SigmaWeight(Observation{}); w != 1 {
		t.Errorf("SigmaWeight(unset) = %g, want 1", w)
	}
	if w := SigmaWeight(Observation{Sigma: 2}); w != 0.25 {
		t.Errorf("SigmaWeight(σ=2) = %g, want 0.25", w)
	}
}

// TestCheckMinObsRejectsBadSigma: negative or non-finite Sigma must fail
// validation in every solver, like any other non-finite measurement.
func TestCheckMinObsRejectsBadSigma(t *testing.T) {
	rng := rand.New(rand.NewSource(410))
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		_, obs, _ := synthScene(rng, 6)
		obs[2].Sigma = bad
		if err := checkMinObs("test", obs, 4); err == nil {
			t.Errorf("Sigma=%g accepted", bad)
		}
	}
}
