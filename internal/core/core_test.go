package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gpsdl/internal/clock"
	"gpsdl/internal/geo"
	"gpsdl/internal/mat"
	"gpsdl/internal/orbit"
)

// visible lists the satellites of cons above elevMask as seen from recv
// at time t, by descending elevation.
func visible(cons *orbit.Constellation, recv geo.ECEF, t, elevMask float64) ([]orbit.InView, error) {
	var st orbit.EpochState
	if err := cons.StateAt(t, &st); err != nil {
		return nil, err
	}
	return orbit.VisibleFromState(&st, recv, elevMask), nil
}

// scene builds noise-free observations for a receiver at recv with a given
// range-domain clock bias (meters), using the default constellation at
// time t. Satellite-dependent noise can be added per-observation by the
// caller.
func scene(t testing.TB, recv geo.ECEF, epoch, biasMeters float64, m int) []Observation {
	t.Helper()
	cons := orbit.DefaultConstellation()
	vis, err := visible(cons, recv, epoch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vis) < m {
		t.Fatalf("only %d satellites visible, need %d", len(vis), m)
	}
	obs := make([]Observation, 0, m)
	for _, v := range vis[:m] {
		obs = append(obs, Observation{
			Pos:         v.State.Pos,
			Pseudorange: recv.DistanceTo(v.State.Pos) + biasMeters,
			Elevation:   v.Elevation,
		})
	}
	return obs
}

func yyr1() geo.ECEF { return geo.ECEF{X: 1885341.558, Y: -3321428.098, Z: 5091171.168} }

// oracle returns a predictor that knows the exact bias in seconds.
func oracle(biasMeters float64) clock.Predictor {
	return &clock.OraclePredictor{Model: &clock.SteeringModel{Offset: biasMeters / geo.SpeedOfLight}}
}

func TestNRRecoversExactPosition(t *testing.T) {
	recv := yyr1()
	for _, m := range []int{4, 6, 8, 10} {
		obs := scene(t, recv, 3600, 150, m)
		var s NRSolver
		sol, err := s.Solve(0, obs)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if d := sol.Pos.DistanceTo(recv); d > 1e-3 {
			t.Errorf("m=%d: position error %v m", m, d)
		}
		if math.Abs(sol.ClockBias-150) > 1e-3 {
			t.Errorf("m=%d: clock bias %v, want 150", m, sol.ClockBias)
		}
		if sol.Iterations < 2 || sol.Iterations > 15 {
			t.Errorf("m=%d: iterations = %d", m, sol.Iterations)
		}
	}
}

func TestNRTooFewSatellites(t *testing.T) {
	obs := scene(t, yyr1(), 0, 0, 4)[:3]
	var s NRSolver
	if _, err := s.Solve(0, obs); !errors.Is(err, ErrTooFewSatellites) {
		t.Errorf("error = %v, want ErrTooFewSatellites", err)
	}
}

func TestNRNoConvergenceWithTinyBudget(t *testing.T) {
	obs := scene(t, yyr1(), 0, 0, 6)
	s := NRSolver{MaxIter: 1}
	if _, err := s.Solve(0, obs); !errors.Is(err, ErrNoConvergence) {
		t.Errorf("error = %v, want ErrNoConvergence", err)
	}
}

func TestNRWarmStartConvergesFaster(t *testing.T) {
	recv := yyr1()
	obs := scene(t, recv, 3600, 42, 8)
	var cold NRSolver
	coldSol, err := cold.Solve(0, obs)
	if err != nil {
		t.Fatal(err)
	}
	warm := NRSolver{InitialGuess: &Solution{Pos: recv, ClockBias: 42}}
	warmSol, err := warm.Solve(0, obs)
	if err != nil {
		t.Fatal(err)
	}
	if warmSol.Iterations >= coldSol.Iterations {
		t.Errorf("warm start took %d iterations, cold %d", warmSol.Iterations, coldSol.Iterations)
	}
	if d := warmSol.Pos.DistanceTo(recv); d > 1e-3 {
		t.Errorf("warm-start position error %v", d)
	}
}

func TestNRHandlesLargeClockBias(t *testing.T) {
	// A threshold clock just before reset: 1 ms ≈ 300 km of range bias.
	recv := yyr1()
	bias := 0.999e-3 * geo.SpeedOfLight
	obs := scene(t, recv, 7200, bias, 9)
	var s NRSolver
	sol, err := s.Solve(0, obs)
	if err != nil {
		t.Fatal(err)
	}
	if d := sol.Pos.DistanceTo(recv); d > 1e-2 {
		t.Errorf("position error %v m under 300 km clock bias", d)
	}
	if math.Abs(sol.ClockBias-bias) > 1e-2 {
		t.Errorf("clock bias error %v m", sol.ClockBias-bias)
	}
}

func TestDLORecoversPositionNoiseFree(t *testing.T) {
	recv := yyr1()
	bias := 30.0 // meters
	for _, m := range []int{4, 6, 8, 10} {
		obs := scene(t, recv, 5400, bias, m)
		s := NewDLOSolver(oracle(bias))
		sol, err := s.Solve(5400, obs)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		d := sol.Pos.DistanceTo(recv)
		t.Logf("m=%d: DLO noise-free error %.4f m", m, d)
		// Direct linearization carries ~decimeter float64 cancellation
		// noise at ECEF magnitudes (documented in buildDifferenced).
		if d > 0.5 {
			t.Errorf("m=%d: position error %v m", m, d)
		}
		if sol.Iterations != 1 {
			t.Errorf("DLO iterations = %d, want 1", sol.Iterations)
		}
	}
}

func TestDLGRecoversPositionNoiseFree(t *testing.T) {
	recv := yyr1()
	bias := -75.0
	for _, m := range []int{4, 6, 8, 10} {
		obs := scene(t, recv, 9000, bias, m)
		s := NewDLGSolver(oracle(bias))
		sol, err := s.Solve(9000, obs)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		d := sol.Pos.DistanceTo(recv)
		t.Logf("m=%d: DLG noise-free error %.4f m", m, d)
		if d > 0.5 {
			t.Errorf("m=%d: position error %v m", m, d)
		}
	}
}

func TestDLGExplicitMatchesFastPath(t *testing.T) {
	recv := yyr1()
	bias := 12.0
	rng := rand.New(rand.NewSource(5))
	for _, m := range []int{4, 7, 10} {
		obs := scene(t, recv, 1234, bias, m)
		// Perturb with noise so the over-determined paths matter.
		for i := range obs {
			obs[i].Pseudorange += rng.NormFloat64() * 3
		}
		fast := &DLGSolver{Predictor: oracle(bias), Variant: VariantFast}
		slow := &explicitDLG{DLGSolver{Predictor: oracle(bias)}}
		fs, err := fast.Solve(1234, obs)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := slow.Solve(1234, obs)
		if err != nil {
			t.Fatal(err)
		}
		if d := fs.Pos.DistanceTo(ss.Pos); d > 1e-4 {
			t.Errorf("m=%d: fast vs explicit differ by %v m", m, d)
		}
	}
}

func TestDirectSolversRequireCalibratedPredictor(t *testing.T) {
	obs := scene(t, yyr1(), 0, 0, 6)
	uncal := clock.NewLinearPredictor(5, 0)
	for _, s := range []Solver{NewDLOSolver(uncal), NewDLGSolver(uncal)} {
		if _, err := s.Solve(0, obs); !errors.Is(err, ErrNoClockPrediction) {
			t.Errorf("%s error = %v, want ErrNoClockPrediction", s.Name(), err)
		}
	}
}

func TestDirectSolversTooFewSatellites(t *testing.T) {
	obs := scene(t, yyr1(), 0, 0, 4)[:3]
	for _, s := range []Solver{NewDLOSolver(oracle(0)), NewDLGSolver(oracle(0)), BancroftSolver{}} {
		if _, err := s.Solve(0, obs); !errors.Is(err, ErrTooFewSatellites) {
			t.Errorf("%s error = %v, want ErrTooFewSatellites", s.Name(), err)
		}
	}
}

func TestSolverNames(t *testing.T) {
	tests := []struct {
		s    Solver
		want string
	}{
		{&NRSolver{}, "NR"},
		{NewDLOSolver(oracle(0)), "DLO"},
		{NewDLGSolver(oracle(0)), "DLG"},
		{BancroftSolver{}, "Bancroft"},
	}
	for _, tt := range tests {
		if got := tt.s.Name(); got != tt.want {
			t.Errorf("Name = %q, want %q", got, tt.want)
		}
	}
}

func TestBancroftRecoversPositionAndBias(t *testing.T) {
	recv := yyr1()
	for _, m := range []int{4, 6, 10} {
		bias := 250.0
		obs := scene(t, recv, 4321, bias, m)
		var s BancroftSolver
		sol, err := s.Solve(0, obs)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if d := sol.Pos.DistanceTo(recv); d > 0.5 {
			t.Errorf("m=%d: position error %v m", m, d)
		}
		if math.Abs(sol.ClockBias-bias) > 0.5 {
			t.Errorf("m=%d: bias %v, want %v", m, sol.ClockBias, bias)
		}
	}
}

func TestBancroftNegativeBias(t *testing.T) {
	recv := yyr1()
	obs := scene(t, recv, 100, -1000, 8)
	var s BancroftSolver
	sol, err := s.Solve(0, obs)
	if err != nil {
		t.Fatal(err)
	}
	if d := sol.Pos.DistanceTo(recv); d > 0.5 {
		t.Errorf("position error %v m", d)
	}
	if math.Abs(sol.ClockBias+1000) > 0.5 {
		t.Errorf("bias %v, want -1000", sol.ClockBias)
	}
}

func TestBaseSelectors(t *testing.T) {
	obs := []Observation{
		{Pseudorange: 2.2e7, Elevation: 0.3},
		{Pseudorange: 2.0e7, Elevation: 1.2},
		{Pseudorange: 2.5e7, Elevation: 0.1},
		{Pseudorange: 2.1e7, Elevation: 0.9},
	}
	if got := (BaseFirst{}).SelectBase(obs); got != 0 {
		t.Errorf("BaseFirst = %d", got)
	}
	if got := (BaseHighestElevation{}).SelectBase(obs); got != 1 {
		t.Errorf("BaseHighestElevation = %d", got)
	}
	if got := (BaseNearest{}).SelectBase(obs); got != 1 {
		t.Errorf("BaseNearest = %d", got)
	}
	r := NewBaseRandom(1)
	seen := make(map[int]bool)
	for i := 0; i < 100; i++ {
		idx := r.SelectBase(obs)
		if idx < 0 || idx >= len(obs) {
			t.Fatalf("BaseRandom out of range: %d", idx)
		}
		seen[idx] = true
	}
	if len(seen) < 2 {
		t.Error("BaseRandom never varied")
	}
	if got := r.SelectBase(nil); got != 0 {
		t.Errorf("BaseRandom(empty) = %d", got)
	}
}

func TestDLGBaseSelectionAllWork(t *testing.T) {
	recv := yyr1()
	bias := 5.0
	obs := scene(t, recv, 2500, bias, 8)
	selectors := []BaseSelector{BaseFirst{}, NewBaseRandom(3), BaseHighestElevation{}, BaseNearest{}}
	for _, sel := range selectors {
		s := &DLGSolver{Predictor: oracle(bias), Base: sel}
		sol, err := s.Solve(2500, obs)
		if err != nil {
			t.Fatalf("%T: %v", sel, err)
		}
		if d := sol.Pos.DistanceTo(recv); d > 0.5 {
			t.Errorf("%T: position error %v m", sel, d)
		}
	}
}

// Theorem 4.1 (empirical): the differenced errors Δβ have nonzero pairwise
// covariance ≈ ρ₁²σ², and Theorem 4.2's variance ≈ (ρ₁²+ρⱼ²)σ². We verify
// the *structure* by Monte-Carlo over noise realizations at fixed geometry.
func TestTheorem41CovarianceStructure(t *testing.T) {
	recv := yyr1()
	clean := scene(t, recv, 6000, 0, 5)
	rhoTrue := make([]float64, len(clean))
	for i, o := range clean {
		rhoTrue[i] = recv.DistanceTo(o.Pos)
	}
	_, dClean := buildDifferenced(nil, clean, rhoTrue, 0)

	const (
		trials = 20000
		sigma  = 5.0
	)
	rng := rand.New(rand.NewSource(99))
	k := len(clean) - 1
	sum := make([]float64, k)
	sumProd := make([][]float64, k)
	for i := range sumProd {
		sumProd[i] = make([]float64, k)
	}
	noisy := make([]Observation, len(clean))
	rho := make([]float64, len(clean))
	for trial := 0; trial < trials; trial++ {
		copy(noisy, clean)
		for i := range noisy {
			rho[i] = rhoTrue[i] + sigma*rng.NormFloat64()
		}
		_, d := buildDifferenced(nil, noisy, rho, 0)
		for i := 0; i < k; i++ {
			db := d[i] - dClean[i]
			sum[i] += db
			for j := 0; j <= i; j++ {
				sumProd[i][j] += db * (d[j] - dClean[j])
			}
		}
	}
	// Theory: cov(Δβᵢ, Δβⱼ) = ρ₁²σ² for i≠j (eq. 4-20);
	// var(Δβᵢ) = (ρ₁² + ρᵢ₊₁²)σ² (eq. 4-26 diagonal).
	rho1sq := rhoTrue[0] * rhoTrue[0]
	for i := 0; i < k; i++ {
		meanI := sum[i] / trials
		varI := sumProd[i][i]/trials - meanI*meanI
		wantVar := (rho1sq + rhoTrue[i+1]*rhoTrue[i+1]) * sigma * sigma
		if rel := math.Abs(varI-wantVar) / wantVar; rel > 0.1 {
			t.Errorf("var(Δβ%d) = %g, want %g (rel err %.2f)", i, varI, wantVar, rel)
		}
		for j := 0; j < i; j++ {
			meanJ := sum[j] / trials
			covIJ := sumProd[i][j]/trials - meanI*meanJ
			wantCov := rho1sq * sigma * sigma
			if rel := math.Abs(covIJ-wantCov) / wantCov; rel > 0.15 {
				t.Errorf("cov(Δβ%d, Δβ%d) = %g, want %g (rel err %.2f)", i, j, covIJ, wantCov, rel)
			}
		}
	}
}

// With correlated differenced errors, DLG must not be worse than DLO on
// average (Theorem 4.2 says it is optimal). Monte-Carlo at fixed geometry.
func TestDLGBeatsDLOOnAverage(t *testing.T) {
	recv := yyr1()
	clean := scene(t, recv, 4000, 0, 9)
	rng := rand.New(rand.NewSource(123))
	const trials = 400
	var sumDLO, sumDLG float64
	noisy := make([]Observation, len(clean))
	for trial := 0; trial < trials; trial++ {
		copy(noisy, clean)
		for i := range noisy {
			noisy[i].Pseudorange += 4 * rng.NormFloat64()
		}
		dlo := NewDLOSolver(oracle(0))
		dlg := NewDLGSolver(oracle(0))
		so, err := dlo.Solve(4000, noisy)
		if err != nil {
			t.Fatal(err)
		}
		sg, err := dlg.Solve(4000, noisy)
		if err != nil {
			t.Fatal(err)
		}
		sumDLO += so.Pos.DistanceTo(recv)
		sumDLG += sg.Pos.DistanceTo(recv)
	}
	t.Logf("mean error: DLO %.3f m, DLG %.3f m", sumDLO/trials, sumDLG/trials)
	if sumDLG > sumDLO*1.02 {
		t.Errorf("DLG mean error %.3f m worse than DLO %.3f m", sumDLG/trials, sumDLO/trials)
	}
}

func TestComputeDOP(t *testing.T) {
	recv := yyr1()
	obs := scene(t, recv, 3000, 0, 8)
	dop, err := DOPFromObs(recv, obs)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: GDOP ≥ PDOP ≥ HDOP, all positive, typical magnitudes.
	if !(dop.GDOP >= dop.PDOP && dop.PDOP >= dop.HDOP) {
		t.Errorf("DOP ordering violated: %+v", dop)
	}
	if dop.PDOP < 1 || dop.PDOP > 10 {
		t.Errorf("PDOP = %v, implausible for 8 satellites", dop.PDOP)
	}
	if dop.GDOP*dop.GDOP < dop.PDOP*dop.PDOP+dop.TDOP*dop.TDOP-1e-9 {
		t.Errorf("GDOP² != PDOP² + TDOP²: %+v", dop)
	}
}

func TestComputeDOPErrors(t *testing.T) {
	recv := yyr1()
	if _, err := DOPFromObs(recv, make([]Observation, 3)); !errors.Is(err, ErrTooFewSatellites) {
		t.Errorf("error = %v, want ErrTooFewSatellites", err)
	}
	// All satellites at the same point: singular geometry.
	same := make([]Observation, 4)
	for i := range same {
		same[i].Pos = geo.ECEF{X: 2.6e7}
	}
	if _, err := DOPFromObs(recv, same); err == nil {
		t.Error("DOPFromObs with degenerate geometry succeeded")
	}
}

// TestDOPFromObsLLAMatchesDOPFromObs: handing DOPFromObsLLA the
// receiver's own ToLLA changes nothing, bit for bit, across epochs,
// satellite counts and receiver positions off the station; handing it
// ToLLAFast moves the factors by no more than rounding.
func TestDOPFromObsLLAMatchesDOPFromObs(t *testing.T) {
	for _, recv := range []geo.ECEF{yyr1(), {X: -2.7e6, Y: -4.3e6, Z: 3.85e6}, {X: 6.37e6, Y: 1, Z: -2}} {
		for _, epoch := range []float64{0, 3000, 40000} {
			for _, m := range []int{4, 6, 8} {
				obs := scene(t, recv, epoch, 0, m)
				p := recv.Add(geo.ECEF{X: 3.5, Y: -1.25, Z: 7})
				want, werr := DOPFromObs(p, obs)
				got, gerr := DOPFromObsLLA(p, p.ToLLA(), obs)
				if got != want || (werr == nil) != (gerr == nil) {
					t.Errorf("recv %v epoch %v m %d: DOPFromObsLLA %+v (%v), DOPFromObs %+v (%v)", recv, epoch, m, got, gerr, want, werr)
				}
				// The fix path's conversion orients the frame just as well.
				fast, ferr := DOPFromObsLLA(p, p.ToLLAFast(), obs)
				if (werr == nil) != (ferr == nil) || math.Abs(fast.GDOP-want.GDOP) > 1e-12*want.GDOP ||
					math.Abs(fast.HDOP-want.HDOP) > 1e-12*want.HDOP {
					t.Errorf("recv %v epoch %v m %d: DOPFromObsLLA with ToLLAFast %+v (%v), DOPFromObs %+v (%v)", recv, epoch, m, fast, ferr, want, werr)
				}
			}
		}
	}
}

// BenchmarkDOPFromObsLLA is the per-fix DOP cost once the caller has the
// geodetic position; BenchmarkDOPFromObs adds the ToLLA it saves.
func BenchmarkDOPFromObsLLA(b *testing.B) {
	recv := yyr1()
	obs := scene(b, recv, 3000, 0, 8)
	lla := recv.ToLLA()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DOPFromObsLLA(recv, lla, obs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDOPFromObs(b *testing.B) {
	recv := yyr1()
	obs := scene(b, recv, 3000, 0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DOPFromObs(recv, obs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDOPMatchesDenseInverse checks the Cholesky DOP against the diagonal
// of the dense LU inverse of the same normal matrix, over real
// geometries: a day of the default constellation seen from receivers at
// the equator, mid and high latitudes and near a pole, all in view and
// the 4- and 5-satellite prefixes of each view.
func TestDOPMatchesDenseInverse(t *testing.T) {
	cons := orbit.DefaultConstellation()
	var checked int
	for _, ll := range [][2]float64{{0, 0}, {53.3, -60.4}, {-33.9, 151.2}, {78.2, 15.6}, {-89.99, 0}} {
		recv := geo.FromDegrees(ll[0], ll[1], 35).ToECEF()
		f := newENUFrame(recv.ToLLA())
		for epoch := 0.0; epoch < 86400; epoch += 900 {
			vis, err := visible(cons, recv, epoch, 5*math.Pi/180)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []int{4, 5, len(vis)} {
				if m > len(vis) {
					continue
				}
				var ata [16]float64
				dense := mat.NewDense(4, 4)
				for _, v := range vis[:m] {
					row, ok := f.row(recv, v.State.Pos)
					if !ok {
						t.Fatal("satellite at receiver")
					}
					accumulateDOPRow(&ata, row)
					for i := 0; i < 4; i++ {
						for j := 0; j < 4; j++ {
							dense.Set(i, j, dense.At(i, j)+row[i]*row[j])
						}
					}
				}
				inv, err := mat.Inverse(dense)
				if err != nil {
					t.Fatal(err)
				}
				got, err := dopFromNormal(ata)
				if err != nil {
					t.Fatalf("%v epoch %v m %d: %v", ll, epoch, m, err)
				}
				qe, qn, qu, qt := inv.At(0, 0), inv.At(1, 1), inv.At(2, 2), inv.At(3, 3)
				want := DOP{
					GDOP: math.Sqrt(qe + qn + qu + qt), PDOP: math.Sqrt(qe + qn + qu),
					HDOP: math.Sqrt(qe + qn), VDOP: math.Sqrt(qu), TDOP: math.Sqrt(qt),
				}
				if want.GDOP >= 50 {
					continue // near-singular subset: both sides lose digits
				}
				checked++
				for _, pair := range [][2]float64{{got.GDOP, want.GDOP}, {got.PDOP, want.PDOP},
					{got.HDOP, want.HDOP}, {got.VDOP, want.VDOP}, {got.TDOP, want.TDOP}} {
					if rel := math.Abs(pair[0]-pair[1]) / pair[1]; !(rel <= 1e-11) {
						t.Errorf("%v epoch %v m %d: Cholesky DOP %+v, LU %+v", ll, epoch, m, got, want)
						break
					}
				}
			}
		}
	}
	if checked < 1000 {
		t.Errorf("only %d geometries checked", checked)
	}
}

// TestDOPFromNormalDegenerate: a normal matrix that is not positive
// definite — rank deficient, zero, indefinite or carrying NaN —
// fails with ErrDegenerateGeometry instead of yielding dilution factors.
func TestDOPFromNormalDegenerate(t *testing.T) {
	cases := map[string][16]float64{
		// Rows e1+e4, e2+e4, e3+e4: rank 3, the last pivot is exactly 0.
		"rank 3":     {1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 1, 3},
		"zero":       {},
		"indefinite": {1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1},
		"NaN":        {math.NaN(), 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1},
		"NaN late":   {1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, math.NaN(), 0, 0, 0, 1},
	}
	for name, ata := range cases {
		if d, err := dopFromNormal(ata); !errors.Is(err, ErrDegenerateGeometry) {
			t.Errorf("%s: DOP %+v, error %v, want ErrDegenerateGeometry", name, d, err)
		}
	}
	if d, err := dopFromNormal([16]float64{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1}); err != nil || d.GDOP != 2 || d.HDOP != math.Sqrt2 {
		t.Errorf("identity: DOP %+v, error %v, want GDOP 2, HDOP √2", d, err)
	}
}

// BenchmarkDOPFromNormal is the 4×4 inversion alone, on an 8-satellite
// geometry.
func BenchmarkDOPFromNormal(b *testing.B) {
	recv := yyr1()
	obs := scene(b, recv, 3000, 0, 8)
	f := newENUFrame(recv.ToLLA())
	var ata [16]float64
	for i := range obs {
		row, _ := f.row(recv, obs[i].Pos)
		accumulateDOPRow(&ata, row)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dopFromNormal(ata); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFinite pins the one-subtraction finiteness check to the truth
// table of !IsNaN && !IsInf.
func TestFinite(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -2.5, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		want := !math.IsNaN(v) && !math.IsInf(v, 0)
		if got := finite(v); got != want {
			t.Errorf("finite(%v) = %v, want %v", v, got, want)
		}
	}
}

func TestSolveQuadratic(t *testing.T) {
	roots, n, err := solveQuadratic(1, -3, 2) // (x−1)(x−2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("got %d roots", n)
	}
	lo, hi := math.Min(roots[0], roots[1]), math.Max(roots[0], roots[1])
	if math.Abs(lo-1) > 1e-12 || math.Abs(hi-2) > 1e-12 {
		t.Errorf("roots = %v, want [1 2]", roots)
	}
	if _, _, err := solveQuadratic(1, 0, 1); err == nil {
		t.Error("complex roots not rejected")
	}
	roots, n, err = solveQuadratic(0, 2, -4)
	if err != nil || n != 1 || math.Abs(roots[0]-2) > 1e-12 {
		t.Errorf("linear case roots = %v (n=%d), err %v", roots, n, err)
	}
	if _, _, err := solveQuadratic(0, 0, 1); err == nil {
		t.Error("degenerate a=b=0 not rejected")
	}
}

func TestNRWeightedRecoversExactPosition(t *testing.T) {
	recv := yyr1()
	obs := scene(t, recv, 2400, 33, 8)
	s := NRSolver{Weight: ElevationWeight}
	sol, err := s.Solve(0, obs)
	if err != nil {
		t.Fatal(err)
	}
	if d := sol.Pos.DistanceTo(recv); d > 1e-3 {
		t.Errorf("weighted NR noise-free error %v m", d)
	}
}

func TestNRWeightedDownweightsLowElevationFault(t *testing.T) {
	// Corrupt the lowest-elevation satellite; elevation weighting should
	// blunt the damage relative to plain OLS.
	recv := yyr1()
	obs := scene(t, recv, 2400, 0, 9)
	lowest := 0
	for i := range obs {
		if obs[i].Elevation < obs[lowest].Elevation {
			lowest = i
		}
	}
	obs[lowest].Pseudorange += 80
	var plain NRSolver
	weighted := NRSolver{Weight: ElevationWeight}
	pSol, err := plain.Solve(0, obs)
	if err != nil {
		t.Fatal(err)
	}
	wSol, err := weighted.Solve(0, obs)
	if err != nil {
		t.Fatal(err)
	}
	pErr := pSol.Pos.DistanceTo(recv)
	wErr := wSol.Pos.DistanceTo(recv)
	t.Logf("low-elevation fault: plain %.2f m, weighted %.2f m", pErr, wErr)
	if wErr >= pErr {
		t.Errorf("weighting did not reduce the fault's impact: %.2f vs %.2f m", wErr, pErr)
	}
}

func TestNRWeightRejectsNonPositive(t *testing.T) {
	obs := scene(t, yyr1(), 0, 0, 6)
	s := NRSolver{Weight: func(Observation) float64 { return 0 }}
	if _, err := s.Solve(0, obs); !errors.Is(err, ErrBadObservation) {
		t.Errorf("zero weight: error = %v", err)
	}
}

func TestElevationWeight(t *testing.T) {
	zenith := ElevationWeight(Observation{Elevation: math.Pi / 2})
	if math.Abs(zenith-1) > 1e-12 {
		t.Errorf("zenith weight = %v, want 1", zenith)
	}
	low := ElevationWeight(Observation{Elevation: 0.01})
	floor := ElevationWeight(Observation{Elevation: 0})
	if low != floor {
		t.Errorf("weight floor not applied: %v vs %v", low, floor)
	}
	mid := ElevationWeight(Observation{Elevation: math.Pi / 6})
	if math.Abs(mid-0.25) > 1e-12 {
		t.Errorf("30° weight = %v, want 0.25", mid)
	}
	if !(floor < mid && mid < zenith) {
		t.Error("weights not increasing with elevation")
	}
}

// Property: every solver recovers a noise-free receiver anywhere on the
// globe, any epoch, any bias within ±1 ms.
func TestPropSolversRecoverRandomReceivers(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lla := geo.LLA{
			Lat: (r.Float64() - 0.5) * math.Pi * 0.95,
			Lon: (r.Float64() - 0.5) * 2 * math.Pi,
			Alt: r.Float64() * 3000,
		}
		recv := lla.ToECEF()
		epoch := r.Float64() * 86400
		bias := (r.Float64() - 0.5) * 2e-3 * geo.SpeedOfLight
		cons := orbit.DefaultConstellation()
		vis, err := visible(cons, recv, epoch, 5*math.Pi/180)
		if err != nil || len(vis) < 6 {
			return true // sparse sky draw; property vacuous
		}
		obs := make([]Observation, 0, 6)
		for _, v := range vis[:6] {
			obs = append(obs, Observation{
				Pos:         v.State.Pos,
				Pseudorange: recv.DistanceTo(v.State.Pos) + bias,
				Elevation:   v.Elevation,
			})
		}
		for _, s := range []Solver{&NRSolver{}, NewDLOSolver(oracle(bias)), NewDLGSolver(oracle(bias)), BancroftSolver{}} {
			sol, err := s.Solve(epoch, obs)
			if err != nil {
				return false
			}
			if sol.Pos.DistanceTo(recv) > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEstimateAccuracy(t *testing.T) {
	recv := yyr1()
	obs := scene(t, recv, 3000, 40, 9)
	const sigma = 4.0
	rng := rand.New(rand.NewSource(71))
	for i := range obs {
		obs[i].Pseudorange += sigma * rng.NormFloat64()
	}
	var nr NRSolver
	sol, err := nr.Solve(0, obs)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateAccuracy(sol, obs)
	if err != nil {
		t.Fatal(err)
	}
	// The per-range estimate should land near the injected sigma (wide
	// band: only 5 degrees of freedom).
	if est.SigmaUERE < sigma/3 || est.SigmaUERE > sigma*3 {
		t.Errorf("SigmaUERE = %.2f, injected %.1f", est.SigmaUERE, sigma)
	}
	if !(est.Position >= est.Horizontal && est.Position >= est.Vertical) {
		t.Errorf("inconsistent estimate: %+v", est)
	}
	// The formal estimate should bound the actual error within a few x.
	actual := sol.Pos.DistanceTo(recv)
	if actual > 5*est.Position+1 {
		t.Errorf("actual error %.2f m far beyond formal 5 sigma %.2f m", actual, est.Position)
	}
}

func TestEstimateAccuracyNeedsRedundancy(t *testing.T) {
	obs := scene(t, yyr1(), 0, 0, 4)
	var nr NRSolver
	sol, err := nr.Solve(0, obs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateAccuracy(sol, obs); !errors.Is(err, ErrTooFewSatellites) {
		t.Errorf("error = %v, want ErrTooFewSatellites", err)
	}
}

func TestEstimateAccuracyNoiseFreeNearZero(t *testing.T) {
	obs := scene(t, yyr1(), 2000, 10, 8)
	var nr NRSolver
	sol, err := nr.Solve(0, obs)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateAccuracy(sol, obs)
	if err != nil {
		t.Fatal(err)
	}
	if est.Position > 0.01 {
		t.Errorf("noise-free formal accuracy %.4f m, want ~0", est.Position)
	}
}
