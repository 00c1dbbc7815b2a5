package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gpsdl/internal/geo"
	"gpsdl/internal/mat"
)

// referenceNRSolve is the two-pass NR kernel the fused Solve replaced:
// build every weighted row of the linearized system into buffers, then
// form the normal equations with mat.NormalEq4. It is kept as the
// differential oracle — the fused kernel must reproduce it bit for bit.
func referenceNRSolve(s *NRSolver, obs []Observation) (Solution, error) {
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
	var x, y, z, eps float64
	if s.InitialGuess != nil {
		x, y, z = s.InitialGuess.Pos.X, s.InitialGuess.Pos.Y, s.InitialGuess.Pos.Z
		eps = s.InitialGuess.ClockBias
	}
	m := len(obs)
	rows := make([][4]float64, m)
	rhs := make([]float64, m)
	var sqw []float64
	if s.Weight != nil {
		sqw = make([]float64, m)
		for i, o := range obs {
			w := s.Weight(o)
			if w <= 0 || math.IsNaN(w) {
				return Solution{}, fmt.Errorf("NR weight %v for observation %d: %w", w, i, ErrBadObservation)
			}
			sqw[i] = math.Sqrt(w)
		}
	}
	for iter := 1; iter <= maxIter; iter++ {
		for i, o := range obs {
			dx, dy, dz := x-o.Pos.X, y-o.Pos.Y, z-o.Pos.Z
			r := math.Sqrt(dx*dx + dy*dy + dz*dz)
			if r == 0 {
				return Solution{}, fmt.Errorf("NR iterate coincides with satellite %d: %w", i, ErrDegenerateGeometry)
			}
			rows[i] = [4]float64{dx / r, dy / r, dz / r, 1}
			rhs[i] = -(r - o.Pseudorange + eps)
			if sqw != nil {
				w := sqw[i]
				rows[i][0] *= w
				rows[i][1] *= w
				rows[i][2] *= w
				rows[i][3] *= w
				rhs[i] *= w
			}
		}
		ata, atb := mat.NormalEq4(rows, rhs)
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
			return Solution{Pos: geo.ECEF{X: x, Y: y, Z: z}, ClockBias: eps, Iterations: iter}, nil
		}
	}
	return Solution{}, fmt.Errorf("NR after %d iterations: %w", maxIter, ErrNoConvergence)
}

// sameNR reports how the fused solve (got) differs from the reference
// (want): positions and clock bias compared by bit pattern, iteration
// count and error text exactly. Empty means identical.
func sameNR(got Solution, gotErr error, want Solution, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	}
	bits := func(s Solution) [4]uint64 {
		return [4]uint64{math.Float64bits(s.Pos.X), math.Float64bits(s.Pos.Y),
			math.Float64bits(s.Pos.Z), math.Float64bits(s.ClockBias)}
	}
	if bits(got) != bits(want) || got.Iterations != want.Iterations {
		return fmt.Sprintf("solution %+v, want %+v", got, want)
	}
	return ""
}

// TestNRFusedMatchesReference: over random geometries (m = 4…12, noisy
// pseudo-ranges, per-satellite σ), cold and warm starts, and all three
// weightings, the fused one-pass kernel returns exactly what the
// two-pass reference returns — with and without a Scratch. The errors
// subtest does the same for every error path.
func TestNRFusedMatchesReference(t *testing.T) {
	t.Run("errors", testNRFusedErrors)
	rng := rand.New(rand.NewSource(15))
	weights := []struct {
		name string
		fn   func(Observation) float64
	}{{"unweighted", nil}, {"elevation", ElevationWeight}, {"sigma", SigmaWeight}}
	sc := &Scratch{}
	cases, converged := 0, 0
	for n := 0; n < 1300; n++ {
		m := 4 + n%9
		recv, obs, bias := synthScene(rng, m)
		for i := range obs {
			obs[i].Pseudorange += rng.NormFloat64() * 5
			obs[i].Sigma = 1 + rng.Float64()*9
		}
		// A warm guess as a tracking receiver would hold it: last
		// second's fix, a few meters and nanoseconds off.
		guess := &Solution{
			Pos:       recv.Add(geo.ECEF{X: rng.NormFloat64() * 20, Y: rng.NormFloat64() * 20, Z: rng.NormFloat64() * 20}),
			ClockBias: bias + rng.NormFloat64()*10,
		}
		for _, w := range weights {
			for _, start := range []*Solution{nil, guess} {
				ref := NRSolver{Weight: w.fn, InitialGuess: start}
				want, wantErr := referenceNRSolve(&ref, obs)
				for _, scratch := range []*Scratch{nil, sc} {
					s := ref
					s.Scratch = scratch
					got, err := s.Solve(0, obs)
					if d := sameNR(got, err, want, wantErr); d != "" {
						t.Fatalf("case %d m=%d %s warm=%v scratch=%v: %s", n, m, w.name, start != nil, scratch != nil, d)
					}
					cases++
					if err == nil {
						converged++
					}
				}
			}
		}
	}
	if cases < 10000 || converged < cases*9/10 {
		t.Fatalf("%d cases compared, %d converged", cases, converged)
	}
}

// testNRFusedErrors covers the error paths: an iterate on a satellite,
// exactly singular normal equations, rejected weights, and an iteration
// budget too small to converge.
func testNRFusedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, obs, _ := synthScene(rng, 7)
	// Every satellite and the receiver on the equatorial plane: with a
	// cold start the z partials are exactly zero and AᵀA is singular.
	var planar []Observation
	recv := geo.ECEF{X: 6378137}
	for i := 0; i < 6; i++ {
		a := float64(i) * 0.3
		p := geo.ECEF{X: gpsShellRadius * math.Cos(a), Y: gpsShellRadius * math.Sin(a)}
		planar = append(planar, Observation{Pos: p, Pseudorange: recv.DistanceTo(p)})
	}
	cases := []struct {
		name string
		s    NRSolver
		obs  []Observation
		want error
	}{
		{"on-satellite", NRSolver{InitialGuess: &Solution{Pos: obs[2].Pos}}, obs, ErrDegenerateGeometry},
		{"singular", NRSolver{}, planar, ErrDegenerateGeometry},
		{"nan-weight", NRSolver{Weight: func(Observation) float64 { return math.NaN() }}, obs, ErrBadObservation},
		{"zero-weight", NRSolver{Weight: func(Observation) float64 { return 0 }}, obs, ErrBadObservation},
		{"negative-weight", NRSolver{Weight: func(Observation) float64 { return -1 }}, obs, ErrBadObservation},
		{"budget-1", NRSolver{MaxIter: 1}, obs, ErrNoConvergence},
		{"budget-2-weighted", NRSolver{MaxIter: 2, Weight: ElevationWeight}, obs, ErrNoConvergence},
	}
	for _, c := range cases {
		want, wantErr := referenceNRSolve(&c.s, c.obs)
		if !errors.Is(wantErr, c.want) {
			t.Fatalf("%s: reference error %v, want %v", c.name, wantErr, c.want)
		}
		for _, scratch := range []*Scratch{nil, {}} {
			s := c.s
			s.Scratch = scratch
			got, err := s.Solve(0, c.obs)
			if d := sameNR(got, err, want, wantErr); d != "" {
				t.Errorf("%s scratch=%v: %s", c.name, scratch != nil, d)
			}
		}
	}
}

// TestNRZeroAlloc: unweighted NR allocates nothing even without a
// Scratch; weighted NR allocates nothing once its Scratch has grown.
func TestNRZeroAlloc(t *testing.T) {
	obs := scene(t, yyr1(), 3600, 150, 9)
	for _, s := range []*NRSolver{{}, {Weight: SigmaWeight, Scratch: &Scratch{}}} {
		s.Solve(0, obs) // grow the Scratch
		if n := testing.AllocsPerRun(100, func() { s.Solve(0, obs) }); n != 0 {
			t.Errorf("weighted=%v: %v allocs per solve, want 0", s.Weight != nil, n)
		}
	}
}

// BenchmarkNRSolve prices one NR solve at m = 9 from the paper's cold
// start and from a warm guess a few meters off, unweighted and with
// SigmaWeight.
func BenchmarkNRSolve(b *testing.B) {
	recv := yyr1()
	obs := scene(b, recv, 7200, 150, 9)
	warm := &Solution{Pos: recv.Add(geo.ECEF{X: 3, Y: -2, Z: 4}), ClockBias: 151}
	for _, start := range []struct {
		name  string
		guess *Solution
	}{{"cold", nil}, {"warm", warm}} {
		for _, w := range []struct {
			name string
			fn   func(Observation) float64
		}{{"unweighted", nil}, {"sigma", SigmaWeight}} {
			b.Run(start.name+"/"+w.name, func(b *testing.B) {
				s := NRSolver{InitialGuess: start.guess, Weight: w.fn, Scratch: &Scratch{}}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := s.Solve(0, obs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
