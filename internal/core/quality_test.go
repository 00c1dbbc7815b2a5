package core

import (
	"math"
	"math/rand"
	"testing"

	"gpsdl/internal/geo"
)

// qualScene builds a known-truth geometry: receiver at origin-ish ECEF,
// nsat satellites on a 20200 km shell, pseudoranges = true range + bias
// + per-sat noise supplied by the caller.
func qualScene(nsat int, clockBias float64, noise func(i int) float64) (Solution, []Observation) {
	truth := geo.ECEF{X: 6371e3, Y: 0, Z: 0}
	obs := make([]Observation, nsat)
	for i := range obs {
		ang := 2 * math.Pi * float64(i) / float64(nsat)
		el := 0.3 + 0.5*float64(i%3)
		sat := geo.ECEF{
			X: truth.X + 20200e3*math.Cos(el)*math.Cos(ang),
			Y: 20200e3 * math.Cos(el) * math.Sin(ang),
			Z: 20200e3 * math.Sin(el),
		}
		obs[i] = Observation{
			Pos:         sat,
			Pseudorange: truth.DistanceTo(sat) + clockBias + noise(i),
			Elevation:   el,
		}
	}
	return Solution{Pos: truth, ClockBias: clockBias}, obs
}

func TestAssessFixCleanNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const sigma = 3.0
	pass, total := 0, 200
	solver := &NRSolver{}
	for trial := 0; trial < total; trial++ {
		_, obs := qualScene(8, 120.5, func(int) float64 {
			return rng.NormFloat64() * sigma
		})
		// The chi-square statistic is defined on post-fit residuals (dof
		// m−4), so fit the solution rather than using the truth.
		sol, err := solver.Solve(0, obs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		q := AssessFixExcluding(sol, obs, -1, sigma)
		if !q.RMSValid || !q.Chi2Valid {
			t.Fatalf("valid flags false for dof=%d", q.DOF)
		}
		if q.DOF != 4 {
			t.Fatalf("DOF = %d, want 4", q.DOF)
		}
		if q.Chi2Pass {
			pass++
		}
	}
	// 99% limit: expect ~198/200 passes; anything under 190 means the
	// limit is badly wrong.
	if pass < 190 {
		t.Errorf("chi2 pass rate %d/%d under clean noise, want ≥ 190", pass, total)
	}
}

func TestAssessFixDetectsBias(t *testing.T) {
	const sigma = 3.0
	sol, obs := qualScene(8, 0, func(i int) float64 {
		if i == 2 {
			return 60 // one 20σ fault
		}
		return 0
	})
	q := AssessFixExcluding(sol, obs, -1, sigma)
	if q.Chi2Pass {
		t.Errorf("chi2 passed with a 60 m fault: stat %.1f limit %.1f", q.Chi2, q.Chi2Limit)
	}
	if q.ResidualRMS < 10 {
		t.Errorf("ResidualRMS = %.2f m, want the fault to dominate (> 10)", q.ResidualRMS)
	}
	// Excluding the faulty satellite restores consistency.
	qx := AssessFixExcluding(sol, obs, 2, sigma)
	if !qx.Chi2Pass {
		t.Errorf("chi2 failed after excluding the fault: stat %.3f limit %.1f", qx.Chi2, qx.Chi2Limit)
	}
	if qx.DOF != q.DOF-1 {
		t.Errorf("exclusion DOF = %d, want %d", qx.DOF, q.DOF-1)
	}
	if qx.ResidualRMS > 1e-6 {
		t.Errorf("residuals after exclusion = %.3g, want ~0", qx.ResidualRMS)
	}
}

func TestAssessFixDegenerate(t *testing.T) {
	sol, obs := qualScene(4, 0, func(int) float64 { return 0 })
	q := AssessFixExcluding(sol, obs, -1, 3)
	if q.RMSValid || q.Chi2Valid {
		t.Errorf("4-satellite fix (dof 0) must be invalid: %+v", q)
	}
	if q.DOF != 0 {
		t.Errorf("DOF = %d, want 0", q.DOF)
	}
	// Excluding one of 5 satellites also hits dof 0.
	sol5, obs5 := qualScene(5, 0, func(int) float64 { return 0 })
	if q := AssessFixExcluding(sol5, obs5, 0, 3); q.RMSValid {
		t.Errorf("5-sat fix with one excluded must have dof 0, got %+v", q)
	}
	// sigma <= 0 disables the chi-square test but keeps the RMS.
	sol8, obs8 := qualScene(8, 0, func(int) float64 { return 1 })
	q8 := AssessFixExcluding(sol8, obs8, -1, 0)
	if !q8.RMSValid || q8.Chi2Valid {
		t.Errorf("sigma=0: want RMS only, got %+v", q8)
	}
	// Out-of-range excluded index behaves like no exclusion.
	if a, b := AssessFixExcluding(sol8, obs8, -1, 3), AssessFixExcluding(sol8, obs8, 99, 3); a != b {
		t.Errorf("excluded=99 diverged from no exclusion: %+v vs %+v", a, b)
	}
}

// Wilson–Hilferty must track the exact chi-square 99th percentiles
// closely across the dof range the fix engine sees.
func TestChiSquareLimit99(t *testing.T) {
	exact := map[int]float64{ // R: qchisq(.99, k)
		1:  6.635,
		2:  9.210,
		3:  11.345,
		4:  13.277,
		6:  16.812,
		8:  20.090,
		12: 26.217,
		20: 37.566,
		40: 63.691,
	}
	for dof, want := range exact {
		got := ChiSquareLimit99(dof)
		tol := 0.02 * want
		if dof == 1 {
			tol = 0.10 * want // WH is weakest at dof 1; still fine for gating
		}
		if math.Abs(got-want) > tol {
			t.Errorf("ChiSquareLimit99(%d) = %.3f, want %.3f ± %.3f", dof, got, want, tol)
		}
	}
	if !math.IsInf(ChiSquareLimit99(0), 1) || !math.IsInf(ChiSquareLimit99(-3), 1) {
		t.Error("dof < 1 must return +Inf")
	}
}

func TestAssessFixZeroAlloc(t *testing.T) {
	sol, obs := qualScene(9, 42, func(i int) float64 { return float64(i) })
	allocs := testing.AllocsPerRun(100, func() {
		_ = AssessFixExcluding(sol, obs, 3, 3.0)
	})
	if allocs != 0 {
		t.Errorf("AssessFixExcluding allocates %.1f/op, want 0", allocs)
	}
}
