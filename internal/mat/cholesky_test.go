package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyKnownFactor(t *testing.T) {
	// A = L*Lᵀ with L = [[2,0],[1,3]] -> A = [[4,2],[2,10]].
	a := NewDenseData(2, 2, []float64{4, 2, 2, 10})
	c, err := FactorizeCholesky(a)
	if err != nil {
		t.Fatalf("FactorizeCholesky: %v", err)
	}
	want := NewDenseData(2, 2, []float64{2, 0, 1, 3})
	if got := c.l; !EqualApprox(got, want, 1e-12) {
		t.Errorf("L = \n%v want \n%v", got, want)
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	tests := []struct {
		name string
		a    *Dense
	}{
		{"negative diagonal", NewDenseData(2, 2, []float64{-1, 0, 0, 1})},
		{"indefinite", NewDenseData(2, 2, []float64{1, 2, 2, 1})},
		{"zero matrix", NewDense(3, 3)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := FactorizeCholesky(tt.a); !errors.Is(err, ErrNotSPD) {
				t.Errorf("error = %v, want ErrNotSPD", err)
			}
		})
	}
}

func TestCholeskyNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FactorizeCholesky on non-square did not panic")
		}
	}()
	_, _ = FactorizeCholesky(NewDense(2, 3))
}

func TestCholeskySolveMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 10; n++ {
		a := randomSPD(rng, n)
		b := randomVec(rng, n)
		c, err := FactorizeCholesky(a)
		if err != nil {
			t.Fatalf("FactorizeCholesky(n=%d): %v", n, err)
		}
		got := c.Solve(b)
		want, err := Solve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if VecNorm2(VecSub(got, want)) > 1e-8*(1+VecNorm2(want)) {
			t.Errorf("n=%d Cholesky solve %v, LU solve %v", n, got, want)
		}
	}
}

// Property: L*Lᵀ reconstructs A for random SPD matrices.
func TestPropCholeskyReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := randomSPD(r, n)
		c, err := FactorizeCholesky(a)
		if err != nil {
			return false
		}
		return EqualApprox(Mul(c.l, c.l.T()), a, 1e-8*VecNorm2(a.data))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSolveSPDFallsBackToLU(t *testing.T) {
	// Symmetric but indefinite: Cholesky fails, LU succeeds.
	a := NewDenseData(2, 2, []float64{0, 1, 1, 0})
	x, err := SolveSPD(a, []float64{3, 4})
	if err != nil {
		t.Fatalf("SolveSPD: %v", err)
	}
	if math.Abs(x[0]-4) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [4 3]", x)
	}
}
