package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolveKnownSystem(t *testing.T) {
	a := NewDenseData(3, 3, []float64{
		2, 1, -1,
		-3, -1, 2,
		-2, 1, 2,
	})
	b := []float64{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 4})
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("Solve(singular) error = %v, want ErrSingular", err)
	}
}

func TestLUNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FactorizeLU on non-square did not panic")
		}
	}()
	_, _ = FactorizeLU(NewDense(2, 3))
}

func TestLUInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 8; n++ {
		a := randomSPD(rng, n)
		inv, err := Inverse(a)
		if err != nil {
			t.Fatalf("Inverse(n=%d): %v", n, err)
		}
		if got := Mul(a, inv); !EqualApprox(got, Identity(n), 1e-8) {
			t.Errorf("A*A⁻¹ != I for n=%d:\n%v", n, got)
		}
	}
}

func TestLUSolveMatMatchesColumnSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomSPD(rng, 4)
	b := randomDense(rng, 4, 3)
	f, err := FactorizeLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.SolveMat(b)
	if got := Mul(a, x); !EqualApprox(got, b, 1e-8) {
		t.Errorf("A*X != B:\n%v", got)
	}
}

// Property: for random well-conditioned A and x, Solve(A, A*x) ≈ x.
func TestPropLURoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(9)
		a := randomSPD(r, n)
		x := randomVec(r, n)
		b := MulVec(a, x)
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		return VecNorm2(VecSub(got, x)) < 1e-7*(1+VecNorm2(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLUSolveDimensionPanics(t *testing.T) {
	f, err := FactorizeLU(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LU.Solve with wrong-length b did not panic")
		}
	}()
	f.Solve([]float64{1, 2})
}
