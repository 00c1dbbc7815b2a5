package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDensePanicsOnBadDims(t *testing.T) {
	tests := []struct {
		name       string
		rows, cols int
	}{
		{"zero rows", 0, 3},
		{"zero cols", 3, 0},
		{"negative", -1, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewDense(%d,%d) did not panic", tt.rows, tt.cols)
				}
			}()
			NewDense(tt.rows, tt.cols)
		})
	}
}

func TestAtSet(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Errorf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Errorf("At(0,0) = %v, want 0", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := NewDense(2, 2)
	tests := []struct {
		name string
		i, j int
	}{
		{"row too big", 2, 0},
		{"col too big", 0, 2},
		{"negative row", -1, 0},
		{"negative col", 0, -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d,%d) did not panic", tt.i, tt.j)
				}
			}()
			m.At(tt.i, tt.j)
		})
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if got := id.At(i, j); got != want {
				t.Errorf("Identity(3).At(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestSetRow(t *testing.T) {
	m := NewDense(2, 3)
	m.SetRow(1, []float64{4, 5, 6})
	if m.At(1, 0) != 4 || m.At(1, 1) != 5 || m.At(1, 2) != 6 || m.At(0, 0) != 0 {
		t.Errorf("after SetRow(1, [4 5 6]): %v", m.data)
	}
}

func TestTranspose(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	want := NewDenseData(3, 2, []float64{1, 4, 2, 5, 3, 6})
	if got := m.T(); !EqualApprox(got, want, 0) {
		t.Errorf("T() = \n%v want \n%v", got, want)
	}
}

func TestMul(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	want := NewDenseData(2, 2, []float64{58, 64, 139, 154})
	if got := Mul(a, b); !EqualApprox(got, want, 1e-12) {
		t.Errorf("Mul = \n%v want \n%v", got, want)
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with mismatched shapes did not panic")
		}
	}()
	Mul(NewDense(2, 3), NewDense(2, 3))
}

func TestMulVec(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := MulVec(a, []float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Errorf("MulVec = %v, want [6 15]", got)
	}
}

func TestMulTVecMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 5, 3)
	x := randomVec(rng, 5)
	got := MulTVec(a, x)
	want := MulVec(a.T(), x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulTVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMulATAMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomDense(rng, 6, 4)
	got := MulATA(a)
	want := Mul(a.T(), a)
	if !EqualApprox(got, want, 1e-10) {
		t.Errorf("MulATA = \n%v want \n%v", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

// Property: (AᵀBᵀ) = (BA)ᵀ for random matrices.
func TestPropTransposeOfProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randomDense(rng, m, k)
		b := randomDense(rng, k, n)
		lhs := Mul(b.T(), a.T())
		rhs := Mul(a, b).T()
		return EqualApprox(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: matrix multiplication is associative: (AB)C = A(BC).
func TestPropMulAssociative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, l, n := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := randomDense(r, m, k)
		b := randomDense(r, k, l)
		c := randomDense(r, l, n)
		lhs := Mul(Mul(a, b), c)
		rhs := Mul(a, Mul(b, c))
		return EqualApprox(lhs, rhs, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: A*I = I*A = A.
func TestPropIdentityIsNeutral(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(6), 1+r.Intn(6)
		a := randomDense(r, m, n)
		return EqualApprox(Mul(a, Identity(n)), a, 1e-12) &&
			EqualApprox(Mul(Identity(m), a), a, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// --- helpers ---

func randomDense(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// randomSPD returns a random symmetric positive definite matrix.
func randomSPD(rng *rand.Rand, n int) *Dense {
	a := randomDense(rng, n, n)
	spd := MulATA(a)
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n)) // ensure well-conditioned
	}
	return spd
}
