package core

import (
	"fmt"
	"testing"

	"gpsdl/internal/geo"
	"gpsdl/internal/orbit"
)

// benchScene is scene without the *testing.T, for benchmarks.
func benchScene(recv geo.ECEF, epoch, biasMeters float64, m int) ([]Observation, error) {
	cons := orbit.DefaultConstellation()
	vis, err := cons.Visible(recv, epoch, 0)
	if err != nil {
		return nil, err
	}
	if len(vis) < m {
		return nil, fmt.Errorf("only %d satellites visible, need %d", len(vis), m)
	}
	obs := make([]Observation, 0, m)
	for _, v := range vis[:m] {
		obs = append(obs, Observation{
			Pos:         v.State.Pos,
			Pseudorange: recv.DistanceTo(v.State.Pos) + biasMeters,
			Elevation:   v.Elevation,
		})
	}
	return obs, nil
}

// TestSolveBatchMatchesIndividual checks that batching with a shared
// scratch changes nothing about the answers: every epoch's solution must
// be bit-identical to a standalone Solve call.
func TestSolveBatchMatchesIndividual(t *testing.T) {
	recv := yyr1()
	const biasMeters = 137.0
	epochs := make([]BatchEpoch, 16)
	for i := range epochs {
		et := 1000.0 + float64(i)
		epochs[i] = BatchEpoch{T: et, Obs: scene(t, recv, et, biasMeters, 6)}
	}
	solvers := []Solver{
		&NRSolver{},
		&DLOSolver{Predictor: oracle(biasMeters)},
		&DLGSolver{Predictor: oracle(biasMeters)},
		BancroftSolver{},
	}
	for _, s := range solvers {
		t.Run(s.Name(), func(t *testing.T) {
			var sc Scratch
			got := SolveBatch(s, &sc, epochs, nil)
			if len(got) != len(epochs) {
				t.Fatalf("got %d results, want %d", len(got), len(epochs))
			}
			for i, e := range epochs {
				want, wantErr := s.Solve(e.T, e.Obs)
				if (wantErr == nil) != (got[i].Err == nil) {
					t.Fatalf("epoch %d: err mismatch: batch %v, individual %v", i, got[i].Err, wantErr)
				}
				if got[i].Sol != want {
					t.Errorf("epoch %d: batch %+v != individual %+v", i, got[i].Sol, want)
				}
			}
		})
	}
}

// TestSolveBatchReusesOut checks the out slice is reused, not reallocated,
// when it has capacity.
func TestSolveBatchReusesOut(t *testing.T) {
	recv := yyr1()
	epochs := []BatchEpoch{{T: 2000, Obs: scene(t, recv, 2000, 0, 6)}}
	buf := make([]BatchResult, 0, 8)
	out := SolveBatch(&NRSolver{}, nil, epochs, buf)
	if &out[0] != &buf[:1][0] {
		t.Fatal("SolveBatch reallocated out despite sufficient capacity")
	}
}

// BenchmarkSolveBatch measures the per-epoch cost of the scratch-amortized
// batch path; with a warm scratch and a reused out slice it must not
// allocate.
func BenchmarkSolveBatch(b *testing.B) {
	recv := yyr1()
	const biasMeters = 137.0
	epochs := make([]BatchEpoch, 32)
	for i := range epochs {
		et := 1000.0 + float64(i)
		obs, err := benchScene(recv, et, biasMeters, 6)
		if err != nil {
			b.Fatal(err)
		}
		epochs[i] = BatchEpoch{T: et, Obs: obs}
	}
	solvers := []Solver{
		&NRSolver{},
		&DLOSolver{Predictor: oracle(biasMeters)},
		&DLGSolver{Predictor: oracle(biasMeters)},
		BancroftSolver{},
	}
	for _, s := range solvers {
		b.Run(s.Name(), func(b *testing.B) {
			var sc Scratch
			s := WithScratch(s, &sc)               // pre-install so SolveBatch skips the copy
			out := SolveBatch(s, &sc, epochs, nil) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = SolveBatch(s, &sc, epochs, out)
			}
			_ = out
		})
	}
}
