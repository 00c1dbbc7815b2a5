package core

import (
	"testing"

	"gpsdl/internal/geo"
	"gpsdl/internal/telemetry"
)

// instrumentEpoch builds a healthy 6-satellite epoch around a receiver
// at the origin-ish ECEF point used by the other core tests.
func instrumentEpoch() (geo.ECEF, []Observation) {
	recv := geo.ECEF{X: 1113194, Y: -4842796, Z: 3985880}
	dirs := [][3]float64{
		{1, 0, 0.3}, {-1, 0.2, 0.4}, {0, 1, 0.5}, {0.3, -1, 0.6}, {0.5, 0.5, 1}, {-0.4, -0.6, 0.9},
	}
	obs := make([]Observation, 0, len(dirs))
	for _, d := range dirs {
		dir := geo.ECEF{X: d[0], Y: d[1], Z: d[2]}
		n := dir.Norm()
		sat := recv.Add(dir.Scale(2.2e7 / n))
		obs = append(obs, Observation{Pos: sat, Pseudorange: recv.DistanceTo(sat)})
	}
	return recv, obs
}

func TestDLGPathCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, obs := instrumentEpoch()
	for _, variant := range []DLGVariant{VariantPaper, VariantFast} {
		s := &DLGSolver{
			Predictor: oracle(0),
			Variant:   variant,
			Metrics:   NewGLSMetrics(reg),
		}
		if _, err := s.Solve(0, obs); err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
	}
	m := NewGLSMetrics(reg) // same instruments (idempotent registration)
	if m.PaperSolves.Value() != 1 || m.FastSolves.Value() != 1 {
		t.Errorf("path counters = paper %d fast %d, want 1 each",
			m.PaperSolves.Value(), m.FastSolves.Value())
	}
	if m.FastFallbacks.Value() != 0 {
		t.Errorf("fallbacks = %d on healthy epochs", m.FastFallbacks.Value())
	}
}

func TestRAIMMetricsCount(t *testing.T) {
	reg := telemetry.NewRegistry()
	recv, obs := instrumentEpoch()
	_ = recv
	raim := &RAIM{Solver: &NRSolver{}, Metrics: NewRAIMMetrics(reg)}

	// Healthy epoch: one check, no fault.
	if _, err := raim.Check(0, obs); err != nil {
		t.Fatal(err)
	}
	m := raim.Metrics
	if m.Checks.Value() != 1 || m.Faults.Value() != 0 || m.Exclusions.Value() != 0 {
		t.Errorf("healthy epoch: checks %d faults %d exclusions %d",
			m.Checks.Value(), m.Faults.Value(), m.Exclusions.Value())
	}

	// Corrupt one pseudo-range: fault detected and excluded.
	bad := append([]Observation(nil), obs...)
	bad[2].Pseudorange += 500
	res, err := raim.Check(0, bad)
	if err != nil {
		t.Fatalf("RAIM did not recover from a 500 m fault: %v", err)
	}
	if res.Excluded != 2 {
		t.Errorf("Excluded = %d, want 2", res.Excluded)
	}
	if m.Checks.Value() != 2 || m.Faults.Value() != 1 || m.Exclusions.Value() != 1 {
		t.Errorf("faulty epoch: checks %d faults %d exclusions %d, want 2/1/1",
			m.Checks.Value(), m.Faults.Value(), m.Exclusions.Value())
	}
}

func TestRAIMNilMetricsSafe(t *testing.T) {
	_, obs := instrumentEpoch()
	raim := &RAIM{Solver: &NRSolver{}}
	if _, err := raim.Check(0, obs); err != nil {
		t.Fatal(err)
	}
}
