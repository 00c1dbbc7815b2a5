package scenario

import (
	"math"
	"testing"

	"gpsdl/internal/atmosphere"
	"gpsdl/internal/core"
)

// TestCN0HonestWeightRecovery checks the contract on SatObs.CN0: mapping
// it back through the solver-side core.SigmaFromCN0 recovers the
// observation's actual code-noise σ (thermal + elevation-dependent
// multipath) to within the deterministic flutter band.
func TestCN0HonestWeightRecovery(t *testing.T) {
	st, err := StationByID("KYCP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(99)
	g := NewGenerator(st, cfg)
	e, err := g.EpochAt(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Obs) < 4 {
		t.Fatalf("only %d observations", len(e.Obs))
	}
	// ±cn0FlutterDB of flutter moves σ by at most 10^(flutter/20).
	lim := math.Pow(10, cn0FlutterDB/20) * (1 + 1e-12)
	for _, o := range e.Obs {
		if o.CN0 <= 0 {
			t.Fatalf("PRN %d: CN0 %v not positive", o.PRN, o.CN0)
		}
		got := core.SigmaFromCN0(o.CN0)
		mp := atmosphere.MultipathSigma(o.Elevation)
		want := math.Sqrt(cfg.NoiseSigma*cfg.NoiseSigma + mp*mp)
		if r := got / want; r > lim || r < 1/lim {
			t.Errorf("PRN %d: SigmaFromCN0(%.2f) = %.3f m, true σ %.3f m (ratio %.4f beyond flutter band %.4f)",
				o.PRN, o.CN0, got, want, r, lim)
		}
	}
}

// TestCN0Deterministic regenerates the same epoch from two independent
// generators and expects byte-identical observations including CN0.
func TestCN0Deterministic(t *testing.T) {
	st, err := StationByID("SRZN")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(123)
	a, err := NewGenerator(st, cfg).EpochAt(777)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(st, cfg).EpochAt(777)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Obs) != len(b.Obs) {
		t.Fatalf("size mismatch: %d vs %d", len(a.Obs), len(b.Obs))
	}
	for i := range a.Obs {
		if a.Obs[i] != b.Obs[i] {
			t.Fatalf("obs %d mismatch:\n  %+v\n  %+v", i, a.Obs[i], b.Obs[i])
		}
	}
}

// TestCN0IndependentOfCodeOnly checks that the deprecated CodeOnly field
// is inert: every observable, C/N0 included, is identical whichever way
// it is set.
func TestCN0IndependentOfCodeOnly(t *testing.T) {
	st, err := StationByID("FAI1")
	if err != nil {
		t.Fatal(err)
	}
	plain := DefaultConfig(5)
	codeOnly := plain
	codeOnly.CodeOnly = true
	a, err := NewGenerator(st, plain).EpochAt(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(st, codeOnly).EpochAt(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Obs) != len(b.Obs) {
		t.Fatalf("size mismatch: %d vs %d", len(a.Obs), len(b.Obs))
	}
	for i := range a.Obs {
		if a.Obs[i] != b.Obs[i] {
			t.Fatalf("obs %d differs across CodeOnly:\n  %+v\n  %+v", i, a.Obs[i], b.Obs[i])
		}
	}
}

// canyonTestGeometry is a narrow east-west street with a high roofline,
// guaranteed to occlude part of the sky at any epoch.
var canyonTestGeometry = UrbanCanyon{
	Axis:      math.Pi / 2, // east-west
	HalfWidth: 20 * math.Pi / 180,
	Roofline:  45 * math.Pi / 180,
}

// canyonEpoch finds an epoch where the canyon occludes at least minOccl
// satellites while at least minClear stay line-of-sight, so both code
// paths are exercised.
func canyonEpoch(t *testing.T, st Station, cfg Config, minOccl, minClear int) (float64, Epoch, map[int]SatObs) {
	t.Helper()
	open := NewGenerator(st, cfg)
	blockedOnly := canyonTestGeometry // ReflectProb 0: occluded sats vanish
	masked := NewGenerator(st, cfg, WithUrbanCanyon(blockedOnly))
	for epoch := 0; epoch < 600; epoch += 30 {
		tt := float64(epoch)
		base, err := open.EpochAt(tt)
		if err != nil {
			t.Fatal(err)
		}
		vis, err := masked.EpochAt(tt)
		if err != nil {
			t.Fatal(err)
		}
		if len(base.Obs)-len(vis.Obs) >= minOccl && len(vis.Obs) >= minClear {
			byPRN := make(map[int]SatObs, len(base.Obs))
			for _, o := range base.Obs {
				byPRN[o.PRN] = o
			}
			return tt, vis, byPRN
		}
	}
	t.Fatal("no epoch with the required canyon geometry in 10 minutes of data")
	return 0, Epoch{}, nil
}

// TestUrbanCanyonBlocksWithoutReflections checks the ReflectProb=0
// regime: occluded satellites drop out and the surviving line-of-sight
// observations are byte-identical to the open-sky dataset (the canyon
// draws must not perturb their streams).
func TestUrbanCanyonBlocksWithoutReflections(t *testing.T) {
	st, err := StationByID("KYCP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(31)
	_, vis, byPRN := canyonEpoch(t, st, cfg, 2, 4)
	for _, o := range vis.Obs {
		base, ok := byPRN[o.PRN]
		if !ok {
			t.Fatalf("PRN %d visible in canyon but not open sky", o.PRN)
		}
		if o != base {
			t.Fatalf("LOS observation perturbed by canyon model:\n  %+v\n  %+v", o, base)
		}
	}
}

// TestUrbanCanyonReflectionsBiasAndSuppress checks the ReflectProb=1
// regime: every occluded satellite survives as an NLOS reflection with a
// positive excess-path bias in [0.5, 1.5)·NLOSBiasM and a C/N0 beaten
// down by CN0LossDB (modulo flutter).
func TestUrbanCanyonReflectionsBiasAndSuppress(t *testing.T) {
	st, err := StationByID("KYCP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(31)
	tt, vis, byPRN := canyonEpoch(t, st, cfg, 2, 4)

	canyon := canyonTestGeometry
	canyon.ReflectProb = 1
	canyon.NLOSBiasM = 60
	canyon.CN0LossDB = 15
	g := NewGenerator(st, cfg, WithUrbanCanyon(canyon))
	e, err := g.EpochAt(tt)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Obs) != len(byPRN) {
		t.Fatalf("ReflectProb=1 kept %d of %d satellites", len(e.Obs), len(byPRN))
	}
	losPRN := make(map[int]bool, len(vis.Obs))
	for _, o := range vis.Obs {
		losPRN[o.PRN] = true
	}
	nlosSeen := 0
	for _, o := range e.Obs {
		base := byPRN[o.PRN]
		if losPRN[o.PRN] {
			if o != base {
				t.Fatalf("PRN %d: LOS observation perturbed:\n  %+v\n  %+v", o.PRN, o, base)
			}
			continue
		}
		nlosSeen++
		bias := o.Pseudorange - base.Pseudorange
		if bias < 0.5*canyon.NLOSBiasM || bias >= 1.5*canyon.NLOSBiasM {
			t.Errorf("PRN %d: NLOS bias %.2f m outside [%.1f, %.1f)",
				o.PRN, bias, 0.5*canyon.NLOSBiasM, 1.5*canyon.NLOSBiasM)
		}
		drop := base.CN0 - o.CN0
		if math.Abs(drop-canyon.CN0LossDB) > 2*cn0FlutterDB {
			t.Errorf("PRN %d: C/N0 dropped %.2f dB, want %.1f ± %.1f",
				o.PRN, drop, canyon.CN0LossDB, 2*cn0FlutterDB)
		}
	}
	if nlosSeen < 2 {
		t.Fatalf("only %d NLOS observations exercised", nlosSeen)
	}
}
