package main

import "testing"

// TestRunBroadcastBench: -broadcast counts bytes, not time, so two runs
// on the same config write byte-identical JSON. Every good fix reaches
// both arms, and the binary frames carry the fixes in at most half the
// NMEA text's bytes, the claim the wire protocol exists for.
func TestRunBroadcastBench(t *testing.T) {
	const receivers, epochs = 2, 300
	var report broadcastReport
	decodeTwoIdenticalRuns(t, func(path string) error {
		return runBroadcastBench(broadcastBenchConfig{
			receivers: receivers, epochs: epochs, seed: 2009, jsonPath: path,
		})
	}, &report)
	if len(report.Arms) != 2 || report.Arms[0].Arm != "nmea" || report.Arms[1].Arm != "wire" {
		t.Fatalf("arms = %+v, want nmea then wire", report.Arms)
	}
	nmea, bin := report.Arms[0], report.Arms[1]
	for _, a := range report.Arms {
		if want := uint64(receivers * epochs); a.Fixes != want {
			t.Errorf("%s arm: %d fixes, want receivers × epochs = %d", a.Arm, a.Fixes, want)
		}
	}
	if 2*bin.BytesPerFix > nmea.BytesPerFix {
		t.Errorf("wire frames %.2f bytes/fix, more than half of NMEA's %.2f", bin.BytesPerFix, nmea.BytesPerFix)
	}
	// Frames run about 5.8x smaller than the text here, so a doubled
	// frame still clears the half bound; a quarter catches it.
	if 4*bin.BytesPerFix > nmea.BytesPerFix {
		t.Errorf("wire frames %.2f bytes/fix, more than a quarter of NMEA's %.2f", bin.BytesPerFix, nmea.BytesPerFix)
	}
}
