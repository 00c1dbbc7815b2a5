package main

import "testing"

// TestRunRecoveryBench: a small -recovery run sees the cold arm re-warm
// its predictors through the NR fallback (recovery > 0 epochs) and the
// restored arm serve primary fixes from the cut, and both arms count
// every receiver's fixes over the whole window. The record holds no
// timing, so two runs write byte-identical JSON.
func TestRunRecoveryBench(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end")
	}
	const receivers, cut, epochs = 3, 100, 200
	var report recoveryReport
	decodeTwoIdenticalRuns(t, func(path string) error {
		return runRecoveryBench(recoveryBenchConfig{
			receivers: receivers, cut: cut, epochs: epochs, seed: 2009, jsonPath: path,
		})
	}, &report)
	if report.CheckpointBytes <= 0 {
		t.Errorf("checkpoint_bytes = %d, want > 0", report.CheckpointBytes)
	}
	if report.Cold.RecoveryEpochs <= 0 {
		t.Errorf("cold recovery_epochs = %d, want > 0", report.Cold.RecoveryEpochs)
	}
	if report.Restored.RecoveryEpochs != 0 {
		t.Errorf("restored recovery_epochs = %d, want 0", report.Restored.RecoveryEpochs)
	}
	for _, a := range []recoveryArm{report.Cold, report.Restored} {
		if want := uint64(receivers * (epochs - cut)); a.Fixes != want {
			t.Errorf("%s arm: %d fixes, want receivers × window = %d", a.Arm, a.Fixes, want)
		}
	}
}
