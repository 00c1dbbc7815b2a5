package main

import (
	"bytes"
	"context"
	"fmt"

	"gpsdl/internal/engine"
	"gpsdl/internal/wire"
)

// reference is an engine hosting one watched session alone, run over
// exactly the epoch ranges the measured engine processed for it.
// Per-session output does not depend on co-hosted sessions or sharding,
// so its fixes are what the measured run must have produced.
type reference struct {
	digests []uint64
	// decoded holds the session's fixes after a wire encode/decode round
	// trip, by epoch (the last pass wins on the pregenerated workload).
	decoded map[uint64]wire.Fix
}

func runReference(ctx context.Context, in *inputs, wt *watch) (*reference, error) {
	ref := &reference{decoded: map[uint64]wire.Fix{}}
	enc := wire.FixEncoder{KeyframeEvery: in.w.keyframeEvery()}
	var dec wire.FixDecoder
	var frame []byte
	var sinkErr error
	cfg := in.engineConfig(func(e engine.FixEvent) {
		f := e.Wire()
		frame, _ = enc.AppendFix(frame[:0], &f)
		ref.digests = append(ref.digests, fixDigest(e.Epoch, e.GGA, e.RMC, frame))
		payload, err := wire.NewFrameReader(bytes.NewReader(frame)).Next()
		if err == nil {
			f, err = dec.DecodeFix(payload)
		}
		if err != nil && sinkErr == nil {
			sinkErr = err
		}
		ref.decoded[f.Epoch] = f
	})
	cfg.Receivers, cfg.SessionIDs, cfg.Workers = 0, []int{wt.recv}, 1
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	if in.w.pregen > 0 {
		if err := eng.Pregenerate(in.w.warmup + in.w.pregen); err != nil {
			return nil, err
		}
	}
	for _, sg := range wt.segs {
		if err := eng.RunRange(ctx, sg.e0, sg.e1); err != nil {
			return nil, err
		}
	}
	if sinkErr != nil {
		return nil, fmt.Errorf("reference wire round trip: %w", sinkErr)
	}
	return ref, nil
}

// compareDigests reports the first fix where two digest sequences differ.
func compareDigests(what string, recv int, segs []seg, got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: session %d produced %d fixes, reference %d", what, recv, len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] {
			return fmt.Errorf("%s: session %d fix %d (epoch %d) differs from the reference", what, recv, k, epochAt(segs, k))
		}
	}
	return nil
}

// epochAt maps an index in a session's processing order to its epoch.
func epochAt(segs []seg, k int) int {
	for _, sg := range segs {
		if n := sg.e1 - sg.e0; k < n {
			return sg.e0 + k
		} else {
			k -= n
		}
	}
	return -1
}

// checkDecoded compares every fix a client decoded with the reference's
// wire round trip of the same epoch, field by field.
func checkDecoded(recv int, got []gotFix, ref map[uint64]wire.Fix) error {
	for _, g := range got {
		want, ok := ref[g.f.Epoch]
		if !ok {
			return fmt.Errorf("client for session %d decoded epoch %d, which the reference never produced", recv, g.f.Epoch)
		}
		if g.f != want {
			return fmt.Errorf("client for session %d decoded epoch %d as %+v, reference %+v", recv, g.f.Epoch, g.f, want)
		}
	}
	return nil
}

// checkConservation verifies, for one phase, that every session-epoch
// due became exactly one fix, coast fix or failure, that the sink saw
// each of them, that no batch was stranded and no session panicked.
func checkConservation(pr *phaseRun) error {
	b, a := pr.before.st, pr.after.st
	d := func(x, y uint64) int { return int(y - x) }
	fixes := d(b.Fixes, a.Fixes)
	coast := d(b.CoastFixes, a.CoastFixes)
	fails := d(b.SolveFailures, a.SolveFailures) + d(b.EpochErrors, a.EpochErrors) +
		d(b.QuarantinedEpochs, a.QuarantinedEpochs) + d(b.FailedEpochs, a.FailedEpochs)
	if got := fixes + coast + fails; got != pr.due {
		return fmt.Errorf("conservation: %d fixes + %d coast + %d failures != %d session-epochs due",
			fixes, coast, fails, pr.due)
	}
	var events, sinkFixes, sinkCoast, sinkErrs int
	for i := range pr.shards {
		sr := &pr.shards[i]
		events += sr.events
		sinkFixes += sr.fixes
		sinkCoast += sr.coast
		sinkErrs += sr.errs
	}
	if events != fixes+coast+fails || sinkFixes != fixes || sinkCoast != coast || sinkErrs != fails {
		return fmt.Errorf("conservation: sink saw %d fixes, %d coast, %d failures; engine counted %d, %d, %d",
			sinkFixes, sinkCoast, sinkErrs, fixes, coast, fails)
	}
	if !a.BatchesConserved() {
		return fmt.Errorf("conservation: %d batches enqueued != %d done + %d aborted + %d drained",
			a.BatchesEnqueued, a.BatchesDone, a.BatchesAborted, a.BatchesDrained)
	}
	if a.Panics != b.Panics {
		return fmt.Errorf("%d sessions panicked", a.Panics-b.Panics)
	}
	return nil
}
