package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpsdl/internal/engine"
	"gpsdl/internal/fault"
	"gpsdl/internal/journal"
)

// writeJournal runs a journaling engine with a RAIM-evading step fault
// on PRN 14 and returns the journal path.
func writeJournal(t *testing.T, name string, seed int64, epochs int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{
		Receivers: 2, Workers: 2, Seed: seed,
		Quality:             &engine.QualityConfig{},
		JournalSink:         f,
		JournalCaptureEvery: 32,
		Faults:              fault.Program{{Kind: fault.KindStep, PRN: 14, Bias: 30, From: 100, Until: math.Inf(1)}},
		FaultSeed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	if err := eng.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestInfoTimelineAttribute(t *testing.T) {
	path := writeJournal(t, "flight.gpsj", 21, 300)

	var out bytes.Buffer
	if err := run(&out, []string{"info", path}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"receivers=2", "epochs: [0, 299]", "chi2 failures", "sync points"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("info missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "torn tail") {
		t.Errorf("clean journal reported torn:\n%s", out.String())
	}

	out.Reset()
	if err := run(&out, []string{"timeline", "-recv", "0", path}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"EPOCH", "chi2=FAIL", "matching records shown"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("timeline missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if err := run(&out, []string{"attribute", "-from", "100", path}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "PRN 14 contributed") {
		t.Errorf("attribute did not name PRN 14:\n%s", out.String())
	}
	// The faulted satellite must dominate the budget burn.
	line := ""
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, "PRN 14 contributed") {
			line = l
		}
	}
	var prn int
	var share float64
	if _, err := fmt.Sscanf(line, "PRN %d contributed %f%%", &prn, &share); err != nil || prn != 14 || share < 50 {
		t.Errorf("attribution verdict %q: prn=%d share=%v%%, want PRN 14 >= 50%%", line, prn, share)
	}
}

func TestDiffAndReplay(t *testing.T) {
	a := writeJournal(t, "a.gpsj", 21, 200)
	b := writeJournal(t, "b.gpsj", 21, 200)
	c := writeJournal(t, "c.gpsj", 22, 200)

	var out bytes.Buffer
	if err := run(&out, []string{"diff", a, b}); err != nil {
		t.Fatalf("identical-seed journals differ: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "journals are record-identical") {
		t.Errorf("diff verdict missing:\n%s", out.String())
	}

	out.Reset()
	if err := run(&out, []string{"diff", a, c}); err == nil {
		t.Fatalf("different-seed journals reported identical:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "differ") {
		t.Errorf("diff output missing differ counts:\n%s", out.String())
	}

	out.Reset()
	if err := run(&out, []string{"replay", a}); err != nil {
		t.Fatalf("replay: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "replayed bit-identically") {
		t.Errorf("replay verdict missing:\n%s", out.String())
	}
}

// A journal whose captured solution no longer matches its observations
// must fail replay loudly: non-zero exit and a MISMATCH line naming the
// record. The tampered journal is rewritten record by record through
// journal.Writer, so it is a well-formed file carrying a wrong fix.
func TestReplayDetectsMismatch(t *testing.T) {
	res, err := journal.ScanFile(writeJournal(t, "clean.gpsj", 21, 200))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tampered.gpsj")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	jw, err := journal.NewWriter(f, res.Meta, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var enc journal.Encoder
	tampered := -1
	for i := range res.Records {
		r := res.Records[i]
		if tampered < 0 && r.Flags&journal.FlagObs != 0 && r.Flags&journal.FlagCoast == 0 {
			r.Pos.X += 0.5
			tampered = i
		}
		enc.Begin(0, r.Epoch)
		enc.Add(&r)
		if err := jw.WriteRecords(enc.Payload(), enc.Count(), r.Epoch); err != nil {
			t.Fatal(err)
		}
	}
	if tampered < 0 {
		t.Fatal("journal captured no observation sets to tamper with")
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run(&out, []string{"replay", path}); err == nil {
		t.Fatalf("tampered journal replayed cleanly:\n%s", out.String())
	}
	want := fmt.Sprintf("recv %d epoch %d: MISMATCH", res.Records[tampered].Receiver, res.Records[tampered].Epoch)
	if !strings.Contains(out.String(), want) {
		t.Errorf("replay output missing %q:\n%s", want, out.String())
	}
	if n := strings.Count(out.String(), "MISMATCH"); n != 1 {
		t.Errorf("%d MISMATCH lines, want exactly the tampered record:\n%s", n, out.String())
	}
}

// A truncated journal must still be inspectable, reporting exactly one
// torn tail.
func TestTornJournalInspectable(t *testing.T) {
	path := writeJournal(t, "flight.gpsj", 5, 200)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.gpsj")
	if err := os.WriteFile(torn, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, []string{"info", torn}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "torn tail") {
		t.Errorf("torn journal not reported:\n%s", out.String())
	}
}

func TestBundleDirAccepted(t *testing.T) {
	path := writeJournal(t, "journal.gpsj", 9, 150)
	bundle := filepath.Dir(path) // the temp dir acts as the bundle
	var out bytes.Buffer
	if err := run(&out, []string{"info", bundle}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "receivers=2") {
		t.Errorf("bundle info:\n%s", out.String())
	}
}

func TestUsageAndErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, nil); err == nil {
		t.Error("no command accepted")
	}
	out.Reset()
	if err := run(&out, []string{"bogus"}); err == nil {
		t.Error("unknown command accepted")
	}
	out.Reset()
	if err := run(&out, []string{"help"}); err != nil {
		t.Error(err)
	}
	if !strings.Contains(out.String(), "attribute") {
		t.Errorf("usage missing commands:\n%s", out.String())
	}
}

// TestHelpReturnsNil: -h on gpsinspect and on each of its commands
// prints the usage and is not an error, so the command exits 0.
func TestHelpReturnsNil(t *testing.T) {
	for _, args := range [][]string{{"-h"}, {"info", "-h"}, {"timeline", "-h"},
		{"attribute", "-h"}, {"diff", "-h"}, {"replay", "-h"}} {
		if err := run(io.Discard, args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}
