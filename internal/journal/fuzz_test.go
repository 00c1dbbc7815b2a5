package journal

import (
	"bytes"
	"testing"
)

// FuzzFrameReader feeds arbitrary bytes to the journal scanner. The
// scanner must never panic, never allocate from implausible length
// prefixes, and must uphold the torn-tail contract: at most one tear,
// records only from CRC-verified frames.
func FuzzFrameReader(f *testing.F) {
	// Seed 1: a healthy multi-frame journal.
	clean := fuzzJournal(f, 3, 4)
	f.Add(clean)
	// Seed 2: torn tail (truncated mid final frame).
	f.Add(clean[:len(clean)-5])
	// Seed 3: flipped byte mid-file.
	flipped := append([]byte(nil), clean...)
	if len(flipped) > 60 {
		flipped[60] ^= 0xFF
	}
	f.Add(flipped)
	// Seed 4: header only.
	f.Add(clean[:headerLen(clean)])
	// Seed 5: garbage appended after the last frame.
	f.Add(append(append([]byte(nil), clean...), 0xA7, 0x05, 0x00))
	// Seed 6: not a journal.
	f.Add([]byte("GPSJ"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Scan(bytes.NewReader(data))
		if err != nil {
			return // rejected at the header; fine
		}
		if res == nil {
			t.Fatal("nil result without error")
		}
		// Records must decode consistently: re-scanning the same
		// bytes yields the same outcome.
		res2, err2 := Scan(bytes.NewReader(data))
		if err2 != nil {
			t.Fatalf("second scan failed where first succeeded: %v", err2)
		}
		if len(res2.Records) != len(res.Records) || res2.Torn != res.Torn ||
			res2.TornOffset != res.TornOffset {
			t.Fatalf("scan not deterministic: %+v vs %+v", res, res2)
		}
		// A torn file must still carry a valid tear offset inside
		// the file.
		if res.Torn && (res.TornOffset < 0 || res.TornOffset > int64(len(data))) {
			t.Fatalf("tear offset %d outside file of %d bytes", res.TornOffset, len(data))
		}
	})
}

func fuzzJournal(f *testing.F, batches, perBatch int) []byte {
	f.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta(), Options{SyncEvery: 2})
	if err != nil {
		f.Fatal(err)
	}
	var enc Encoder
	epoch := uint64(10)
	for b := 0; b < batches; b++ {
		enc.Begin(0, epoch)
		for i := 0; i < perBatch; i++ {
			rec := makeFuzzRecord(i, epoch)
			enc.Add(&rec)
			epoch++
		}
		if err := w.WriteRecords(enc.Payload(), enc.Count(), epoch-1); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

func makeFuzzRecord(i int, epoch uint64) Record {
	r := Record{
		Receiver: i % 2,
		Epoch:    epoch,
		Flags:    FlagFix | FlagRMS,
		Solver:   1,
		RMS:      1.5,
	}
	if i%3 == 0 {
		r.Flags |= FlagObs
		r.PredBias = 1e-4
		r.Obs = []CapturedObs{{PRN: 7, Pseudorange: 2e7, Elevation: 0.5}, {PRN: 9, Pseudorange: 2.1e7, Elevation: 0.7}}
	}
	if i == 0 {
		// A weighted capture, so the seeds cover FlagSigma's layout.
		r.Flags |= FlagSigma
		r.Obs[0].Sigma = 3.5
	}
	return r
}

func headerLen(data []byte) int {
	mlen, n := uvarint(data[5:])
	return 5 + n + int(mlen) + 4
}
