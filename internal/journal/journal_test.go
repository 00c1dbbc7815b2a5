package journal

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"gpsdl/internal/geo"
)

func testMeta() Meta {
	return Meta{
		Solver:    "nr,dlg,dlo,bancroft",
		Seed:      42,
		Step:      1,
		Receivers: 3,
		Stations:  []string{"BJFS", "SHAO", "URUM"},
		Sigma:     5,
	}
}

// makeRecord builds a deterministic, fully-populated record.
func makeRecord(recv int, epoch uint64, withObs bool) Record {
	r := Record{
		Receiver:    recv,
		Epoch:       epoch,
		Flags:       FlagFix | FlagRMS | FlagChi2Valid | FlagChi2Pass | FlagDOP | FlagClock | FlagExcluded,
		State:       1,
		Chain:       2,
		Solver:      SolverIndex("DLO"),
		Pos:         geo.ECEF{X: -2148744.1 + float64(epoch), Y: 4426641.2, Z: 4044655.9},
		ClockBias:   12345.6789,
		RMS:         3.25,
		PDOP:        2.5,
		HDOP:        1.25,
		ClockInnov:  -0.75,
		ExcludedPRN: 14,
		Residuals: []SatResidual{
			{PRN: 3, Meters: 1.5}, {PRN: 14, Meters: -27.25}, {PRN: 22, Meters: 0.125},
		},
	}
	if withObs {
		r.Flags |= FlagObs
		r.PredBias = 3.4e-4
		r.Obs = []CapturedObs{
			{PRN: 3, Pos: geo.ECEF{X: 1.5e7, Y: 2.1e7, Z: 3.3e6}, Pseudorange: 2.123456789e7, Elevation: 0.61},
			{PRN: 14, Pos: geo.ECEF{X: -1.1e7, Y: 1.9e7, Z: 1.2e7}, Pseudorange: 2.234567891e7, Elevation: 0.35},
		}
		if epoch%2 == 1 {
			// A weighted capture: σ round-trips bit for bit, zeros too.
			r.Flags |= FlagSigma
			r.Obs[0].Sigma = 4.503599627370497
		}
	}
	return r
}

// buildJournal writes nBatches of batchLen records and returns the
// file bytes and the records written.
func buildJournal(t *testing.T, nBatches, batchLen int, opt Options) ([]byte, []Record) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta(), opt)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	var enc Encoder
	var want []Record
	epoch := uint64(100)
	for b := 0; b < nBatches; b++ {
		enc.Begin(b%2, epoch)
		for i := 0; i < batchLen; i++ {
			rec := makeRecord(i%3, epoch, i == 0)
			enc.Add(&rec)
			want = append(want, rec)
			epoch++
		}
		if err := w.WriteRecords(enc.Payload(), enc.Count(), epoch-1); err != nil {
			t.Fatalf("WriteRecords: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes(), want
}

// expectRecord compares a decoded record against the original,
// accounting for millimetre quantization of the metric scalars.
func expectRecord(t *testing.T, got, want *Record) {
	t.Helper()
	if got.Receiver != want.Receiver || got.Epoch != want.Epoch {
		t.Fatalf("identity mismatch: got (%d,%d) want (%d,%d)",
			got.Receiver, got.Epoch, want.Receiver, want.Epoch)
	}
	if got.Flags != want.Flags || got.State != want.State ||
		got.Chain != want.Chain || got.Solver != want.Solver {
		t.Fatalf("flags/state mismatch: got %+v want %+v", got, want)
	}
	if got.Pos != want.Pos || got.ClockBias != want.ClockBias {
		t.Fatalf("solution not bit-identical: got %+v want %+v", got.Pos, want.Pos)
	}
	const mm = 0.0005
	for name, pair := range map[string][2]float64{
		"rms":   {got.RMS, want.RMS},
		"pdop":  {got.PDOP, want.PDOP},
		"hdop":  {got.HDOP, want.HDOP},
		"clock": {got.ClockInnov, want.ClockInnov},
	} {
		if math.Abs(pair[0]-pair[1]) > mm {
			t.Fatalf("%s lost more than quantization: got %v want %v", name, pair[0], pair[1])
		}
	}
	if got.ExcludedPRN != want.ExcludedPRN {
		t.Fatalf("excluded PRN: got %d want %d", got.ExcludedPRN, want.ExcludedPRN)
	}
	if len(got.Residuals) != len(want.Residuals) {
		t.Fatalf("residual count: got %d want %d", len(got.Residuals), len(want.Residuals))
	}
	for i := range got.Residuals {
		if got.Residuals[i].PRN != want.Residuals[i].PRN ||
			math.Abs(got.Residuals[i].Meters-want.Residuals[i].Meters) > mm {
			t.Fatalf("residual %d: got %+v want %+v", i, got.Residuals[i], want.Residuals[i])
		}
	}
	if want.Flags&FlagObs != 0 {
		if got.PredBias != want.PredBias {
			t.Fatalf("pred bias not bit-identical: got %v want %v", got.PredBias, want.PredBias)
		}
		if len(got.Obs) != len(want.Obs) {
			t.Fatalf("obs count: got %d want %d", len(got.Obs), len(want.Obs))
		}
		for i := range got.Obs {
			if got.Obs[i] != want.Obs[i] {
				t.Fatalf("obs %d not bit-identical: got %+v want %+v", i, got.Obs[i], want.Obs[i])
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	data, want := buildJournal(t, 7, 9, Options{SyncEvery: 3})
	res, err := Scan(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if res.Torn {
		t.Fatalf("clean journal scanned as torn: %s at %d", res.TornReason, res.TornOffset)
	}
	if res.Meta.Solver != "nr,dlg,dlo,bancroft" || res.Meta.Receivers != 3 {
		t.Fatalf("meta mismatch: %+v", res.Meta)
	}
	if len(res.Records) != len(want) {
		t.Fatalf("record count: got %d want %d", len(res.Records), len(want))
	}
	sigma := 0
	for i := range want {
		expectRecord(t, &res.Records[i], &want[i])
		if want[i].Has(FlagSigma) {
			sigma++
		}
	}
	if sigma == 0 {
		t.Fatal("no record captured σ")
	}
	if len(res.SyncPoints) == 0 {
		t.Fatal("no sync points recorded")
	}
	last := res.SyncPoints[len(res.SyncPoints)-1]
	if last.Records != uint64(len(want)) || last.Frames != 7 {
		t.Fatalf("final sync point %+v, want records=%d frames=7", last, len(want))
	}
}

// TestCrashSafetyEveryOffset is the acceptance-criteria crash test:
// truncate the file at every byte offset inside the final frame and
// assert the reader recovers every record from the complete frames and
// reports exactly one torn tail.
func TestCrashSafetyEveryOffset(t *testing.T) {
	data, want := buildJournal(t, 5, 8, Options{SyncEvery: 2})

	// Locate the start of the final frame: scan frames from the top.
	res, err := Scan(bytes.NewReader(data))
	if err != nil || res.Torn {
		t.Fatalf("baseline scan failed: %v %+v", err, res)
	}
	// The last frame is the Close() sync frame; the offset of the
	// final *record* frame is found by truncating backwards until the
	// record count drops. Simpler: find every frame boundary.
	bounds := frameBoundaries(t, data)
	if len(bounds) < 3 {
		t.Fatalf("too few frames: %d", len(bounds))
	}
	lastFrame := bounds[len(bounds)-2] // start of final frame (last bound is EOF)
	end := bounds[len(bounds)-1]
	if end != len(data) {
		t.Fatalf("frame walk ended at %d, file is %d", end, len(data))
	}

	// Records recoverable with the final frame gone entirely.
	base, err := Scan(bytes.NewReader(data[:lastFrame]))
	if err != nil {
		t.Fatalf("scan of prefix: %v", err)
	}
	if base.Torn {
		t.Fatalf("prefix ending on frame boundary reported torn: %s", base.TornReason)
	}

	for off := lastFrame + 1; off < len(data); off++ {
		trunc := data[:off]
		got, err := Scan(bytes.NewReader(trunc))
		if err != nil {
			t.Fatalf("offset %d: scan error %v", off, err)
		}
		if !got.Torn {
			t.Fatalf("offset %d: truncated tail not reported torn", off)
		}
		if got.TornOffset != int64(lastFrame) {
			t.Fatalf("offset %d: torn at %d, want %d (%s)", off, got.TornOffset, lastFrame, got.TornReason)
		}
		if len(got.Records) != len(base.Records) {
			t.Fatalf("offset %d: recovered %d records, want %d", off, len(got.Records), len(base.Records))
		}
	}
	_ = want
}

// TestFlippedByteDetected flips each byte of one frame's payload in
// turn and asserts the CRC catches it (scan stops, prior records
// intact, exactly one torn tail).
func TestFlippedByteDetected(t *testing.T) {
	data, _ := buildJournal(t, 4, 6, Options{SyncEvery: -1})
	bounds := frameBoundaries(t, data)
	// Flip bytes inside the third frame (index 2), leaving two good
	// frames before it.
	start, end := bounds[2], bounds[3]
	base, _ := Scan(bytes.NewReader(data[:start]))
	for off := start; off < end; off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		got, err := Scan(bytes.NewReader(mut))
		if err != nil {
			t.Fatalf("offset %d: scan error %v", off, err)
		}
		if !got.Torn {
			t.Fatalf("offset %d: corruption not detected", off)
		}
		if len(got.Records) < len(base.Records) {
			t.Fatalf("offset %d: lost pre-corruption records (%d < %d)",
				off, len(got.Records), len(base.Records))
		}
	}
}

func TestGarbageAfterLastFrame(t *testing.T) {
	data, want := buildJournal(t, 3, 5, Options{})
	garbage := append(append([]byte(nil), data...), 0xDE, 0xAD, 0xBE, 0xEF)
	got, err := Scan(bytes.NewReader(garbage))
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if !got.Torn {
		t.Fatal("trailing garbage not reported as torn tail")
	}
	if len(got.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got.Records), len(want))
	}
}

func TestTailSegmentSelfContained(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta(), Options{SyncEvery: -1, TailFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	var enc Encoder
	epoch := uint64(0)
	for b := 0; b < 10; b++ { // more batches than tail slots
		enc.Begin(0, epoch)
		for i := 0; i < 3; i++ {
			rec := makeRecord(0, epoch, false)
			enc.Add(&rec)
			epoch++
		}
		if err := w.WriteRecords(enc.Payload(), enc.Count(), epoch-1); err != nil {
			t.Fatal(err)
		}
	}
	seg := w.TailSegment()
	res, err := Scan(bytes.NewReader(seg))
	if err != nil {
		t.Fatalf("tail segment scan: %v", err)
	}
	if res.Torn {
		t.Fatalf("tail segment torn: %s", res.TornReason)
	}
	if len(res.Records) != 4*3 {
		t.Fatalf("tail segment has %d records, want %d", len(res.Records), 12)
	}
	// Tail must contain the most recent epochs.
	if got := res.Records[len(res.Records)-1].Epoch; got != epoch-1 {
		t.Fatalf("tail last epoch %d, want %d", got, epoch-1)
	}
	if res.Meta.Receivers != 3 {
		t.Fatalf("tail segment lost meta: %+v", res.Meta)
	}
}

// TestTailRingByteBudget: catch-up batch frames run to hundreds of KB,
// so a frame-count bound alone pins tens of MB. With frames far larger
// in total than the byte budget, the ring must hold at most the budget
// (or the newest frame alone), and its segment must still be a
// self-contained journal ending at the newest epoch.
func TestTailRingByteBudget(t *testing.T) {
	for _, tc := range []struct {
		batchLen int
		oversize bool // one frame alone exceeds the budget
	}{{3000, false}, {80000, true}} {
		batchLen := tc.batchLen
		var buf bytes.Buffer
		w, err := NewWriter(&buf, testMeta(), Options{SyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		var enc Encoder
		epoch, maxFrame := uint64(0), 0
		// Records frame to roughly 60 bytes, so this writes ~3× the budget.
		for b := 0; b < 3*tailBudget/(batchLen*60)+3; b++ {
			enc.Begin(0, epoch)
			for i := 0; i < batchLen; i++ {
				rec := makeRecord(0, epoch, i%7 == 0)
				enc.Add(&rec)
				epoch++
			}
			if n := len(enc.Payload()); n > maxFrame {
				maxFrame = n
			}
			if err := w.WriteRecords(enc.Payload(), enc.Count(), epoch-1); err != nil {
				t.Fatal(err)
			}
			if limit := max(tailBudget, maxFrame+maxFrame/8+16); w.tailBytes > limit {
				t.Fatalf("batch %d: tail holds %d bytes, want ≤ %d", b, w.tailBytes, limit)
			}
			held := 0
			for _, slot := range w.tail {
				held += cap(slot)
			}
			if held != w.tailBytes {
				t.Fatalf("batch %d: evicted slots still reachable: %d bytes held, %d accounted", b, held, w.tailBytes)
			}
		}
		if tc.oversize != (maxFrame > tailBudget) {
			t.Fatalf("batches of %d records framed to %d bytes; oversize=%v against a %d-byte budget",
				batchLen, maxFrame, tc.oversize, tailBudget)
		}
		seg := w.TailSegment()
		res, err := Scan(bytes.NewReader(seg))
		if err != nil {
			t.Fatalf("tail segment scan: %v", err)
		}
		if res.Torn {
			t.Fatalf("tail segment torn: %s", res.TornReason)
		}
		if len(res.Records) < batchLen || len(res.Records)%batchLen != 0 {
			t.Fatalf("tail segment has %d records, want whole batches of %d", len(res.Records), batchLen)
		}
		if got := res.Records[len(res.Records)-1].Epoch; got != epoch-1 {
			t.Fatalf("tail last epoch %d, want %d", got, epoch-1)
		}
		if total := int(epoch) / batchLen; len(res.Records)/batchLen >= total {
			t.Fatalf("tail kept all %d frames; the byte budget never applied", total)
		}
	}
}

// TestWriteBatchMatchesWriteRecords: framing a batch inside its encoder
// writes the same bytes, and keeps the same tail segment, as framing
// a copy of its payload, with and without a tail ring, across shard
// ids, base epochs and record counts whose varints take 1 to 3 bytes.
func TestWriteBatchMatchesWriteRecords(t *testing.T) {
	for _, opt := range []Options{{}, {TailFrames: 4}, {TailFrames: -1}, {SyncEvery: 3, TailFrames: 2}} {
		var inPlace, copied bytes.Buffer
		wb, err := NewWriter(&inPlace, testMeta(), opt)
		if err != nil {
			t.Fatal(err)
		}
		wr, err := NewWriter(&copied, testMeta(), opt)
		if err != nil {
			t.Fatal(err)
		}
		var eb, er Encoder
		epoch := uint64(1 << 20)
		for b, n := range []int{1, 3, 127, 128, 5, 300, 2, 16400, 1, 64} {
			shard := []int{0, 1, 300, 70000}[b%4]
			eb.Begin(shard, epoch)
			er.Begin(shard, epoch)
			for i := 0; i < n; i++ {
				rec := makeRecord(i%3, epoch, i%5 == 0)
				eb.Add(&rec)
				er.Add(&rec)
				epoch++
			}
			if err := wr.WriteRecords(er.Payload(), er.Count(), epoch-1); err != nil {
				t.Fatal(err)
			}
			if err := wb.WriteBatch(&eb, epoch-1); err != nil {
				t.Fatal(err)
			}
			if eb.Count() != 0 || eb.Payload() != nil {
				t.Fatalf("batch %d: encoder holds %d records after WriteBatch", b, eb.Count())
			}
			if !bytes.Equal(inPlace.Bytes(), copied.Bytes()) {
				t.Fatalf("options %+v, batch %d: WriteBatch wrote other bytes than WriteRecords", opt, b)
			}
			if !bytes.Equal(wb.TailSegment(), wr.TailSegment()) {
				t.Fatalf("options %+v, batch %d: tail segments differ", opt, b)
			}
		}
		if err := wb.WriteBatch(&eb, epoch); err != nil {
			t.Fatalf("empty batch: %v", err)
		}
		wb.Close()
		wr.Close()
		if !bytes.Equal(inPlace.Bytes(), copied.Bytes()) {
			t.Fatalf("options %+v: closed journals differ", opt)
		}
	}
}

// TestWriteBatchReusesEvictedBuffers: once the tail ring is full, a
// batch is framed in the buffer of the frame the ring evicted, so
// writing it allocates nothing: the frame is neither copied nor
// assembled in a buffer of the writer's own.
func TestWriteBatchReusesEvictedBuffers(t *testing.T) {
	w, err := NewWriter(io.Discard, testMeta(), Options{SyncEvery: -1, TailFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	var enc Encoder
	recs := make([]Record, 40)
	for i := range recs {
		recs[i] = makeRecord(i%3, uint64(i), i%7 == 0)
	}
	epoch := uint64(0)
	batch := func() {
		enc.Begin(0, epoch)
		for i := range recs {
			recs[i].Epoch = epoch
			enc.Add(&recs[i])
			epoch++
		}
		if err := w.WriteBatch(&enc, epoch-1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		batch()
	}
	if n := testing.AllocsPerRun(50, batch); n != 0 {
		t.Fatalf("%v allocations per batch with a full tail ring, want 0", n)
	}
}

func TestScanFileAndBadHeader(t *testing.T) {
	dir := t.TempDir()
	data, want := buildJournal(t, 2, 4, Options{})
	path := filepath.Join(dir, "j.gpsj")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(want) {
		t.Fatalf("got %d records, want %d", len(res.Records), len(want))
	}
	if _, err := Scan(bytes.NewReader([]byte("not a journal at all"))); err == nil {
		t.Fatal("bad header accepted")
	}
}

func TestEncoderReuseNoGrowth(t *testing.T) {
	var enc Encoder
	rec := makeRecord(0, 5, true)
	enc.Begin(0, 0)
	enc.Add(&rec)
	_ = enc.Payload()
	capBefore := cap(enc.buf)
	for i := 0; i < 100; i++ {
		enc.Begin(0, uint64(i))
		r := makeRecord(0, uint64(i), true)
		enc.Add(&r)
		_ = enc.Payload()
	}
	if cap(enc.buf) > 2*capBefore+64 {
		t.Fatalf("encoder buffer kept growing: %d -> %d", capBefore, cap(enc.buf))
	}
}

func TestSolverAndStateTables(t *testing.T) {
	for _, name := range []string{"NR", "DLG", "DLO", "Bancroft", "TriSat", "coast"} {
		idx := SolverIndex(name)
		if idx == 0 {
			t.Fatalf("solver %q not in table", name)
		}
		if SolverName(idx) != name {
			t.Fatalf("solver table not invertible for %q", name)
		}
	}
	if SolverIndex("nonesuch") != 0 {
		t.Fatal("unknown solver should map to 0")
	}
	if StateName(0) != "healthy" || StateName(4) != "failed" {
		t.Fatal("state table mismatch")
	}
	if StateName(200) != "state(200)" {
		t.Fatalf("unknown state rendered %q", StateName(200))
	}
}

// frameBoundaries returns the byte offset of each frame start plus a
// final entry at EOF, by walking the framing layer.
func frameBoundaries(t *testing.T, data []byte) []int {
	t.Helper()
	// Skip header: magic(4)+ver(1)+uvarint+meta+crc(4).
	off := 5
	mlen, n := uvarintAt(t, data, off)
	off += n + int(mlen) + 4
	bounds := []int{}
	for off < len(data) {
		bounds = append(bounds, off)
		if data[off] != FrameMarker {
			t.Fatalf("no marker at %d", off)
		}
		plen, n := uvarintAt(t, data, off+1)
		off += 1 + n + int(plen) + 4
	}
	bounds = append(bounds, off)
	return bounds
}

func uvarintAt(t *testing.T, data []byte, off int) (uint64, int) {
	t.Helper()
	v, n := uvarint(data[off:])
	if n <= 0 {
		t.Fatalf("bad varint at %d", off)
	}
	return v, n
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i, x := range b {
		if i == 10 {
			return 0, -1
		}
		if x < 0x80 {
			return v | uint64(x)<<(7*i), i + 1
		}
		v |= uint64(x&0x7f) << (7 * i)
	}
	return 0, 0
}
