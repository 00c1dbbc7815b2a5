package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"sync"
	"time"

	"gpsdl/internal/frame"
	"gpsdl/internal/telemetry"
)

// Options tunes a Writer. The zero value selects the defaults.
type Options struct {
	// SyncEvery emits a sync frame after every N record frames and
	// schedules an asynchronous fsync when the sink supports it, so
	// stable-storage flushes never stall the write path. 0 selects
	// DefaultSyncEvery; negative disables sync frames entirely.
	// Explicit Sync and Close always flush synchronously.
	SyncEvery int

	// TailFrames is how many recent frames the in-memory tail ring
	// retains for incident segments. 0 selects DefaultTailFrames;
	// negative disables the ring. The ring also holds at most 4 MiB:
	// older frames are evicted first, and the newest frame is always
	// kept.
	TailFrames int

	// Registry, when non-nil, registers and feeds the
	// gps_journal_bytes_written_total and gps_journal_fsyncs_total
	// counters.
	Registry *telemetry.Registry
}

const (
	DefaultSyncEvery  = 16
	DefaultTailFrames = 256
)

// syncInterval rate-limits background fsyncs: consecutive flushes are
// at least this far apart, with kicks coalescing in between. This
// bounds the durability window by time — a crash loses at most
// roughly the last syncInterval of records — instead of letting a
// high-throughput burst burn a flush per SyncEvery frames.
const syncInterval = 250 * time.Millisecond

// tailBudget bounds the tail ring's memory. Live-paced batch frames are a
// few KB, so incident segments keep all TailFrames of them; catch-up
// batch frames reach hundreds of KB, where a frame-count bound alone
// would pin tens of MB for the life of the writer.
const tailBudget = 4 << 20

type syncer interface{ Sync() error }

// Writer appends CRC-framed payloads to an underlying sink. All
// methods are safe for concurrent use; each frame is handed to the
// sink as a single Write so torn writes land mid-frame at worst, never
// interleaved.
type Writer struct {
	mu     sync.Mutex
	w      io.Writer
	syncer syncer // non-nil when the sink supports fsync (e.g. *os.File)
	header []byte // encoded file header, retained for TailSegment

	syncEvery  int
	sinceSync  int
	frames     uint64 // record frames written
	records    uint64
	bytes      uint64
	syncFrames uint64
	maxEpoch   uint64

	// The tail ring owns the buffers frames were written from: slot i
	// holds its frame (marker..crc) at tail[i][tailAt[i]:]. Empty slots
	// are nil.
	tail      [][]byte
	tailAt    []int
	tailPos   int // slot the next frame goes to
	tailLen   int // retained frames, the newest just before tailPos
	tailBytes int // capacity held by the retained slots

	// Background fsync: periodic sync points kick this channel and the
	// syncLoop goroutine flushes without holding mu, so a slow disk
	// never blocks WriteRecords. Kicks coalesce while a flush is in
	// flight; the first fsync failure is latched in syncErr and
	// surfaced by the next write.
	kick    chan struct{}
	done    chan struct{}
	syncErr error

	bytesTotal *telemetry.Counter
	fsyncTotal *telemetry.Counter

	closed bool
}

// NewWriter writes the file header for meta to w and returns a Writer.
// If w implements Sync() error (as *os.File does), sync points fsync.
func NewWriter(w io.Writer, meta Meta, opt Options) (*Writer, error) {
	mj, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	hdr := frame.Append(append(make([]byte, 0, len(mj)+16), magic[:]...), Version, mj)
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	jw := &Writer{w: w, header: hdr, bytes: uint64(len(hdr))}
	jw.syncer, _ = w.(syncer)
	jw.syncEvery = opt.SyncEvery
	if jw.syncEvery == 0 {
		jw.syncEvery = DefaultSyncEvery
	}
	tf := opt.TailFrames
	if tf == 0 {
		tf = DefaultTailFrames
	}
	if tf > 0 {
		jw.tail = make([][]byte, tf)
		jw.tailAt = make([]int, tf)
	}
	if opt.Registry != nil {
		jw.bytesTotal = opt.Registry.Counter("gps_journal_bytes_written_total",
			"Bytes appended to the flight journal, framing included.")
		jw.fsyncTotal = opt.Registry.Counter("gps_journal_fsyncs_total",
			"Journal sync points flushed to stable storage.")
		jw.bytesTotal.Add(uint64(len(hdr)))
	}
	if jw.syncer != nil {
		jw.kick = make(chan struct{}, 1)
		jw.done = make(chan struct{})
		go jw.syncLoop()
	}
	return jw, nil
}

// syncLoop flushes the sink to stable storage whenever a sync point
// kicks it, off the write path. Flushes are spaced at least
// syncInterval apart; the single-slot kick channel coalesces sync
// points arriving while a flush (or the spacing sleep) is in
// progress, so a throughput burst costs one fsync per interval, not
// one per SyncEvery frames.
func (w *Writer) syncLoop() {
	defer close(w.done)
	var last time.Time
	for range w.kick {
		if !last.IsZero() {
			if d := syncInterval - time.Since(last); d > 0 {
				time.Sleep(d)
			}
		}
		err := w.syncer.Sync()
		last = time.Now()
		if w.fsyncTotal != nil {
			w.fsyncTotal.Inc()
		}
		if err != nil {
			w.mu.Lock()
			if w.syncErr == nil {
				w.syncErr = err
			}
			w.mu.Unlock()
		}
	}
}

// WriteRecords frames and appends one record-batch payload, such as
// Encoder.Payload returns. count is the number of records in the
// payload and maxEpoch the highest epoch it contains; both feed sync
// frames and Stats. A nil/empty payload is a no-op.
func (w *Writer) WriteRecords(payload []byte, count int, maxEpoch uint64) error {
	if len(payload) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.writableLocked(); err != nil {
		return err
	}
	if _, err := w.writeFrameLocked(frame.Append(nil, FrameMarker, payload), 0); err != nil {
		return err
	}
	return w.wroteRecordsLocked(count, maxEpoch)
}

// WriteBatch appends enc's batch as WriteRecords(enc.Payload(),
// enc.Count(), maxEpoch) would, framing it in the encoder's own buffer
// instead of a copy. That buffer then moves to the tail ring, and enc
// gets the buffer of the frame the ring evicts (or keeps its own when
// there is no ring). Unless the writer refused the batch, enc is empty
// afterwards and Begin starts its next batch. An empty batch is a
// no-op.
func (w *Writer) WriteBatch(enc *Encoder, maxEpoch uint64) error {
	count := enc.Count()
	if count == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.writableLocked(); err != nil {
		return err
	}
	spare, err := w.writeFrameLocked(enc.seal())
	enc.reset(spare)
	if err != nil {
		return err
	}
	return w.wroteRecordsLocked(count, maxEpoch)
}

// writableLocked reports why no frame can be written, nil when one can.
func (w *Writer) writableLocked() error {
	if w.closed {
		return errors.New("journal: writer closed")
	}
	return w.syncErr
}

// wroteRecordsLocked counts a written record frame and emits a sync
// frame when one is due.
func (w *Writer) wroteRecordsLocked(count int, maxEpoch uint64) error {
	w.frames++
	w.records += uint64(count)
	if maxEpoch > w.maxEpoch {
		w.maxEpoch = maxEpoch
	}
	w.sinceSync++
	if w.syncEvery > 0 && w.sinceSync >= w.syncEvery {
		return w.syncLocked(false)
	}
	return nil
}

// syncLocked writes a sync frame. With flush it fsyncs inline;
// otherwise it kicks the background syncLoop and returns immediately
// (coalescing with any flush already in flight).
func (w *Writer) syncLocked(flush bool) error {
	w.sinceSync = 0
	var p [1 + 3*binary.MaxVarintLen64]byte
	sp := p[:0]
	sp = append(sp, FrameSync)
	sp = binary.AppendUvarint(sp, w.maxEpoch)
	sp = binary.AppendUvarint(sp, w.frames)
	sp = binary.AppendUvarint(sp, w.records)
	if _, err := w.writeFrameLocked(frame.Append(nil, FrameMarker, sp), 0); err != nil {
		return err
	}
	w.syncFrames++
	if w.syncer == nil {
		if w.fsyncTotal != nil {
			w.fsyncTotal.Inc()
		}
		return nil
	}
	if !flush {
		select {
		case w.kick <- struct{}{}:
		default:
		}
		return w.syncErr
	}
	if err := w.syncer.Sync(); err != nil {
		return err
	}
	if w.fsyncTotal != nil {
		w.fsyncTotal.Inc()
	}
	return w.syncErr
}

// writeFrameLocked writes the frame buf[at:] and, with a tail ring,
// hands buf to the ring. It returns a buffer the caller may reuse: buf
// itself when the ring did not take it, else the buffer of the last
// frame the ring evicted (nil when none).
func (w *Writer) writeFrameLocked(buf []byte, at int) ([]byte, error) {
	b := buf[at:]
	if _, err := w.w.Write(b); err != nil {
		return buf, err
	}
	w.bytes += uint64(len(b))
	if w.bytesTotal != nil {
		w.bytesTotal.Add(uint64(len(b)))
	}
	if w.tail == nil {
		return buf, nil
	}
	return w.pushTailLocked(buf, at), nil
}

// pushTailLocked keeps the frame buf[at:] in the tail ring, taking
// ownership of buf. It first evicts the oldest frames while the ring is
// full or buf would take it past tailBudget, so the ring's capacity
// stays within tailBudget — or within buf alone when buf is larger. It
// returns the buffer of the last frame evicted (nil when none), which
// the ring no longer references.
func (w *Writer) pushTailLocked(buf []byte, at int) []byte {
	var spare []byte
	for w.tailLen > 0 && (w.tailLen == len(w.tail) || w.tailBytes+cap(buf) > tailBudget) {
		spare = w.dropOldestTailLocked()
	}
	w.tail[w.tailPos], w.tailAt[w.tailPos] = buf, at
	w.tailBytes += cap(buf)
	w.tailPos = (w.tailPos + 1) % len(w.tail)
	w.tailLen++
	return spare
}

// dropOldestTailLocked evicts the oldest retained frame and returns its
// buffer.
func (w *Writer) dropOldestTailLocked() []byte {
	i := (w.tailPos - w.tailLen + len(w.tail)) % len(w.tail)
	b := w.tail[i]
	w.tail[i] = nil
	w.tailBytes -= cap(b)
	w.tailLen--
	return b
}

// TailSegment returns a self-contained journal (header plus the most
// recent frames from the tail ring) suitable for embedding in an
// incident bundle. The returned slice is freshly allocated.
func (w *Writer) TailSegment() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.header)
	for i := 0; i < w.tailLen; i++ {
		n += len(w.tailFrameLocked(i))
	}
	seg := make([]byte, 0, n)
	seg = append(seg, w.header...)
	for i := 0; i < w.tailLen; i++ {
		seg = append(seg, w.tailFrameLocked(i)...)
	}
	return seg
}

// tailFrameLocked returns the i-th oldest retained frame.
func (w *Writer) tailFrameLocked(i int) []byte {
	j := (w.tailPos - w.tailLen + i + len(w.tail)) % len(w.tail)
	return w.tail[j][w.tailAt[j]:]
}

// Stats reports cumulative frames (record frames only), records, and
// bytes written (header and framing included).
func (w *Writer) Stats() (frames, records, bytes uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.frames, w.records, w.bytes
}

// Close writes a final sync frame, flushes synchronously, stops the
// background syncer, and marks the writer closed. It does not close
// the underlying sink.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	err := w.syncLocked(true)
	kick := w.kick
	w.mu.Unlock()
	if kick != nil {
		// closed is set, so no further kicks can race this close.
		close(kick)
		<-w.done
		w.mu.Lock()
		if err == nil {
			err = w.syncErr
		}
		w.mu.Unlock()
	}
	return err
}
