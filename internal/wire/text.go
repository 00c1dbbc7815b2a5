package wire

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Text-stream limits. A text subscriber's queue holds whole fixes (one
// GGA+RMC pair each); when it is full the oldest fix is shed for the
// newest, and a subscriber that overflows textDropBudget publishes in a
// row, over at least textMinStall, is evicted as slow. The floor keeps
// a writer that merely waited for a processor attached: a closed-loop
// producer publishes 256 fixes in about a millisecond, and a busy or
// virtualised host stalls threads for that long. 1024 fixes of queue
// cover such a stall without shedding at serving rates; the queued
// buffers are shared, so a full queue pins at most ~150 KB of text.
const (
	textQueueFixes = 1024
	textDropBudget = 256
	textMinStall   = 100 * time.Millisecond
)

// Text drop reasons, the index of TextStats.Drops.
const (
	DropSlow     = iota // evicted after a streak of overflowing publishes
	DropWrite           // the socket write failed or the subscriber closed
	DropShutdown        // the serving context ended
)

// textStream is the node-wide NMEA stream: every text subscriber gets
// every session's fixes, interleaved in publish order. It keeps no
// replay ring, because NMEA has no resume: a reconnecting client wants
// current fixes, not its old backlog.
type textStream struct {
	mu       sync.Mutex
	subs     map[*Subscriber]struct{}
	attached atomic.Int64 // len(subs), read by PublishText without mu
	connects uint64
	drops    [3]uint64
	fixes    atomic.Uint64 // GGA+RMC pairs published
	shed     atomic.Uint64 // pairs dropped oldest-first
}

// TextStats is a snapshot of the text stream's counters. Connects,
// Drops and Clients come from one locked read, so
// Connects − (Drops[0]+Drops[1]+Drops[2]) == Clients holds within every
// snapshot.
type TextStats struct {
	Clients  int
	Connects uint64
	// Drops counts disconnections by reason (DropSlow, DropWrite,
	// DropShutdown).
	Drops [3]uint64
	// Fixes counts published GGA+RMC pairs, with or without a
	// subscriber attached; Shed counts pairs dropped oldest-first from
	// full queues.
	Fixes, Shed uint64
}

// TextStats snapshots the text stream's counters.
func (h *Hub) TextStats() TextStats {
	t := &h.text
	t.mu.Lock()
	s := TextStats{Clients: len(t.subs), Connects: t.connects, Drops: t.drops}
	t.mu.Unlock()
	s.Fixes, s.Shed = t.fixes.Load(), t.shed.Load()
	return s
}

// SubscribeText attaches an NMEA text subscriber. C delivers one buffer
// per fix, "GGA\r\nRMC\r\n", shared read-only with every other text
// subscriber. The channel closes when the subscriber is evicted as slow
// or closed.
func (h *Hub) SubscribeText() *Subscriber {
	ch := make(chan []byte, textQueueFixes)
	sub := &Subscriber{C: ch, ch: ch, hub: h}
	t := &h.text
	t.mu.Lock()
	if t.subs == nil {
		t.subs = make(map[*Subscriber]struct{})
	}
	t.subs[sub] = struct{}{}
	t.attached.Add(1)
	t.connects++
	t.mu.Unlock()
	return sub
}

// PublishText fans one fix's GGA and RMC sentences (each without its
// CRLF) out to every text subscriber. The pair is copied once into a
// buffer all subscribers share, and only when one is attached, so with
// none a publish costs one atomic add and allocates nothing.
//
// It never blocks on a subscriber. A full queue first yields the
// processor once, so a writer that is runnable but not running (a
// closed-loop producer can keep every processor busy) drains before
// anything is shed. If the queue is still full, its oldest fix is shed
// for this one, and textDropBudget overflowing publishes in a row
// (spanning textMinStall) evict the subscriber as slow.
func (h *Hub) PublishText(gga, rmc []byte) {
	t := &h.text
	t.fixes.Add(1)
	if t.attached.Load() == 0 {
		return
	}
	buf := make([]byte, 0, len(gga)+len(rmc)+4)
	buf = append(append(buf, gga...), '\r', '\n')
	buf = append(append(buf, rmc...), '\r', '\n')
	yielded := false
	t.mu.Lock()
	for sub := range t.subs {
		select {
		case sub.ch <- buf:
			sub.overflow = 0
			continue
		default:
		}
		if !yielded {
			yielded = true
			runtime.Gosched()
			select {
			case sub.ch <- buf:
				sub.overflow = 0
				continue
			default:
			}
		}
		// Still full: drop-oldest, then enqueue. The writer may have
		// drained a slot in between; then nothing is shed.
		select {
		case <-sub.ch:
			t.shed.Add(1)
		default:
		}
		select {
		case sub.ch <- buf:
		default:
		}
		if sub.overflow == 0 {
			sub.stalled = time.Now()
		}
		if sub.overflow++; sub.overflow >= textDropBudget && time.Since(sub.stalled) >= textMinStall {
			t.dropLocked(sub, DropSlow)
		}
	}
	t.mu.Unlock()
}

// Flush waits until every text subscriber's queue is empty or timeout
// elapses, and reports whether they all emptied. Graceful shutdown calls
// it so the last fixes reach well-behaved clients before their
// connections close; a stalled client keeps it false.
func (h *Hub) Flush(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		pending := 0
		h.text.mu.Lock()
		for sub := range h.text.subs {
			pending += len(sub.ch)
		}
		h.text.mu.Unlock()
		if pending == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// drop detaches a text subscriber, counting reason; only the first
// removal counts.
func (t *textStream) drop(sub *Subscriber, reason int) {
	t.mu.Lock()
	t.dropLocked(sub, reason)
	t.mu.Unlock()
}

func (t *textStream) dropLocked(sub *Subscriber, reason int) {
	if sub.closed {
		return
	}
	delete(t.subs, sub)
	t.attached.Add(-1)
	t.drops[reason]++
	sub.closed = true
	close(sub.ch)
}
