package wire

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// HubConfig sizes a Hub.
type HubConfig struct {
	// KeyframeEvery is the encoder keyframe block size; ≤ 0 means
	// DefaultKeyframeEvery.
	KeyframeEvery int
	// RingFrames is the per-session replay ring capacity in frames.
	// The ring is what lets a reconnecting client resume from its ack
	// instead of cold-starting; it is forced to at least twice the
	// keyframe block so a chain start is (almost) always available.
	// ≤ 0 means 256.
	RingFrames int
	// QueueFrames is the per-subscriber live queue headroom beyond any
	// replayed frames. A subscriber that falls this far behind is
	// disconnected — not thinned: dropping individual frames would put
	// silent holes in a delta-coded stream, while a disconnect makes
	// the client reconnect with its resume token and replay the gap.
	// ≤ 0 means 256.
	QueueFrames int
}

func (c HubConfig) withDefaults() HubConfig {
	if c.KeyframeEvery <= 0 {
		c.KeyframeEvery = DefaultKeyframeEvery
	}
	if c.RingFrames <= 0 {
		c.RingFrames = 256
	}
	if c.RingFrames < 2*c.KeyframeEvery {
		c.RingFrames = 2 * c.KeyframeEvery
	}
	if c.QueueFrames <= 0 {
		c.QueueFrames = 256
	}
	return c
}

// Hub owns every subscriber queue of a serving node. It fans encoded
// FIX frames out to binary subscribers: each session is encoded exactly
// once per epoch — the same frame buffer is stored in the replay ring
// and queued to every subscriber — and the delta chain lives here, not
// per client. Beside the per-session streams it carries one node-wide
// NMEA text stream (PublishText, SubscribeText).
type Hub struct {
	cfg HubConfig

	mu      sync.RWMutex
	streams map[int]*stream
	down    bool
	text    textStream

	published atomic.Uint64 // frames encoded
	bytesOut  atomic.Uint64 // frame bytes queued to subscribers
	replayed  atomic.Uint64 // frames served from replay rings
	evicted   atomic.Uint64 // slow subscribers disconnected
	subs      atomic.Int64  // currently attached subscribers
}

// NewHub builds a Hub.
func NewHub(cfg HubConfig) *Hub {
	return &Hub{cfg: cfg.withDefaults(), streams: make(map[int]*stream)}
}

type ringEntry struct {
	epoch uint64
	key   bool
	frame []byte // full encoded frame (envelope included)
}

type stream struct {
	mu     sync.Mutex
	id     int
	hosted bool
	enc    FixEncoder
	head   int64 // last published epoch, −1 when none
	ring   []ringEntry
	start  int // ring index of the oldest entry
	n      int // live entries
	subs   map[*Subscriber]struct{}
}

// Subscriber is one attached client: binary (Subscribe) or NMEA text
// (SubscribeText). Buffers arrive on C in publish order; the channel
// closes when the subscriber is evicted for slowness, closed, or (binary
// only) the Hub shuts down.
type Subscriber struct {
	// C delivers ready-to-write buffers: encoded frames (envelope
	// included) or one fix's NMEA sentences.
	C <-chan []byte
	// Resume is the verdict a binary subscription was answered with.
	Resume Resume

	ch     chan []byte
	hub    *Hub
	st     *stream // nil for a text subscriber
	closed bool
	// awaitKey: no chain start was available; skip non-miss frames
	// until the next keyframe.
	awaitKey bool
	// overflow is a text subscriber's run of overflowing publishes,
	// which began at stalled.
	overflow int
	stalled  time.Time
}

// HubStats is a point-in-time snapshot of Hub counters.
type HubStats struct {
	Sessions    int
	Subscribers int64
	Published   uint64
	BytesOut    uint64
	Replayed    uint64
	Evicted     uint64
}

// Stats snapshots the Hub's counters.
func (h *Hub) Stats() HubStats {
	h.mu.RLock()
	n := len(h.streams)
	h.mu.RUnlock()
	return HubStats{
		Sessions:    n,
		Subscribers: h.subs.Load(),
		Published:   h.published.Load(),
		BytesOut:    h.bytesOut.Load(),
		Replayed:    h.replayed.Load(),
		Evicted:     h.evicted.Load(),
	}
}

func (h *Hub) getStream(id int, create bool) *stream {
	h.mu.RLock()
	st := h.streams[id]
	h.mu.RUnlock()
	if st != nil || !create {
		return st
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if st = h.streams[id]; st == nil {
		st = &stream{
			id:   id,
			enc:  FixEncoder{KeyframeEvery: h.cfg.KeyframeEvery},
			head: -1,
			ring: make([]ringEntry, h.cfg.RingFrames),
			subs: make(map[*Subscriber]struct{}),
		}
		h.streams[id] = st
	}
	return st
}

// Register marks session ids as hosted by this node. Subscriptions to
// unhosted ids still attach (frames flow if the session arrives later,
// e.g. mid-handoff) but are answered StatusUnknown.
func (h *Hub) Register(ids ...int) {
	for _, id := range ids {
		st := h.getStream(id, true)
		st.mu.Lock()
		st.hosted = true
		st.mu.Unlock()
	}
}

// SessionInfo describes one hosted session stream.
type SessionInfo struct {
	ID int `json:"id"`
	// Head is the latest published epoch, −1 when none yet.
	Head int64 `json:"head"`
}

// Sessions lists hosted sessions sorted by id.
func (h *Hub) Sessions() []SessionInfo {
	h.mu.RLock()
	out := make([]SessionInfo, 0, len(h.streams))
	for _, st := range h.streams {
		st.mu.Lock()
		if st.hosted {
			out = append(out, SessionInfo{ID: st.id, Head: st.head})
		}
		st.mu.Unlock()
	}
	h.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Head returns session id's latest published epoch (−1 when none or
// unknown).
func (h *Hub) Head(id int) int64 {
	st := h.getStream(id, false)
	if st == nil {
		return -1
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.head
}

// Publish encodes f once and fans the frame out to the session's ring
// and every subscriber. Subscribers whose queues are full are closed
// (slow-client eviction) so delta streams never develop silent holes.
func (h *Hub) Publish(f *Fix) {
	st := h.getStream(f.Session, true)
	st.mu.Lock()
	frame, key := st.enc.AppendFix(nil, f)
	st.head = int64(f.Epoch)
	// Ring push (overwrite oldest).
	if st.n == len(st.ring) {
		st.ring[st.start] = ringEntry{epoch: f.Epoch, key: key, frame: frame}
		st.start = (st.start + 1) % len(st.ring)
	} else {
		st.ring[(st.start+st.n)%len(st.ring)] = ringEntry{epoch: f.Epoch, key: key, frame: frame}
		st.n++
	}
	h.published.Add(1)
	for sub := range st.subs {
		if sub.awaitKey {
			if !key {
				continue
			}
			sub.awaitKey = false
		}
		select {
		case sub.ch <- frame:
			h.bytesOut.Add(uint64(len(frame)))
		default:
			delete(st.subs, sub)
			sub.closed = true
			close(sub.ch)
			h.evicted.Add(1)
			h.subs.Add(-1)
		}
	}
	st.mu.Unlock()
}

// Subscribe attaches a subscriber for session id with resume token ack
// (−1 for live). The returned Subscriber's Resume field is the verdict;
// replayed frames are already queued on C ahead of live frames.
//
// Resume semantics (satellite: resume tokens honored, unknown sessions
// answered, never a hang):
//
//   - hosted stream, ack covered by the replay ring → StatusReplay; the
//     subscription starts at the latest keyframe ≤ ack+1 (the client
//     re-reads ≤ one keyframe block of frames it already consumed — its
//     dedup filter drops them — so the delta chain is primed) and
//     Resume.Resume = ack+1, the first new epoch.
//   - hosted stream, ack older than the ring → StatusGap; the stream
//     starts at the oldest replayable keyframe and Resume.Resume names
//     it, so the hole is declared, never silent.
//   - hosted stream, no frames yet → StatusCold.
//   - ack < 0 → StatusLive, primed from the latest keyframe.
//   - unknown/unhosted session → StatusUnknown immediately. The
//     subscriber stays attached — if the session is adopted here later
//     (checkpoint handoff in flight) its frames start flowing — but the
//     client is told its token matched nothing and can decide to wait
//     or go elsewhere. This is the documented cold-start response.
func (h *Hub) Subscribe(id int, ack int64) *Subscriber {
	h.mu.RLock()
	down := h.down
	h.mu.RUnlock()
	st := h.getStream(id, true)
	st.mu.Lock()
	defer st.mu.Unlock()

	res := Resume{Session: id, Head: st.head}
	var replay []ringEntry
	awaitKey := false
	switch {
	case down:
		res.Status = StatusUnknown
	case !st.hosted && st.head < 0:
		res.Status = StatusUnknown
	case st.head < 0:
		res.Status = StatusCold
	default:
		target := st.head
		if ack >= 0 && ack+1 < target {
			target = ack + 1
		}
		startIdx := -1
		// Latest keyframe entry with epoch ≤ target.
		for j := st.n - 1; j >= 0; j-- {
			e := &st.ring[(st.start+j)%len(st.ring)]
			if e.key && int64(e.epoch) <= target {
				startIdx = j
				break
			}
		}
		gap := false
		if startIdx < 0 {
			// Ack predates the ring: earliest keyframe we still have.
			for j := 0; j < st.n; j++ {
				e := &st.ring[(st.start+j)%len(st.ring)]
				if e.key {
					startIdx = j
					gap = ack >= 0
					break
				}
			}
		}
		switch {
		case startIdx < 0:
			// No chain start anywhere (miss-heavy ring): attach live
			// and wait for the next keyframe. Explicitly a gap for a
			// resuming client.
			awaitKey = true
			res.Resume = uint64(st.head + 1)
			if ack < 0 {
				res.Status = StatusLive
			} else {
				res.Status = StatusGap
			}
		case gap:
			res.Status = StatusGap
			res.Resume = st.ring[(st.start+startIdx)%len(st.ring)].epoch
		case ack < 0:
			res.Status = StatusLive
			res.Resume = st.ring[(st.start+startIdx)%len(st.ring)].epoch
		case ack >= st.head:
			res.Status = StatusLive
			res.Resume = uint64(ack + 1)
		default:
			res.Status = StatusReplay
			res.Resume = uint64(ack + 1)
		}
		if startIdx >= 0 {
			for j := startIdx; j < st.n; j++ {
				replay = append(replay, st.ring[(st.start+j)%len(st.ring)])
			}
		}
	}

	ch := make(chan []byte, h.cfg.QueueFrames+len(replay))
	sub := &Subscriber{C: ch, Resume: res, ch: ch, hub: h, st: st, awaitKey: awaitKey}
	for _, e := range replay {
		ch <- e.frame
		h.replayed.Add(1)
		h.bytesOut.Add(uint64(len(e.frame)))
	}
	if down {
		sub.closed = true
		close(ch)
		return sub
	}
	st.subs[sub] = struct{}{}
	h.subs.Add(1)
	return sub
}

// Close detaches the subscriber; a text subscriber's departure counts
// as a DropWrite. Safe to call more than once and concurrently with
// Publish.
func (s *Subscriber) Close() {
	if s.st == nil {
		s.hub.text.drop(s, DropWrite)
		return
	}
	s.st.mu.Lock()
	if !s.closed {
		if _, ok := s.st.subs[s]; ok {
			delete(s.st.subs, s)
			s.hub.subs.Add(-1)
		}
		s.closed = true
		close(s.ch)
	}
	s.st.mu.Unlock()
}

// Shutdown closes every binary subscriber and makes future Subscribes
// answer StatusUnknown on an already-closed channel. Text subscribers
// stay attached, so a graceful Flush can follow; they end with their
// server's context.
func (h *Hub) Shutdown() {
	h.mu.Lock()
	h.down = true
	streams := make([]*stream, 0, len(h.streams))
	for _, st := range h.streams {
		streams = append(streams, st)
	}
	h.mu.Unlock()
	for _, st := range streams {
		st.mu.Lock()
		for sub := range st.subs {
			delete(st.subs, sub)
			sub.closed = true
			close(sub.ch)
			h.subs.Add(-1)
		}
		st.mu.Unlock()
	}
}
