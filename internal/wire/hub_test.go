package wire

import (
	"testing"
	"time"
)

func publishRange(h *Hub, session int, from, to uint64) {
	for e := from; e < to; e++ {
		f := synthFix(session, e)
		h.Publish(&f)
	}
}

// drain decodes every frame currently queued on sub.
func drain(t *testing.T, sub *Subscriber) []Fix {
	t.Helper()
	var dec FixDecoder
	var out []Fix
	for {
		select {
		case frame, ok := <-sub.C:
			if !ok {
				return out
			}
			f, err := dec.DecodeFix(payloadOf(t, frame))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			out = append(out, f)
		default:
			return out
		}
	}
}

// TestHubResumeHonored: satellite 2, protocol level — a subscriber that
// reconnects with ack=E receives exactly E+1, E+2, … (after
// chain-priming frames at epochs ≤ E, which a dedup filter drops), with
// zero duplicated and zero skipped epochs.
func TestHubResumeHonored(t *testing.T) {
	h := NewHub(HubConfig{KeyframeEvery: 8, RingFrames: 64})
	h.Register(4)
	publishRange(h, 4, 0, 50)

	const ack = 37
	sub := h.Subscribe(4, ack)
	if sub.Resume.Status != StatusReplay {
		t.Fatalf("status = %d, want replay", sub.Resume.Status)
	}
	if sub.Resume.Resume != ack+1 {
		t.Fatalf("resume = %d, want %d", sub.Resume.Resume, ack+1)
	}
	if sub.Resume.Head != 49 {
		t.Fatalf("head = %d, want 49", sub.Resume.Head)
	}
	publishRange(h, 4, 50, 60)
	fixes := drain(t, sub)
	if len(fixes) == 0 {
		t.Fatal("no frames")
	}
	// First frames prime the chain from a keyframe ≤ ack+1; after the
	// dedup filter the delivered epochs are exactly ack+1..59.
	next := uint64(ack + 1)
	if fixes[0].Epoch > next {
		t.Fatalf("stream starts at %d — skipped epochs before %d", fixes[0].Epoch, next)
	}
	for _, f := range fixes {
		if f.Epoch <= uint64(ack) {
			continue // dup of already-consumed epoch: dedup filter territory
		}
		if f.Epoch != next {
			t.Fatalf("epoch %d, want %d (dup or skip)", f.Epoch, next)
		}
		next++
	}
	if next != 60 {
		t.Fatalf("delivered through %d, want 60", next-1)
	}
}

// TestHubResumeGapExplicit: an ack older than the replay ring gets
// StatusGap with the actual resume epoch — an explicit hole, not a
// silent one.
func TestHubResumeGapExplicit(t *testing.T) {
	h := NewHub(HubConfig{KeyframeEvery: 8, RingFrames: 16})
	h.Register(1)
	publishRange(h, 1, 0, 500)
	sub := h.Subscribe(1, 3) // ring holds ~[484, 500)
	if sub.Resume.Status != StatusGap {
		t.Fatalf("status = %d, want gap", sub.Resume.Status)
	}
	if sub.Resume.Resume <= 4 {
		t.Fatalf("resume = %d, should be far beyond ack", sub.Resume.Resume)
	}
	fixes := drain(t, sub)
	if len(fixes) == 0 || fixes[0].Epoch != sub.Resume.Resume {
		t.Fatalf("first epoch %v != promised resume %d", fixes, sub.Resume.Resume)
	}
	for i := 1; i < len(fixes); i++ {
		if fixes[i].Epoch != fixes[i-1].Epoch+1 {
			t.Fatalf("post-gap stream not consecutive at %d", i)
		}
	}
}

// TestHubUnknownSession: satellite 2 — a token for an unknown session
// is answered immediately with StatusUnknown (documented cold-start
// response), and the subscription still delivers if the session is
// adopted later (the mid-handoff race).
func TestHubUnknownSession(t *testing.T) {
	h := NewHub(HubConfig{})
	sub := h.Subscribe(99, 1234)
	if sub.Resume.Status != StatusUnknown {
		t.Fatalf("status = %d, want unknown", sub.Resume.Status)
	}
	if sub.Resume.Head != -1 {
		t.Fatalf("head = %d, want -1", sub.Resume.Head)
	}
	// Session 99 arrives by handoff afterwards: frames flow.
	h.Register(99)
	publishRange(h, 99, 200, 205)
	fixes := drain(t, sub)
	if len(fixes) != 5 || fixes[0].Epoch != 200 {
		t.Fatalf("adopted-session frames not delivered: %v", fixes)
	}
}

// TestHubColdAndLive: fresh hosted session answers cold; ack=-1 joins
// live primed from the latest keyframe.
func TestHubColdAndLive(t *testing.T) {
	h := NewHub(HubConfig{KeyframeEvery: 8, RingFrames: 64})
	h.Register(0)
	cold := h.Subscribe(0, -1)
	if cold.Resume.Status != StatusCold {
		t.Fatalf("status = %d, want cold", cold.Resume.Status)
	}
	publishRange(h, 0, 0, 30)
	live := h.Subscribe(0, -1)
	if live.Resume.Status != StatusLive {
		t.Fatalf("status = %d, want live", live.Resume.Status)
	}
	fixes := drain(t, live)
	if len(fixes) == 0 || fixes[0].Epoch != 24 { // latest keyframe: block 3 start
		t.Fatalf("live join primed from %v, want keyframe 24", fixes)
	}
}

// TestHubSlowSubscriberEvicted: a subscriber that stops draining is
// disconnected (channel closed), not thinned — delta streams must not
// grow silent holes.
func TestHubSlowSubscriberEvicted(t *testing.T) {
	h := NewHub(HubConfig{KeyframeEvery: 8, RingFrames: 32, QueueFrames: 4})
	h.Register(2)
	sub := h.Subscribe(2, -1)
	publishRange(h, 2, 0, 100) // queue cap 4 → overflow → eviction
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-sub.C:
			if !ok {
				if s := h.Stats(); s.Evicted != 1 {
					t.Fatalf("evicted = %d, want 1", s.Evicted)
				}
				return
			}
		case <-deadline:
			t.Fatal("slow subscriber never evicted")
		}
	}
}

// TestHubEncodeOnceSharedBuffer: all subscribers of a session receive
// the same backing frame buffer — encode once, write N times.
func TestHubEncodeOnceSharedBuffer(t *testing.T) {
	h := NewHub(HubConfig{})
	h.Register(6)
	a := h.Subscribe(6, -1)
	b := h.Subscribe(6, -1)
	f := synthFix(6, 0)
	h.Publish(&f)
	fa, fb := <-a.C, <-b.C
	if &fa[0] != &fb[0] {
		t.Fatal("subscribers received distinct frame buffers; expected one shared encode")
	}
}

// TestHubSessions: hosted inventory with heads, for /cluster/sessions.
func TestHubSessions(t *testing.T) {
	h := NewHub(HubConfig{})
	h.Register(3, 1)
	publishRange(h, 1, 0, 5)
	got := h.Sessions()
	if len(got) != 2 || got[0].ID != 1 || got[0].Head != 4 || got[1].ID != 3 || got[1].Head != -1 {
		t.Fatalf("sessions = %+v", got)
	}
	if h.Head(1) != 4 || h.Head(42) != -1 {
		t.Fatalf("Head lookup wrong")
	}
}
