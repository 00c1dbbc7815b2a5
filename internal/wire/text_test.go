package wire

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

var (
	testGGA = []byte("$GPGGA,120000.00,4807.0380,N,01131.0000,E,1,08,0.9,545.4,M,46.9,M,,*47")
	testRMC = []byte("$GPRMC,120000.00,A,4807.0380,N,01131.0000,E,0.0,0.0,010110,,,A*6C")
)

// A text publish allocates nothing with no subscriber and one shared
// buffer per fix with any number of them: 0 allocations per sentence
// per client.
func TestPublishTextAllocs(t *testing.T) {
	h := NewHub(HubConfig{})
	if a := testing.AllocsPerRun(200, func() { h.PublishText(testGGA, testRMC) }); a != 0 {
		t.Errorf("no subscriber: %v allocs per publish, want 0", a)
	}
	for _, n := range []int{1, 16} {
		t.Run(fmt.Sprint(n, "subscribers"), func(t *testing.T) {
			h := NewHub(HubConfig{})
			subs := make([]*Subscriber, n)
			for i := range subs {
				subs[i] = h.SubscribeText()
			}
			a := testing.AllocsPerRun(200, func() {
				h.PublishText(testGGA, testRMC)
				for _, s := range subs {
					<-s.C
				}
			})
			if a > 1 {
				t.Errorf("%v allocs per publish, want at most 1", a)
			}
		})
	}
}

// The bytes a text subscriber receives are the pair with a CRLF after
// each sentence, and every subscriber shares one buffer.
func TestPublishTextSharedBuffer(t *testing.T) {
	h := NewHub(HubConfig{})
	a, b := h.SubscribeText(), h.SubscribeText()
	h.PublishText(testGGA, testRMC)
	ba, bb := <-a.C, <-b.C
	if want := string(testGGA) + "\r\n" + string(testRMC) + "\r\n"; string(ba) != want {
		t.Errorf("text = %q, want %q", ba, want)
	}
	if &ba[0] != &bb[0] {
		t.Error("subscribers got separate copies of one fix")
	}
	if s := h.TextStats(); s.Fixes != 1 || s.Clients != 2 || s.Connects != 2 {
		t.Errorf("stats = %+v", s)
	}
}

// A subscriber that never drains keeps its newest textQueueFixes fixes,
// sheds one per overflowing publish, and is evicted as slow once
// textDropBudget of them span textMinStall; the other subscribers are
// untouched.
func TestTextDropOldestThenEvict(t *testing.T) {
	h := NewHub(HubConfig{})
	stalled, live := h.SubscribeText(), h.SubscribeText()
	fix := func(i int) []byte { return []byte(fmt.Sprintf("$GPGGA,%d", i)) }
	publish := func(i int) {
		h.PublishText(fix(i), testRMC)
		if got := <-live.C; !strings.HasPrefix(string(got), string(fix(i))+"\r\n") {
			t.Fatalf("live subscriber got %q at fix %d", got, i)
		}
	}
	n := textQueueFixes + textDropBudget
	for i := 0; i < n-1; i++ {
		publish(i)
	}
	if s := h.TextStats(); s.Clients != 2 || s.Shed != textDropBudget-1 {
		t.Fatalf("stats = %+v before the streak is long enough", s)
	}
	time.Sleep(textMinStall)
	publish(n - 1)
	s := h.TextStats()
	if s.Drops != [3]uint64{DropSlow: 1} || s.Clients != 1 {
		t.Fatalf("stats = %+v, want one slow drop and one client left", s)
	}
	if s.Shed != textDropBudget {
		t.Errorf("shed %d fixes, want %d", s.Shed, textDropBudget)
	}
	// What is left queued is the newest fixes, oldest first.
	first := true
	for b := range stalled.C {
		if first {
			if want := fix(n - textQueueFixes); !strings.HasPrefix(string(b), string(want)+"\r\n") {
				t.Errorf("oldest kept fix = %q, want %q", b, want)
			}
			first = false
		}
	}
	stalled.Close() // already evicted: counts nothing
	if got := h.TextStats().Drops; got != s.Drops {
		t.Errorf("closing an evicted subscriber changed drops to %v", got)
	}
}

// The writer loop allocates nothing per drained batch: every wake-up
// reuses one slice for its vectored write.
func TestPumpZeroAllocPerBatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ch := make(chan []byte, textQueueFixes)
	sub := &Subscriber{C: ch, ch: ch}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- (&Server{}).pump(ctx, conn, sub, nil) }()

	const batch = 32
	msg := append(append(append([]byte(nil), testGGA...), '\r', '\n'), testRMC...)
	got := make([]byte, batch*len(msg))
	a := testing.AllocsPerRun(100, func() {
		for i := 0; i < batch; i++ {
			ch <- msg
		}
		if _, err := io.ReadFull(client, got); err != nil {
			t.Fatal(err)
		}
	})
	if a != 0 {
		t.Errorf("%v allocs per %d-fix round, want 0", a, batch)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("pump returned %v on cancel", err)
	}
}
