package wire

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testServer runs a Hub+Server on a loopback listener.
type testServer struct {
	hub    *Hub
	addr   string
	cancel context.CancelFunc
	done   chan struct{}
}

func startTestServer(t *testing.T, cfg HubConfig) *testServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ts := &testServer{hub: NewHub(cfg), addr: ln.Addr().String(), cancel: cancel, done: make(chan struct{})}
	srv := &Server{Hub: ts.hub}
	go func() {
		defer close(ts.done)
		srv.Serve(ctx, ln)
	}()
	t.Cleanup(ts.stop)
	return ts
}

func (ts *testServer) stop() {
	ts.cancel()
	ts.hub.Shutdown()
	<-ts.done
}

// TestClientResumeAcrossServerSwap: the client delivers a strictly
// consecutive epoch sequence across a server death + replacement,
// powered only by its resume token — no dups, no silent skips.
func TestClientResumeAcrossServerSwap(t *testing.T) {
	a := startTestServer(t, HubConfig{KeyframeEvery: 8})
	a.hub.Register(5)
	publishRange(a.hub, 5, 0, 21)

	var addr atomic.Value
	addr.Store(a.addr)
	var mu sync.Mutex
	var statuses []uint8
	c := DialSession(context.Background(), ClientConfig{
		Session: 5,
		Resume:  -1,
		Dial: func(ctx context.Context) (net.Conn, error) {
			d := net.Dialer{Timeout: time.Second}
			return d.DialContext(ctx, "tcp", addr.Load().(string))
		},
		RetryBudget: 50,
		BackoffBase: time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		OnEvent: func(e ClientEvent) {
			if e.Kind == "resume" || e.Kind == "gap" {
				mu.Lock()
				statuses = append(statuses, e.Resume.Status)
				mu.Unlock()
			}
		},
	})
	defer c.Close()

	var got []uint64
	collect := func(until uint64) {
		t.Helper()
		deadline := time.After(10 * time.Second)
		for {
			select {
			case f, ok := <-c.Fixes():
				if !ok {
					t.Fatalf("client stopped early: %v", c.Err())
				}
				got = append(got, f.Epoch)
				if f.Epoch == until {
					return
				}
			case <-deadline:
				t.Fatalf("timed out waiting for epoch %d; have %d fixes", until, len(got))
			}
		}
	}
	collect(20)

	// Node death: server A vanishes; replacement B (fresh process, same
	// session history continued — what checkpoint handoff guarantees)
	// comes up on a different address.
	a.stop()
	b := startTestServer(t, HubConfig{KeyframeEvery: 8})
	b.hub.Register(5)
	publishRange(b.hub, 5, 0, 36)
	addr.Store(b.addr)
	collect(35)

	for i, e := range got {
		if want := got[0] + uint64(i); e != want {
			t.Fatalf("epoch[%d] = %d, want %d (dup or skip across failover)", i, e, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, s := range statuses {
		if s == StatusGap {
			t.Fatal("failover produced a gap; replay ring should have covered the ack")
		}
	}
}

// TestClientRetryBudget: with no server at all, the client performs
// exactly RetryBudget jittered-exponential attempts then reports
// ErrRetryBudgetExhausted.
func TestClientRetryBudget(t *testing.T) {
	var mu sync.Mutex
	var sleeps []time.Duration
	const budget = 5
	base, max := 10*time.Millisecond, 80*time.Millisecond
	c := DialSession(context.Background(), ClientConfig{
		Session:     1,
		Resume:      -1,
		RetryBudget: budget,
		BackoffBase: base,
		BackoffMax:  max,
		Dial: func(ctx context.Context) (net.Conn, error) {
			return nil, errors.New("connection refused")
		},
		sleep: func(ctx context.Context, d time.Duration) error {
			mu.Lock()
			sleeps = append(sleeps, d)
			mu.Unlock()
			return nil
		},
		jitter: func() float64 { return 0.5 },
	})
	for range c.Fixes() {
		t.Fatal("no fixes possible")
	}
	if !errors.Is(c.Err(), ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want ErrRetryBudgetExhausted", c.Err())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sleeps) != budget {
		t.Fatalf("%d backoff sleeps, want %d", len(sleeps), budget)
	}
	for i, d := range sleeps {
		cap := base << uint(i)
		if cap > max {
			cap = max
		}
		if want := cap / 2; d != want { // jitter pinned at 0.5
			t.Fatalf("sleep[%d] = %v, want %v", i, d, want)
		}
	}
}

// TestClientUnknownSessionAnswered: a resume token for a session the
// node does not host is answered promptly with StatusUnknown — the
// documented cold-start response, not a hang.
func TestClientUnknownSessionAnswered(t *testing.T) {
	ts := startTestServer(t, HubConfig{})
	status := make(chan uint8, 1)
	c := DialSession(context.Background(), ClientConfig{
		Addr:    ts.addr,
		Session: 404,
		Resume:  1234,
		OnEvent: func(e ClientEvent) {
			if e.Kind == "resume" {
				select {
				case status <- e.Resume.Status:
				default:
				}
			}
		},
	})
	defer c.Close()
	select {
	case s := <-status:
		if s != StatusUnknown {
			t.Fatalf("status = %d, want unknown", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscribe to unknown session hung instead of answering")
	}
}

// TestClientProgressRefillsBudget: a flapping server that accepts,
// serves one fix, then drops the connection must not exhaust the
// budget, because delivered fixes refill it.
func TestClientProgressRefillsBudget(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for e := uint64(0); ; e++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			fr := NewFrameReader(conn)
			if _, err := fr.Next(); err != nil {
				conn.Close()
				continue
			}
			conn.Write(AppendResume(nil, Resume{Session: 1, Status: StatusLive, Resume: e, Head: int64(e) - 1}))
			var enc FixEncoder
			f := synthFix(1, e)
			frame, _ := enc.AppendFix(nil, &f)
			conn.Write(frame)
			conn.Close() // flap
		}
	}()
	c := DialSession(context.Background(), ClientConfig{
		Addr:        ln.Addr().String(),
		Session:     1,
		Resume:      -1,
		RetryBudget: 2,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	defer c.Close()
	deadline := time.After(10 * time.Second)
	for i := 0; i < 6; i++ { // 6 > budget: only survivable with refills
		select {
		case _, ok := <-c.Fixes():
			if !ok {
				t.Fatalf("client gave up after %d fixes: %v", i, c.Err())
			}
		case <-deadline:
			t.Fatal("timed out")
		}
	}
}
