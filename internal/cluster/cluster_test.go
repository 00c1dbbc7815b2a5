package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRingStability: removing one node re-homes only that node's
// sessions; everyone else keeps their owner.
func TestRingStability(t *testing.T) {
	r := NewRing(64)
	for _, n := range []string{"a", "b", "c"} {
		r.Add(n)
	}
	const sessions = 1000
	before := make(map[int]string, sessions)
	for s := 0; s < sessions; s++ {
		n, ok := r.OwnerSession(s)
		if !ok {
			t.Fatal("empty ring")
		}
		before[s] = n
	}
	r.Remove("b")
	moved := 0
	for s := 0; s < sessions; s++ {
		n, _ := r.OwnerSession(s)
		if before[s] == "b" {
			if n == "b" {
				t.Fatalf("session %d still owned by removed node", s)
			}
			moved++
		} else if n != before[s] {
			t.Fatalf("session %d moved %s→%s though its owner survived", s, before[s], n)
		}
	}
	if moved == 0 {
		t.Fatal("node b owned nothing; ring badly unbalanced")
	}
}

// TestRingBalance: with virtual nodes, no node owns a grossly
// disproportionate share.
func TestRingBalance(t *testing.T) {
	r := NewRing(128)
	nodes := []string{"n0", "n1", "n2", "n3"}
	for _, n := range nodes {
		r.Add(n)
	}
	counts := map[string]int{}
	const sessions = 4000
	for s := 0; s < sessions; s++ {
		n, _ := r.OwnerSession(s)
		counts[n]++
	}
	for _, n := range nodes {
		share := float64(counts[n]) / sessions
		if share < 0.10 || share > 0.45 {
			t.Fatalf("node %s owns %.0f%% of sessions; want roughly balanced (counts=%v)", n, 100*share, counts)
		}
	}
}

// TestRingDeterminism: ownership is a pure function of membership.
func TestRingDeterminism(t *testing.T) {
	build := func() *Ring {
		r := NewRing(32)
		r.Add("x")
		r.Add("y")
		return r
	}
	a, b := build(), build()
	for s := 0; s < 200; s++ {
		na, _ := a.OwnerSession(s)
		nb, _ := b.OwnerSession(s)
		if na != nb {
			t.Fatalf("session %d: %s vs %s", s, na, nb)
		}
	}
	if _, ok := NewRing(8).OwnerSession(1); ok {
		t.Fatal("empty ring claimed an owner")
	}
}

// TestMonitorThreshold: a node is declared down only after Threshold
// consecutive failures, and recovers on the first success.
func TestMonitorThreshold(t *testing.T) {
	m := NewMonitor(map[string]string{"a": "unused"}, HealthConfig{Threshold: 3})
	var downs, ups atomic.Int64
	m.OnDown = func(string) { downs.Add(1) }
	m.OnUp = func(string) { ups.Add(1) }

	m.Observe("a", false)
	m.Observe("a", false)
	if !m.Up("a") {
		t.Fatal("down before threshold")
	}
	m.Observe("a", false)
	if m.Up("a") || downs.Load() != 1 {
		t.Fatalf("not down after threshold (downs=%d)", downs.Load())
	}
	m.Observe("a", false)
	if downs.Load() != 1 {
		t.Fatal("OnDown fired more than once per transition")
	}
	m.Observe("a", true)
	if !m.Up("a") || ups.Load() != 1 {
		t.Fatalf("no recovery (ups=%d)", ups.Load())
	}
	// A blip after recovery restarts the count.
	m.Observe("a", false)
	if !m.Up("a") {
		t.Fatal("single post-recovery failure killed the node")
	}
}

// TestMonitorDefaultThreshold pins the documented default: with a
// zero HealthConfig a node survives two missed probes and is declared
// down at the third.
func TestMonitorDefaultThreshold(t *testing.T) {
	m := NewMonitor(map[string]string{"a": "unused"}, HealthConfig{})
	for miss := 1; miss <= 2; miss++ {
		m.Observe("a", false)
		if !m.Up("a") {
			t.Fatalf("down after %d missed probes", miss)
		}
	}
	m.Observe("a", false)
	if m.Up("a") {
		t.Fatal("still up after 3 missed probes")
	}
}

// TestMonitorEndToEnd: real HTTP probes against httptest servers; a
// server starting to 500 transitions down within a few intervals.
func TestMonitorEndToEnd(t *testing.T) {
	var sick atomic.Bool
	var flakyProbes atomic.Uint64
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer healthy.Close()
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		flakyProbes.Add(1)
		if sick.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer flaky.Close()

	m := NewMonitor(map[string]string{"good": healthy.URL, "bad": flaky.URL},
		HealthConfig{Interval: 10 * time.Millisecond, Timeout: time.Second, Threshold: 2})
	var mu sync.Mutex
	downed := map[string]bool{}
	m.OnDown = func(n string) { mu.Lock(); downed[n] = true; mu.Unlock() }

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); m.Run(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for flakyProbes.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	sick.Store(true)
	for time.Now().Before(deadline) {
		if !m.Up("bad") {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
	mu.Lock()
	defer mu.Unlock()
	if !downed["bad"] {
		t.Fatal("sick node never declared down")
	}
	if downed["good"] {
		t.Fatal("healthy node declared down")
	}
	if len(m.UpNodes()) != 1 || m.UpNodes()[0] != "good" {
		t.Fatalf("UpNodes = %v", m.UpNodes())
	}
}
