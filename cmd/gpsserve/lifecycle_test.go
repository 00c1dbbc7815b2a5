package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"gpsdl/internal/telemetry"
	"gpsdl/internal/wire"
)

// healthz fetches and decodes the /healthz JSON from the admin mux.
func healthz(t *testing.T, url string) healthStatus {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hs healthStatus
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		t.Fatal(err)
	}
	return hs
}

// readLine reads one CRLF-terminated sentence from a client connection.
func readLine(t *testing.T, r *bufio.Reader, c net.Conn) string {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return strings.TrimRight(line, "\r\n")
}

// TestBroadcasterClientLifecycle walks one NMEA client through the full
// lifecycle — connect → stall → drop (reason "slow") → reconnect — and
// checks that /healthz reports the matching counters at each stage, the
// drop-oldest policy counted shed fixes, a reconnecting client receives
// current fixes (not the stale backlog), and that the whole apparatus
// winds down without leaking goroutines.
func TestBroadcasterClientLifecycle(t *testing.T) {
	baseline := runtime.NumGoroutine()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub := wire.NewHub(wire.HubConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = (&wire.Server{Hub: hub}).ServeText(ctx, ln)
	}()
	tel := newServerTelemetry(telemetry.NewRegistry(), hub, 0)
	tel.health.recordFix(1.0) // healthz "ok" needs a recent fix
	admin := httptest.NewServer(newAdminMux(tel))

	// Stage 1: connect and receive normally.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	waitForClients(t, hub, 1)
	hub.PublishText([]byte("$GPGGA,alive*00"), []byte("$GPRMC,alive*00"))
	if got := readLine(t, bufio.NewReader(conn), conn); got != "$GPGGA,alive*00" {
		t.Fatalf("connected client read %q", got)
	}
	if hs := healthz(t, admin.URL); hs.Clients != 1 || hs.Drops != 0 {
		t.Fatalf("after connect: clients=%d drops=%d, want 1/0", hs.Clients, hs.Drops)
	}

	// Stage 2: stall. Stop reading and flood until the client is
	// evicted with reason "slow". The filler is long enough that the
	// kernel socket buffers saturate and the queue backs up.
	floodUntil(t, hub, 4096, func(s wire.TextStats) bool { return s.Clients == 0 })
	conn.Close()
	s := hub.TextStats()
	if s.Drops[wire.DropSlow] != 1 {
		t.Errorf("slow drops = %d, want 1", s.Drops[wire.DropSlow])
	}
	if s.Shed == 0 {
		t.Error("drop-oldest shed no fixes while the client was stalled")
	}
	if hs := healthz(t, admin.URL); hs.Clients != 0 || hs.Drops != 1 {
		t.Fatalf("after stall drop: clients=%d drops=%d, want 0/1", hs.Clients, hs.Drops)
	}

	// Stage 3: reconnect. The fresh connection gets a fresh queue — it
	// must receive the next fix, not the evicted backlog.
	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	waitForClients(t, hub, 1)
	hub.PublishText([]byte("$GPGGA,back*00"), []byte("$GPRMC,back*00"))
	if got := readLine(t, bufio.NewReader(conn2), conn2); got != "$GPGGA,back*00" {
		t.Fatalf("reconnected client read %q, want the fresh sentence", got)
	}
	hs := healthz(t, admin.URL)
	if hs.Clients != 1 || hs.Drops != 1 {
		t.Fatalf("after reconnect: clients=%d drops=%d, want 1/1", hs.Clients, hs.Drops)
	}
	if s := hub.TextStats(); uint64(s.Clients) != s.Connects-totalDrops(s) {
		t.Errorf("conservation violated: connects %d - drops %v != clients %d", s.Connects, s.Drops, s.Clients)
	}

	// Stage 4: shutdown. Every goroutine this test started (accept
	// loop, writer loops, admin server) must exit.
	conn2.Close()
	cancel()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("text server did not shut down")
	}
	admin.Close()
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(leakDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutine leak: %d after shutdown, baseline %d", n, baseline)
	}
}
