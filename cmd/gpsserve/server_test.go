package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpsdl/internal/engine"
	"gpsdl/internal/nmea"
	"gpsdl/internal/scenario"
	"gpsdl/internal/telemetry"
	"gpsdl/internal/wire"
)

// startText serves a hub's NMEA text stream on an ephemeral port, the
// way runEngine does.
func startText(t *testing.T) (*wire.Hub, string, context.CancelFunc) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub := wire.NewHub(wire.HubConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = (&wire.Server{Hub: hub}).ServeText(ctx, ln)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("text server did not shut down")
		}
	})
	return hub, ln.Addr().String(), cancel
}

// waitForClients polls until the hub sees n NMEA clients.
func waitForClients(t *testing.T, hub *wire.Hub, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for hub.TextStats().Clients != n {
		if time.Now().After(deadline) {
			t.Fatalf("client count %d, want %d", hub.TextStats().Clients, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// dial connects one NMEA client and closes it at the end of the test.
func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// discard reads c until its connection dies.
func discard(c net.Conn) {
	buf := make([]byte, 4096)
	for {
		if _, err := c.Read(buf); err != nil {
			return
		}
	}
}

// floodUntil publishes fixes of two n-byte sentences until cond holds,
// failing the test after 10 s.
func floodUntil(t *testing.T, hub *wire.Hub, n int, cond func(wire.TextStats) bool) {
	t.Helper()
	long := []byte(strings.Repeat("x", n))
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; !cond(hub.TextStats()); i++ {
		if time.Now().After(deadline) {
			t.Fatalf("condition never held: %+v", hub.TextStats())
		}
		hub.PublishText(long, long)
		if i%64 == 63 {
			time.Sleep(time.Millisecond)
		}
	}
}

func totalDrops(s wire.TextStats) uint64 { return s.Drops[0] + s.Drops[1] + s.Drops[2] }

func TestBroadcastReachesAllClients(t *testing.T) {
	hub, addr, _ := startText(t)
	c1, c2 := dial(t, addr), dial(t, addr)
	waitForClients(t, hub, 2)

	hub.PublishText([]byte("$GPGGA,test*00"), []byte("$GPRMC,test*00"))
	for i, c := range []net.Conn{c1, c2} {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		r := bufio.NewReader(c)
		l1, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("client %d read: %v", i, err)
		}
		if l1 != "$GPGGA,test*00\r\n" {
			t.Errorf("client %d line 1 = %q", i, l1)
		}
		l2, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("client %d read 2: %v", i, err)
		}
		if l2 != "$GPRMC,test*00\r\n" {
			t.Errorf("client %d line 2 = %q", i, l2)
		}
	}
}

// A client that never reads is evicted with reason "slow", after
// drop-oldest has shed part of its backlog.
func TestSlowClientIsDropped(t *testing.T) {
	hub, addr, _ := startText(t)
	dial(t, addr) // never read
	waitForClients(t, hub, 1)
	floodUntil(t, hub, 1024, func(s wire.TextStats) bool { return s.Clients == 0 })
	s := hub.TextStats()
	if s.Drops[wire.DropSlow] != 1 || totalDrops(s) != 1 {
		t.Errorf("drops = %v, want one slow", s.Drops)
	}
	if s.Shed == 0 {
		t.Error("drop-oldest shed nothing before the eviction")
	}
}

func TestShutdownClosesClients(t *testing.T) {
	hub, addr, cancel := startText(t)
	c := dial(t, addr)
	waitForClients(t, hub, 1)
	cancel()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		t.Error("connection still open after shutdown")
	}
	// New connections must be rejected or immediately closed.
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(buf); err == nil {
			t.Error("post-shutdown connection served")
		}
		conn.Close()
	}
	waitForClients(t, hub, 0)
	if s := hub.TextStats(); s.Drops[wire.DropShutdown] != 1 {
		t.Errorf("drops = %v, want one shutdown", s.Drops)
	}
}

// A reading loopback NMEA client keeps up with a closed-loop producer:
// 32 receivers run flat out through gpsserve's sink, the client is
// never evicted, and every fix drop-oldest did not shed arrives whole.
func TestReadingClientKeepsUpWithClosedLoop(t *testing.T) {
	hub, addr, _ := startText(t)
	tel := newServerTelemetry(telemetry.NewRegistry(), hub, time.Hour)
	eng, err := engine.New(engine.Config{
		Receivers: 32, Seed: 5, Stations: scenario.Table51Stations(), Sink: tel.sink(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	waitForClients(t, hub, 1)
	var lines atomic.Uint64
	go func() {
		r := bufio.NewReader(c)
		for {
			if _, err := r.ReadSlice('\n'); err != nil {
				return
			}
			lines.Add(1)
		}
	}()
	if err := eng.RunRange(context.Background(), 0, 300); err != nil {
		t.Fatal(err)
	}
	hub.Flush(5 * time.Second)
	s := hub.TextStats()
	if s.Drops[wire.DropSlow] != 0 || s.Clients != 1 {
		t.Fatalf("reading client evicted: %+v", s)
	}
	want := 2 * (s.Fixes - s.Shed)
	deadline := time.Now().Add(5 * time.Second)
	for lines.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := lines.Load(); got != want {
		t.Errorf("client read %d sentences, want %d", got, want)
	}
}

// Multi-receiver end-to-end: -receivers > 1 serves interleaved NMEA from
// every session through the same broadcaster.
func TestServeEngineModeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("network end-to-end")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", addr, "-rate", "50", "-receivers", "3",
			"-station", "all", "-solver", "dlg", "-admin", "127.0.0.1:0"})
	}()
	var conn net.Conn
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never listened: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(conn)
	// With three receivers at 50 Hz each, a handful of lines arrives
	// quickly; every one must be a valid GGA or RMC sentence.
	sawGGA := false
	for i := 0; i < 6; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read line %d: %v", i, err)
		}
		s := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(s, "$GPGGA"):
			if _, err := nmea.ParseGGA(s); err != nil {
				t.Errorf("invalid GGA: %v (%q)", err, s)
			}
			sawGGA = true
		case strings.HasPrefix(s, "$GPRMC"):
		default:
			t.Errorf("unexpected sentence %q", s)
		}
	}
	if !sawGGA {
		t.Error("no GGA sentence among the first 6 lines")
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("server did not stop")
	}
}

// End-to-end: run the default one-receiver server briefly and read real
// NMEA sentences.
func TestServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("network end-to-end")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", addr, "-rate", "50", "-solver", "nr", "-admin", "127.0.0.1:0"})
	}()
	// Wait for the listener, then read two sentences.
	var conn net.Conn
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never listened: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if _, err := nmea.ParseGGA(strings.TrimSpace(line)); err != nil {
		t.Errorf("first sentence not valid GGA: %v (%q)", err, line)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("server did not stop")
	}
}

// TestServeOneReceiverMatchesEngine pins that gpsserve has one serving
// pipeline: the default one-receiver stream, read over its TCP socket,
// is byte-identical to receiver 0 of an engine built with the same
// seed, station and solver. The client attaches a few epochs after the
// server starts ticking, so the read lines must match a contiguous run
// of the reference stream starting at the first line read.
func TestServeOneReceiverMatchesEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("network end-to-end")
	}
	const lines = 60
	st, err := scenario.StationByID("YYR1")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	eng, err := engine.New(engine.Config{
		Receivers: 1, Seed: 17, Solver: "dlg", Stations: []scenario.Station{st},
		Sink: func(e engine.FixEvent) {
			if e.Err == nil {
				want = append(want, string(e.GGA), string(e.RMC))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), 600); err != nil {
		t.Fatal(err)
	}

	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", addr, "-rate", "50", "-seed", "17",
			"-solver", "dlg", "-station", "YYR1"})
	}()
	var conn net.Conn
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never listened: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(15 * time.Second))
	r := bufio.NewReader(conn)
	got := make([]string, lines)
	for i := range got {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read line %d: %v", i, err)
		}
		got[i] = strings.TrimRight(line, "\r\n")
	}
	start := -1
	for i, w := range want {
		if w == got[0] {
			start = i
			break
		}
	}
	if start < 0 || start+lines > len(want) {
		t.Fatalf("first served line %q is not within the engine's first %d lines", got[0], len(want)-lines)
	}
	for i, g := range got {
		if w := want[start+i]; g != w {
			t.Fatalf("served line %d differs from engine receiver 0:\n got %q\nwant %q", i, g, w)
		}
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("server did not stop")
	}
}

// Replay mode: serve from a saved dataset file through a one-session
// engine, once, then exit cleanly.
func TestServeReplayDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("network end-to-end")
	}
	st, err := scenario.StationByID("FAI1")
	if err != nil {
		t.Fatal(err)
	}
	g := scenario.NewGenerator(st, scenario.DefaultConfig(4))
	ds, err := g.GenerateRange(0, 120)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/fai1.bin"
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", addr, "-rate", "100", "-solver", "nr", "-dataset", path})
	}()
	var conn net.Conn
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never listened: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	fix, err := nmea.ParseGGA(strings.TrimSpace(line))
	if err != nil {
		t.Fatalf("not GGA: %v (%q)", err, line)
	}
	// The replayed fixes must be near the dataset's station.
	if d := fix.Pos.ToECEF().DistanceTo(st.Pos); d > 100 {
		t.Errorf("replayed fix %v m from station", d)
	}
	// The recording is served once: after its 120th epoch the server
	// drains and returns nil on its own, without a cancel.
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("server did not exit after the dataset's last epoch")
	}
}

func TestRunFlagErrors(t *testing.T) {
	ctx := context.Background()
	tests := []struct {
		name string
		args []string
	}{
		{"bad flag", []string{"-zap"}},
		{"bad rate", []string{"-rate", "0"}},
		{"negative rate", []string{"-rate", "-3"}},
		{"empty station", []string{"-station", ""}},
		{"blank station", []string{"-station", "   "}},
		{"unknown station", []string{"-station", "NOPE"}},
		{"unknown solver", []string{"-solver", "magic"}},
		{"bad log level", []string{"-log-level", "loud"}},
		{"bad log format", []string{"-log-format", "xml"}},
		{"bad admin address", []string{"-addr", "127.0.0.1:0", "-admin", "256.256.256.256:99999"}},
		{"missing dataset", []string{"-dataset", "/does/not/exist.bin"}},
		{"bad listen address", []string{"-addr", "256.256.256.256:99999"}},
		{"zero receivers", []string{"-receivers", "0"}},
		{"engine with dataset", []string{"-receivers", "2", "-dataset", "/does/not/exist.bin"}},
		// Unknown flags (there is no -raim or -trace*) must be rejected,
		// never ignored.
		{"engine with raim", []string{"-receivers", "2", "-raim"}},
		{"engine with trace dump", []string{"-receivers", "2", "-trace", "16", "-trace-dump", "/tmp/engine-trace.json"}},
		{"engine unknown station", []string{"-receivers", "2", "-station", "NOPE"}},
		{"engine unknown solver", []string{"-receivers", "2", "-solver", "magic"}},
		{"restore without checkpoint", []string{"-restore"}},
		{"zero checkpoint every", []string{"-checkpoint-every", "0"}},
		{"zero checkpoint interval", []string{"-checkpoint-interval", "0s"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(ctx, tt.args); err == nil {
				t.Error("run succeeded, want error")
			}
		})
	}
}

// Gauge consistency: after N connects, one slow-client eviction, and
// shutdown, the scraped gpsserve_* families must agree with each other:
// connects − drops == clients == 0, with the slow eviction attributed
// to the "slow" reason and the rest to "shutdown", and the sentence
// counters at two per published and per shed fix.
func TestBroadcasterGaugeConsistency(t *testing.T) {
	hub, addr, cancel := startText(t)
	tel := newServerTelemetry(telemetry.NewRegistry(), hub, time.Hour)
	admin := httptest.NewServer(newAdminMux(tel))
	defer admin.Close()

	// Two well-behaved readers that drain until their connection dies,
	// and one slow client that never reads.
	for i := 0; i < 2; i++ {
		go discard(dial(t, addr))
	}
	dial(t, addr)
	waitForClients(t, hub, 3)
	m := scrape(t, admin.URL)
	for _, want := range []string{"gpsserve_connects_total 3", "gpsserve_clients 3"} {
		if !strings.Contains(m, want+"\n") {
			t.Errorf("/metrics missing %q", want)
		}
	}

	floodUntil(t, hub, 1024, func(s wire.TextStats) bool { return s.Drops[wire.DropSlow] > 0 })
	if s := hub.TextStats(); s.Clients != 2 || s.Drops[wire.DropSlow] != 1 {
		t.Fatalf("after the eviction: clients %d, drops %v; want 2 and one slow", s.Clients, s.Drops)
	}

	// Shutdown: the remaining clients drop with reason=shutdown.
	cancel()
	waitForClients(t, hub, 0)
	s := hub.TextStats()
	m = scrape(t, admin.URL)
	for _, want := range []string{
		"gpsserve_clients 0",
		"gpsserve_connects_total 3",
		`gpsserve_drops_total{reason="slow"} 1`,
		`gpsserve_drops_total{reason="shutdown"} 2`,
		`gpsserve_drops_total{reason="write"} 0`,
		fmt.Sprintf("gpsserve_sentences_total %d", 2*s.Fixes),
		fmt.Sprintf("gpsserve_sentences_dropped_total %d", 2*s.Shed),
	} {
		if !strings.Contains(m, want+"\n") {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if s.Fixes == 0 || s.Shed == 0 {
		t.Errorf("fixes %d, shed %d; want both counted", s.Fixes, s.Shed)
	}
}

// scrape fetches the admin endpoint's /metrics text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestRunEmptyDataset(t *testing.T) {
	st, err := scenario.StationByID("YYR1")
	if err != nil {
		t.Fatal(err)
	}
	g := scenario.NewGenerator(st, scenario.DefaultConfig(1))
	ds, err := g.GenerateRange(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/empty.bin"
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-dataset", path}); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestRunRejectsJSONLinesDataset(t *testing.T) {
	path := t.TempDir() + "/yyr1.jsonl"
	if err := os.WriteFile(path, []byte(`{"station":{"id":"YYR1"},"config":{},"epochs":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"-dataset", path})
	if err == nil || !strings.Contains(err.Error(), "gpsgen -format bin") {
		t.Errorf("err = %v, want one naming gpsgen -format bin", err)
	}
}

// TestBroadcasterStatsConsistency churns connections while hammering
// TextStats: every connect and drop moves the counters under one lock,
// so each snapshot must satisfy the conservation law
// connects − drops == clients even mid-churn.
func TestBroadcasterStatsConsistency(t *testing.T) {
	hub, addr, cancel := startText(t)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	for w := 0; w < 4; w++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c, err := net.Dial("tcp", addr)
				if err != nil {
					continue
				}
				time.Sleep(time.Millisecond)
				c.Close()
			}
		}()
	}
	// Publishing lets the writers notice departed clients mid-churn.
	gga, rmc := []byte("$GPGGA,churn*00"), []byte("$GPRMC,churn*00")
	deadline := time.Now().Add(2 * time.Second)
	checks := 0
	for time.Now().Before(deadline) {
		hub.PublishText(gga, rmc)
		s := hub.TextStats()
		if s.Connects-totalDrops(s) != uint64(s.Clients) {
			close(stop)
			churn.Wait()
			t.Fatalf("conservation violated in snapshot: connects %d − drops %v != clients %d",
				s.Connects, s.Drops, s.Clients)
		}
		checks++
	}
	close(stop)
	churn.Wait()
	if checks == 0 {
		t.Fatal("no snapshots taken")
	}
	cancel()
	// Quiescent: all churned connections eventually drop.
	waitForClients(t, hub, 0)
	if s := hub.TextStats(); s.Connects != totalDrops(s) {
		t.Errorf("quiescent snapshot: connects %d, drops %v", s.Connects, s.Drops)
	}
}
