package main

import (
	"bufio"
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gpsdl/internal/engine"
	"gpsdl/internal/nmea"
	"gpsdl/internal/scenario"
	"gpsdl/internal/telemetry"
)

// startBroadcaster spins up a broadcaster on an ephemeral port.
func startBroadcaster(t *testing.T) (*Broadcaster, string, context.CancelFunc) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroadcaster()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = b.Serve(ctx, ln)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("broadcaster did not shut down")
		}
	})
	return b, ln.Addr().String(), cancel
}

// waitForClients polls until the broadcaster sees n clients.
func waitForClients(t *testing.T, b *Broadcaster, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.ClientCount() != n {
		if time.Now().After(deadline) {
			t.Fatalf("client count %d, want %d", b.ClientCount(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBroadcastReachesAllClients(t *testing.T) {
	b, addr, _ := startBroadcaster(t)
	c1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	waitForClients(t, b, 2)

	b.Broadcast("$GPGGA,test*00")
	b.Broadcast("$GPRMC,test*00")
	for i, c := range []net.Conn{c1, c2} {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		r := bufio.NewReader(c)
		l1, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("client %d read: %v", i, err)
		}
		if !strings.HasPrefix(l1, "$GPGGA") {
			t.Errorf("client %d line 1 = %q", i, l1)
		}
		l2, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("client %d read 2: %v", i, err)
		}
		if !strings.HasPrefix(l2, "$GPRMC") {
			t.Errorf("client %d line 2 = %q", i, l2)
		}
		if !strings.HasSuffix(l2, "\r\n") {
			t.Errorf("client %d missing CRLF: %q", i, l2)
		}
	}
}

func TestSlowClientIsDropped(t *testing.T) {
	b, addr, _ := startBroadcaster(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitForClients(t, b, 1)
	// Never read from c; flood well past queue + socket buffers.
	long := strings.Repeat("x", 1024)
	for i := 0; i < 20000; i++ {
		b.Broadcast(long)
	}
	deadline := time.Now().Add(10 * time.Second)
	for b.ClientCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow client was never dropped")
		}
		b.Broadcast(long)
		time.Sleep(time.Millisecond)
	}
}

func TestShutdownClosesClients(t *testing.T) {
	b, addr, cancel := startBroadcaster(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitForClients(t, b, 1)
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
	if err := ds.SaveBinaryFile(path); err != nil {
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
		{"missing dataset", []string{"-dataset", "/does/not/exist.jsonl"}},
		{"bad listen address", []string{"-addr", "256.256.256.256:99999"}},
		{"zero receivers", []string{"-receivers", "0"}},
		{"engine with dataset", []string{"-receivers", "2", "-dataset", "/does/not/exist.jsonl"}},
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

// Gauge consistency: after N connects, M slow-client evictions, and
// shutdown, ClientCount and the connection/drop counters must agree:
// connects − drops == clients == 0, with the slow eviction attributed
// to the "slow" reason and the rest to "shutdown".
func TestBroadcasterGaugeConsistency(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroadcaster()
	b.QueueLen = 1 // tiny queue so a non-reading client evicts quickly
	b.Metrics = NewBroadcasterMetrics(telemetry.NewRegistry())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = b.Serve(ctx, ln)
	}()
	addr := ln.Addr().String()

	// Two well-behaved readers that drain until their connection dies.
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		go func() {
			buf := make([]byte, 4096)
			for {
				if _, err := c.Read(buf); err != nil {
					return
				}
			}
		}()
	}
	// One slow client that never reads.
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	waitForClients(t, b, 3)
	if got := b.Metrics.Connects.Value(); got != 3 {
		t.Errorf("connects = %d, want 3", got)
	}
	if got := b.Metrics.Clients.Value(); got != 3 {
		t.Errorf("clients gauge = %v, want 3", got)
	}

	// Flood until the slow client overflows its 1-line queue.
	long := strings.Repeat("x", 1024)
	deadline := time.Now().Add(10 * time.Second)
	for b.ClientCount() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("slow client was never evicted")
		}
		b.Broadcast(long)
		time.Sleep(time.Millisecond)
	}
	if got := b.Metrics.SlowDrops.Value(); got != 1 {
		t.Errorf("slow drops = %d, want 1", got)
	}

	// Shutdown: the remaining clients drop with reason=shutdown.
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("broadcaster did not shut down")
	}
	m := b.Metrics
	if got := m.ShutdownDrops.Value(); got != 2 {
		t.Errorf("shutdown drops = %d, want 2", got)
	}
	if b.ClientCount() != 0 {
		t.Errorf("ClientCount = %d after shutdown", b.ClientCount())
	}
	if got := m.Clients.Value(); got != 0 {
		t.Errorf("clients gauge = %v after shutdown, want 0", got)
	}
	if connects, drops := m.Connects.Value(), m.Drops(); connects != drops {
		t.Errorf("conservation violated: connects %d != drops %d at quiescence", connects, drops)
	}
	if got := m.Sentences.Value(); got == 0 {
		t.Error("no sentences counted despite broadcasts")
	}
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
	if err := ds.SaveBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-dataset", path}); err == nil {
		t.Error("empty dataset accepted")
	}
}

// TestBroadcasterStatsConsistency churns connections while hammering
// Stats: because every connect/drop mutates the counters under the
// broadcaster mutex, each snapshot must satisfy the conservation law
// connects − drops == clients even mid-churn. (Reading ClientCount and
// Metrics.Drops separately, as healthz used to, violates this
// transiently.)
func TestBroadcasterStatsConsistency(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroadcaster()
	b.Metrics = NewBroadcasterMetrics(telemetry.NewRegistry())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = b.Serve(ctx, ln)
	}()
	addr := ln.Addr().String()

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
	deadline := time.Now().Add(2 * time.Second)
	checks := 0
	for time.Now().Before(deadline) {
		clients, connects, drops := b.Stats()
		if connects-drops != uint64(clients) {
			close(stop)
			churn.Wait()
			t.Fatalf("conservation violated in snapshot: connects %d − drops %d != clients %d",
				connects, drops, clients)
		}
		checks++
	}
	close(stop)
	churn.Wait()
	if checks == 0 {
		t.Fatal("no snapshots taken")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("broadcaster did not shut down")
	}
	// Quiescent: all churned connections eventually drop.
	waitForClients(t, b, 0)
	clients, connects, drops := b.Stats()
	if clients != 0 || connects != drops {
		t.Errorf("quiescent snapshot: clients %d, connects %d, drops %d", clients, connects, drops)
	}
}
