package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gpsdl/internal/checkpoint"
	"gpsdl/internal/journal"
	"gpsdl/internal/wire"
)

// freeAddr reserves an ephemeral port and releases it for run() to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// waitForListener polls until the server accepts on addr.
func waitForListener(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never listened: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeEngineCheckpointKillRestore is the kill-and-restore demo as a
// test: run the engine with checkpointing, cancel mid-run (the SIGTERM
// path), verify the shutdown wrote a final checkpoint, then start a new
// server with -restore and verify it resumed from that epoch rather
// than re-warming from zero.
func TestServeEngineCheckpointKillRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("network end-to-end")
	}
	ckpt := filepath.Join(t.TempDir(), "gps.ckpt")
	args := func(extra ...string) []string {
		base := []string{"-rate", "500", "-receivers", "2", "-station", "all",
			"-solver", "dlg", "-checkpoint", ckpt,
			"-checkpoint-every", "10", "-checkpoint-interval", "50ms",
			"-drain-timeout", "500ms"}
		return append(base, extra...)
	}

	// Run 1: produce epochs until a periodic checkpoint lands, then cancel.
	addr := freeAddr(t)
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan error, 1)
	go func() { done1 <- run(ctx1, args("-addr", addr)) }()
	waitForListener(t, addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, err := checkpoint.Load(ckpt); err == nil && st.Epoch >= 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no periodic checkpoint reached epoch 50")
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel1()
	if err := <-done1; err != nil {
		t.Fatalf("run 1: %v", err)
	}
	st1, err := checkpoint.Load(ckpt)
	if err != nil {
		t.Fatalf("final checkpoint of run 1: %v", err)
	}
	if len(st1.Sessions) != 2 {
		t.Fatalf("final checkpoint has %d sessions, want 2", len(st1.Sessions))
	}

	// Run 2: restore and run briefly. A successful resume continues from
	// st1.Epoch, so even this short run checkpoints at or past it; a cold
	// start in the same wall-clock window could not get close.
	addr2 := freeAddr(t)
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() { done2 <- run(ctx2, args("-addr", addr2, "-restore")) }()
	waitForListener(t, addr2)
	time.Sleep(100 * time.Millisecond)
	cancel2()
	if err := <-done2; err != nil {
		t.Fatalf("run 2: %v", err)
	}
	st2, err := checkpoint.Load(ckpt)
	if err != nil {
		t.Fatalf("final checkpoint of run 2: %v", err)
	}
	if st2.Epoch < st1.Epoch {
		t.Errorf("restored run checkpointed epoch %d < %d — it cold-started instead of resuming",
			st2.Epoch, st1.Epoch)
	}
	for _, s := range st2.Sessions {
		if s.Clock.Kind == "" {
			t.Errorf("receiver %d checkpoint carries no clock snapshot", s.Receiver)
		}
	}
}

// TestServeEngineCheckpointCorruptFallsBack feeds -restore a corrupt
// checkpoint file: the server must log a cold start and serve anyway,
// then overwrite the garbage with a valid checkpoint on shutdown.
func TestServeEngineCheckpointCorruptFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("network end-to-end")
	}
	ckpt := filepath.Join(t.TempDir(), "gps.ckpt")
	if err := os.WriteFile(ckpt, []byte("GPSCKPT 1 deadbeef 9\nnot-json!"), 0o644); err != nil {
		t.Fatal(err)
	}
	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", addr, "-rate", "200", "-receivers", "2",
			"-station", "all", "-checkpoint", ckpt, "-checkpoint-interval", "50ms",
			"-restore", "-drain-timeout", "200ms"})
	}()
	waitForListener(t, addr)
	time.Sleep(100 * time.Millisecond)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run with corrupt checkpoint: %v", err)
	}
	st, err := checkpoint.Load(ckpt)
	if err != nil {
		t.Fatalf("checkpoint still unreadable after run: %v", err)
	}
	if len(st.Sessions) != 2 {
		t.Errorf("rewritten checkpoint has %d sessions, want 2", len(st.Sessions))
	}
}

// startServe runs run(args) until the returned stop is called; stop
// cancels it and fails the test if run returned an error.
func startServe(t *testing.T, args ...string) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, args) }()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("run %v: %v", args, err)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("run %v did not stop", args)
		}
	}
	t.Cleanup(stop)
	return stop
}

// firstFixes subscribes live to session on a -wire listener and
// returns its first n fixes. Subscribed before the session's first
// keyframe block ends, the stream starts at epoch 0.
func firstFixes(t *testing.T, addr string, session, n int) []wire.Fix {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	c := wire.DialSession(ctx, wire.ClientConfig{Addr: addr, Session: session, Resume: -1})
	defer c.Close()
	var got []wire.Fix
	for len(got) < n {
		f, ok := <-c.Fixes()
		if !ok {
			t.Fatalf("session %d stream stopped after %d fixes: %v", session, len(got), c.Err())
		}
		got = append(got, f)
	}
	return got
}

// TestServeRejectedRestoreColdStartsEverySession restarts on a
// checkpoint whose receiver 1 ran another station. The engine refuses
// it, and every session must then start cold: receiver 0, whose record
// matches and would restore on its own, serves exactly the fixes of a
// server that never saw the checkpoint.
func TestServeRejectedRestoreColdStartsEverySession(t *testing.T) {
	if testing.Short() {
		t.Skip("network end-to-end")
	}
	ckpt := filepath.Join(t.TempDir(), "gps.ckpt")
	stop := startServe(t, "-addr", freeAddr(t), "-receivers", "2", "-station", "all",
		"-rate", "500", "-checkpoint", ckpt, "-checkpoint-every", "10",
		"-checkpoint-interval", "50ms", "-drain-timeout", "100ms")
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Past the clock calibration, so a restored receiver 0 would
		// serve DLG where a cold one still serves NR.
		if st, err := checkpoint.Load(ckpt); err == nil && st.Epoch >= 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint reached epoch 100")
		}
		time.Sleep(20 * time.Millisecond)
	}
	stop()

	// Both servers pin every receiver to SRZN, receiver 0's station in
	// the checkpoint; a keyframe block of 1000 epochs leaves time to
	// subscribe before the first one ends.
	serve := func(extra ...string) (wireAddr, admin string, stop func()) {
		wireAddr, adminAddr := freeAddr(t), freeAddr(t)
		args := append([]string{"-addr", freeAddr(t), "-wire", wireAddr, "-admin", adminAddr,
			"-receivers", "2", "-station", "SRZN", "-rate", "100", "-checkpoint-every", "1000",
			"-drain-timeout", "100ms"}, extra...)
		stop = startServe(t, args...)
		admin = "http://" + adminAddr
		waitHTTP(t, admin+"/healthz")
		return wireAddr, admin, stop
	}
	coldWire, _, _ := serve()
	// The engine built before the rejection is discarded; its journal
	// must not survive into the file the serving engine writes.
	jpath := filepath.Join(t.TempDir(), "flight.gpsj")
	restWire, restAdmin, restStop := serve("-checkpoint", ckpt, "-restore", "-journal", jpath)
	if hs := healthz(t, restAdmin); hs.Restore == nil || hs.Restore.Outcome != "rejected" {
		t.Fatalf("restore outcome %+v, want rejected", hs.Restore)
	}
	const n = 80
	cold := firstFixes(t, coldWire, 0, n)
	got := firstFixes(t, restWire, 0, n)
	if cold[0].Epoch != 0 || got[0].Epoch != 0 {
		t.Fatalf("streams start at epochs %d and %d, want 0", cold[0].Epoch, got[0].Epoch)
	}
	for i := range cold {
		if got[i] != cold[i] {
			t.Fatalf("receiver 0 fix %d after a rejected restore:\n%+v\ncold server:\n%+v", i, got[i], cold[i])
		}
	}
	restStop()
	f, err := os.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := journal.Scan(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn || len(res.Records) == 0 || res.Records[0].Epoch != 0 {
		t.Fatalf("journal after a rejected restore: torn=%v (%s), %d records",
			res.Torn, res.TornReason, len(res.Records))
	}
}

// TestServeNodeRestoresOwnMergedCheckpoint restarts a cluster node
// from the checkpoint it saved after adopting a session. The file holds
// the adopted engine's record next to the node's own, at another epoch
// (the session comes from a node that booted earlier, so its epochs run
// ahead); the restart must restore the node's own sessions from it.
func TestServeNodeRestoresOwnMergedCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("network end-to-end")
	}
	ckpt := filepath.Join(t.TempDir(), "gps.ckpt")
	node := func() (admin string, stop func()) {
		adminAddr := freeAddr(t)
		stop = startServe(t, "-addr", freeAddr(t), "-wire", freeAddr(t), "-admin", adminAddr,
			"-session-ids", "0,1", "-rate", "200", "-checkpoint", ckpt,
			"-checkpoint-every", "10", "-checkpoint-interval", "50ms", "-drain-timeout", "100ms",
			"-restore")
		admin = "http://" + adminAddr
		waitHTTP(t, admin+"/healthz")
		return admin, stop
	}
	admin, stop := node()
	const resume = 100000
	resp, err := http.Post(fmt.Sprintf("%s/cluster/handoff?sessions=2&resume=%d", admin, resume),
		"application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := checkpoint.Load(ckpt)
		if err == nil && len(st.Filter([]int{2}).Sessions) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the adopted session never reached the checkpoint file")
		}
		time.Sleep(20 * time.Millisecond)
	}
	stop()

	admin, _ = node()
	hs := healthz(t, admin)
	if r := hs.Restore; r == nil || r.Outcome != "ok" || r.Sessions != 2 || r.Epoch >= resume {
		t.Fatalf("restart restore = %+v, want ok with the node's own 2 sessions", r)
	}
}
