package cluster

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"gpsdl/internal/engine"
	"gpsdl/internal/telemetry"
	"gpsdl/internal/wire"
)

// startTestProxy fronts the given nodes with a fast-probing Proxy and
// a wire relay listener. budget bounds the per-relay upstream retries.
func startTestProxy(t *testing.T, nodes map[string]*testNode, budget int) (*Proxy, string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrs := make(map[string]NodeAddr, len(nodes))
	for name, tn := range nodes {
		addrs[name] = NodeAddr{Wire: tn.wire, Admin: tn.admin.URL}
	}
	p, err := NewProxy(ProxyConfig{
		Nodes: addrs,
		Health: HealthConfig{
			Interval:  20 * time.Millisecond,
			Timeout:   500 * time.Millisecond,
			Threshold: 3,
		},
		PollInterval: 25 * time.Millisecond,
		RetryBudget:  budget,
		BackoffBase:  10 * time.Millisecond,
		BackoffMax:   100 * time.Millisecond,
		Registry:     telemetry.NewRegistry(),
	})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	go p.Run(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	go func() { _ = p.ServeWire(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		ln.Close()
	})
	return p, ln.Addr().String()
}

// cachedCheckpointEpoch reads the proxy's cached checkpoint epoch for a
// node (−1 when none cached yet).
func cachedCheckpointEpoch(p *Proxy, node string) int {
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	if st := p.ckpts[node]; st != nil {
		return st.Epoch
	}
	return -1
}

// controlStream runs an uninterrupted single-session engine with the
// same seed and round-trips every fix through the wire codec — the
// quantized ground truth a failover-bridged stream must match exactly.
func controlStream(t *testing.T, session int, seed int64, end int) map[uint64]wire.Fix {
	t.Helper()
	var (
		mu    sync.Mutex
		enc   = wire.FixEncoder{KeyframeEvery: testCkptEvery}
		frame []byte
	)
	cfg := engine.Config{
		SessionIDs:      []int{session},
		Workers:         1,
		Seed:            seed,
		CheckpointEvery: testCkptEvery,
		Sink: func(e engine.FixEvent) {
			mu.Lock()
			f := e.Wire()
			frame, _ = enc.AppendFix(frame, &f)
			mu.Unlock()
		},
	}
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), end); err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64]wire.Fix, end)
	fr := wire.NewFrameReader(bytes.NewReader(frame))
	var dec wire.FixDecoder
	for {
		pl, err := fr.Next()
		if err != nil {
			break
		}
		f, err := dec.DecodeFix(pl)
		if err != nil {
			t.Fatal(err)
		}
		out[f.Epoch] = f
	}
	if len(out) != end {
		t.Fatalf("control stream decoded %d epochs, want %d", len(out), end)
	}
	return out
}

// TestProxyFailoverKeepsStreamGapless is the tentpole acceptance test:
// a client streaming session 1 through the proxy survives a node death
// with zero duplicated epochs, zero silently-skipped epochs, and
// post-failover fixes bit-identical to an uninterrupted run.
func TestProxyFailoverKeepsStreamGapless(t *testing.T) {
	const seed = 7
	a := startTestNode(t, "a", []int{0, 1}, seed)
	b := startTestNode(t, "b", []int{2}, seed)
	p, relay := startTestProxy(t, map[string]*testNode{"a": a, "b": b}, 100)

	var (
		evMu sync.Mutex
		gaps []wire.Resume
	)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := wire.DialSession(ctx, wire.ClientConfig{
		Addr:        relay,
		Session:     1,
		Resume:      -1,
		RetryBudget: 100,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
		OnEvent: func(e wire.ClientEvent) {
			if e.Kind == "gap" {
				evMu.Lock()
				gaps = append(gaps, e.Resume)
				evMu.Unlock()
			}
		},
	})
	defer c.Close()

	// Phase 1: stream through node a until the kill preconditions hold —
	// the client is past epoch 120 and the proxy holds a checkpoint of
	// node a from epoch ≥ 50, so the handoff has real state to restore.
	var got []wire.Fix
	killed := false
	for {
		select {
		case f, ok := <-c.Fixes():
			if !ok {
				t.Fatalf("client stopped after %d fixes: %v", len(got), c.Err())
			}
			got = append(got, f)
		case <-ctx.Done():
			t.Fatalf("timed out: %d fixes, killed=%v", len(got), killed)
		}
		last := got[len(got)-1].Epoch
		if !killed && last >= 120 && cachedCheckpointEpoch(p, "a") >= testCkptEvery {
			// Phase 2: the chaos event. kill() drops the engines, the
			// wire listener, and /healthz all at once.
			a.kill()
			killed = true
		}
		if killed && last >= 300 {
			break
		}
	}

	// Zero duplicated, zero silently-skipped: strictly consecutive
	// epochs across the failover.
	for i := 1; i < len(got); i++ {
		if got[i].Epoch != got[i-1].Epoch+1 {
			t.Fatalf("epoch %d followed %d at fix %d — stream not gapless across failover",
				got[i].Epoch, got[i-1].Epoch, i)
		}
	}
	evMu.Lock()
	ngaps := len(gaps)
	evMu.Unlock()
	if ngaps != 0 {
		t.Fatalf("client saw %d gap verdicts: %+v", ngaps, gaps)
	}

	// The orphaned sessions were re-homed to the survivor.
	owners := p.Owners()
	if owners[0] != "b" || owners[1] != "b" {
		t.Fatalf("owners after failover = %v, want sessions 0 and 1 on b", owners)
	}
	hosted := make(map[int]bool)
	for _, si := range b.node.Hub.Sessions() {
		hosted[si.ID] = true
	}
	if !hosted[0] || !hosted[1] {
		t.Fatalf("survivor hub hosts %v, want sessions 0 and 1 adopted", b.node.Hub.Sessions())
	}
	if v := p.failovers.Value(); v < 1 {
		t.Fatalf("gpsproxy_failovers_total = %d, want ≥ 1", v)
	}
	if v := p.handoffsOK.Value(); v < 1 {
		t.Fatalf("gpsproxy_handoffs_total = %d, want ≥ 1", v)
	}
	if v := b.node.Status().Handoffs; v < 1 {
		t.Fatalf("survivor gps_cluster_handoffs_total = %d, want ≥ 1", v)
	}

	// Bit-identity: every fix the client saw — before, across, and after
	// the failover — equals the uninterrupted control run's quantized
	// stream.
	maxEpoch := int(got[len(got)-1].Epoch)
	control := controlStream(t, 1, seed, maxEpoch+1)
	for _, f := range got {
		want, ok := control[f.Epoch]
		if !ok {
			t.Fatalf("epoch %d missing from control stream", f.Epoch)
		}
		if f != want {
			t.Fatalf("epoch %d diverged after failover:\n  relayed %+v\n  control %+v", f.Epoch, f, want)
		}
	}
}

// TestProxyUnknownSessionAnswered: a resume token no node recognizes
// gets an explicit StatusUnknown verdict, never a hang.
func TestProxyUnknownSessionAnswered(t *testing.T) {
	a := startTestNode(t, "a", []int{0}, 3)
	_, relay := startTestProxy(t, map[string]*testNode{"a": a}, 4)

	var (
		evMu    sync.Mutex
		unknown bool
	)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := wire.DialSession(ctx, wire.ClientConfig{
		Addr:        relay,
		Session:     42,
		Resume:      900,
		RetryBudget: 4,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		OnEvent: func(e wire.ClientEvent) {
			if e.Kind == "resume" && e.Resume.Status == wire.StatusUnknown {
				evMu.Lock()
				unknown = true
				evMu.Unlock()
			}
		},
	})
	defer c.Close()

	for {
		select {
		case _, ok := <-c.Fixes():
			if ok {
				t.Fatal("received a fix for a session nobody hosts")
			}
		case <-ctx.Done():
			t.Fatal("client hung on an unknown session")
		}
		break
	}
	if c.Err() == nil {
		t.Fatal("client terminated without an explanatory error")
	}
	evMu.Lock()
	defer evMu.Unlock()
	if !unknown {
		t.Fatal("client never received the StatusUnknown verdict for its resume token")
	}
}

// TestProxyFailoverResumesEachEngineAtItsOwnEpoch: a dead node whose
// engines run far apart in epoch has each group of its sessions
// restored at that group's own checkpoint epoch. Node a hosts sessions
// 0 and 1 from its boot and has adopted session 9 at epoch 5000; when
// it dies, the survivor must restore 0 and 1 where they were, not
// cold-start them at session 9's epoch, so their clients skip nothing.
func TestProxyFailoverResumesEachEngineAtItsOwnEpoch(t *testing.T) {
	const seed, adoptedAt = 13, 5000
	a := startTestNode(t, "a", []int{0, 1}, seed)
	b := startTestNode(t, "b", []int{2}, seed)
	if _, err := a.node.Adopt([]int{9}, adoptedAt, nil); err != nil {
		t.Fatal(err)
	}
	p, _ := startTestProxy(t, map[string]*testNode{"a": a, "b": b}, 4)

	// Kill node a once the proxy holds a checkpoint with every one of
	// its sessions and has seen each publish.
	deadline := time.Now().Add(30 * time.Second)
	for {
		p.ckptMu.Lock()
		ck := p.ckpts["a"]
		p.ckptMu.Unlock()
		epochs := map[int]int{}
		if ck != nil {
			for _, s := range ck.Sessions {
				epochs[s.Receiver] = s.Epoch
			}
		}
		p.mu.Lock()
		_, seen0 := p.heads[0]
		_, seen9 := p.heads[9]
		p.mu.Unlock()
		if epochs[0] >= testCkptEvery && epochs[1] >= testCkptEvery && epochs[9] > adoptedAt && seen0 && seen9 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node a's checkpoint never covered every session: %v", epochs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	a.kill()

	// The proxy records a new owner once the survivor has answered the
	// handoff, so by then every restore is logged.
	for {
		owners := p.Owners()
		if owners[0] == "b" && owners[1] == "b" && owners[9] == "b" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owners %v, survivor restores %+v", owners, b.restoreLog())
		}
		time.Sleep(10 * time.Millisecond)
	}
	restored := map[int]bool{} // restored session counts, by whether they resumed past adoptedAt
	for _, o := range b.restoreLog() {
		if o.Outcome != "ok" {
			t.Fatalf("survivor restore %+v, want every group restored", o)
		}
		restored[o.Sessions] = o.Epoch >= adoptedAt
	}
	if late, ok := restored[2]; !ok || late {
		t.Fatalf("restores %+v: want sessions 0 and 1 restored together before epoch %d", b.restoreLog(), adoptedAt)
	}
	if late, ok := restored[1]; !ok || !late {
		t.Fatalf("restores %+v: want session 9 restored on its own past epoch %d", b.restoreLog(), adoptedAt)
	}
	for _, s := range []int{0, 1} {
		if h := b.node.Hub.Head(s); h >= adoptedAt {
			t.Fatalf("session %d serves epoch %d on the survivor: it skipped to session 9's epoch", s, h)
		}
	}
}
