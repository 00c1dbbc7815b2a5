package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gpsdl/internal/checkpoint"
	"gpsdl/internal/engine"
	"gpsdl/internal/telemetry"
	"gpsdl/internal/wire"
)

// testCkptEvery doubles as the hub keyframe cadence so handoff points
// land on keyframe block boundaries (the byte-identity precondition).
const testCkptEvery = 50

// testNode is an in-process serving node: a real engine behind a real
// Node, wire listener, and admin HTTP server — everything a proxy
// talks to, killable mid-stream.
type testNode struct {
	name  string
	node  *Node
	reg   *telemetry.Registry
	wire  string
	admin *httptest.Server
	ln    net.Listener
	stop  context.CancelFunc
	dead  bool

	mu       sync.Mutex
	restores []RestoreOutcome
}

func (tn *testNode) restoreLog() []RestoreOutcome {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	return append([]RestoreOutcome(nil), tn.restores...)
}

func startTestNode(t *testing.T, name string, ids []int, seed int64) *testNode {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	reg := telemetry.NewRegistry()
	tn := &testNode{name: name, reg: reg, stop: cancel}
	var node *Node
	base := engine.Config{
		Workers:         2,
		Seed:            seed,
		CheckpointEvery: testCkptEvery,
		Sink:            func(e engine.FixEvent) { node.Publish(e) },
	}
	node = NewNode(ctx, NodeConfig{
		Base:     base,
		Rate:     200,
		Hub:      wire.NewHub(wire.HubConfig{KeyframeEvery: testCkptEvery}),
		Registry: reg,
		OnRestore: func(o RestoreOutcome) {
			tn.mu.Lock()
			tn.restores = append(tn.restores, o)
			tn.mu.Unlock()
		},
	})
	cfg := base
	cfg.SessionIDs = append([]int(nil), ids...)
	eng, _, err := node.Host(func() (*engine.Engine, error) { return engine.New(cfg) }, "")
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	go func() {
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		node.Pace(eng, tk.C)
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	ws := &wire.Server{Hub: node.Hub}
	go func() { _ = ws.Serve(ctx, ln) }()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	node.Routes(mux)
	admin := httptest.NewServer(mux)
	tn.node = node
	tn.wire = ln.Addr().String()
	tn.admin = admin
	tn.ln = ln
	t.Cleanup(tn.kill)
	return tn
}

// kill is the chaos switch: engines stop, listeners close, /healthz
// starts refusing connections — what SIGKILL looks like from outside.
func (tn *testNode) kill() {
	if tn.dead {
		return
	}
	tn.dead = true
	tn.stop()
	tn.ln.Close()
	tn.admin.Close()
}

// collect drains n fixes from a live subscriber to the node.
func collectFixes(t *testing.T, addr string, session int, ack int64, n int) []wire.Fix {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := wire.DialSession(ctx, wire.ClientConfig{Addr: addr, Session: session, Resume: ack})
	defer c.Close()
	var got []wire.Fix
	for len(got) < n {
		select {
		case f, ok := <-c.Fixes():
			if !ok {
				t.Fatalf("client stopped after %d fixes: %v", len(got), c.Err())
			}
			got = append(got, f)
		case <-ctx.Done():
			t.Fatalf("timed out after %d/%d fixes", len(got), n)
		}
	}
	return got
}

// TestNodeWireServing: the e2e resume-semantics satellite at the node
// level — live subscribe, disconnect, resume with the token, and the
// resumed stream continues exactly one past the ack with no duplicates
// and no holes.
func TestNodeWireServing(t *testing.T) {
	tn := startTestNode(t, "a", []int{0, 1}, 11)
	first := collectFixes(t, tn.wire, 1, -1, 30)
	for i := 1; i < len(first); i++ {
		if first[i].Epoch != first[i-1].Epoch+1 {
			t.Fatalf("live stream hole: %d → %d", first[i-1].Epoch, first[i].Epoch)
		}
	}
	ack := int64(first[len(first)-1].Epoch)
	resumed := collectFixes(t, tn.wire, 1, ack, 20)
	if resumed[0].Epoch != uint64(ack)+1 {
		t.Fatalf("resume with ack %d delivered epoch %d first, want %d", ack, resumed[0].Epoch, ack+1)
	}
	for i := 1; i < len(resumed); i++ {
		if resumed[i].Epoch != resumed[i-1].Epoch+1 {
			t.Fatalf("resumed stream hole: %d → %d", resumed[i-1].Epoch, resumed[i].Epoch)
		}
	}
}

// TestNodeHandoffEndpoints drives the /cluster/* control plane over
// real HTTP: discovery, checkpoint fetch, filtered handoff to a
// survivor, and the survivor serving the adopted session.
func TestNodeHandoffEndpoints(t *testing.T) {
	a := startTestNode(t, "a", []int{0, 1}, 21)
	b := startTestNode(t, "b", []int{2}, 21)

	// Discovery answers with hosted sessions.
	var sessions struct {
		Engines  int                `json:"engines"`
		Sessions []wire.SessionInfo `json:"sessions"`
	}
	resp, err := http.Get(a.admin.URL + "/cluster/sessions")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sessions); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sessions.Engines != 1 || len(sessions.Sessions) != 2 {
		t.Fatalf("sessions = %+v", sessions)
	}

	// Wait for node a to pass a checkpoint refresh boundary, then
	// fetch its periodic checkpoint.
	var st *checkpoint.State
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(a.admin.URL + "/cluster/checkpoint")
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		st, err = checkpoint.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Sessions) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node a never produced a non-empty checkpoint")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Hand session 1 to node b with the filtered checkpoint.
	head := a.node.Hub.Head(1)
	if head < int64(st.Epoch) {
		head = int64(st.Epoch)
	}
	resume := int(head) + 1
	body, err := checkpoint.Encode(st.Filter([]int{1}))
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/cluster/handoff?sessions=1&resume=%d", b.admin.URL, resume)
	hr, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out RestoreOutcome
	if err := json.NewDecoder(hr.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if out.Outcome != "ok" || out.Sessions != 1 {
		t.Fatalf("handoff outcome = %+v, want ok/1 session", out)
	}

	// The survivor serves the adopted session: resuming with an ack
	// inside the replayed range continues without a hole.
	got := collectFixes(t, b.wire, 1, int64(st.Epoch), 20)
	if got[0].Epoch != uint64(st.Epoch)+1 {
		t.Fatalf("adopted stream starts at %d, want %d", got[0].Epoch, st.Epoch+1)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Epoch != got[i-1].Epoch+1 {
			t.Fatalf("adopted stream hole: %d → %d", got[i-1].Epoch, got[i].Epoch)
		}
	}

	// Re-adopting the same session is a guarded no-op.
	hr2, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hr2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	hr2.Body.Close()
	if out.Outcome != "duplicate" {
		t.Fatalf("second handoff outcome = %q, want duplicate", out.Outcome)
	}
}

// TestNodeHandoffGracefulDegradation: corrupt checkpoint bytes must
// not refuse the sessions — they cold-start at the resume epoch, the
// downgrade is reported, and gps_restore_failures_total moves.
func TestNodeHandoffGracefulDegradation(t *testing.T) {
	b := startTestNode(t, "b", []int{2}, 33)

	url := b.admin.URL + "/cluster/handoff?sessions=5&resume=40"
	hr, err := http.Post(url, "application/octet-stream", strings.NewReader("GPSCKPT garbage"))
	if err != nil {
		t.Fatal(err)
	}
	var out RestoreOutcome
	if err := json.NewDecoder(hr.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if out.Outcome != "corrupt" {
		t.Fatalf("outcome = %q, want corrupt", out.Outcome)
	}
	if got := b.node.Status().RestoreFailures; got != 1 {
		t.Fatalf("restore failures = %d, want 1", got)
	}
	if rep := b.restoreLog(); len(rep) != 1 || rep[0].Outcome != "corrupt" {
		t.Fatalf("OnRestore saw %+v", rep)
	}

	// Despite the corrupt checkpoint the session is served, starting
	// at the requested resume epoch (the declared cold-start gap).
	got := collectFixes(t, b.wire, 5, -1, 10)
	if got[0].Epoch < 40 {
		t.Fatalf("cold-started session served epoch %d before the resume point 40", got[0].Epoch)
	}

	// A mismatched (wrong-seed) checkpoint is rejected, also downgrading
	// to cold start rather than refusal.
	wrong := &checkpoint.State{Solver: "dlg", Seed: 999, Receivers: 1, Epoch: 50,
		Sessions: []checkpoint.Session{{Receiver: 6, Epoch: 50}}}
	data, err := checkpoint.Encode(wrong)
	if err != nil {
		t.Fatal(err)
	}
	hr2, err := http.Post(b.admin.URL+"/cluster/handoff?sessions=6&resume=50",
		"application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hr2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	hr2.Body.Close()
	if out.Outcome != "rejected" {
		t.Fatalf("outcome = %q, want rejected", out.Outcome)
	}
	if got := b.node.Status().RestoreFailures; got != 2 {
		t.Fatalf("restore failures = %d, want 2", got)
	}
}

// TestNodeHandoffValidation: malformed handoff requests are refused
// loudly.
func TestNodeHandoffValidation(t *testing.T) {
	b := startTestNode(t, "b", []int{0}, 1)
	for _, bad := range []string{
		"/cluster/handoff?sessions=&resume=10",
		"/cluster/handoff?sessions=1&resume=-2",
		"/cluster/handoff?sessions=x&resume=10",
	} {
		resp, err := http.Post(b.admin.URL+bad, "application/octet-stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: HTTP %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, err := http.Get(b.admin.URL + "/cluster/handoff?sessions=1&resume=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET handoff: HTTP %d, want 405", resp.StatusCode)
	}
}

// TestHostedState: a restore resumes at the newest epoch among the
// hosted records, not at the merged checkpoint's epoch (another
// engine's). A handoff drops the hosted records behind it; a restart
// keeps them.
func TestHostedState(t *testing.T) {
	st := &checkpoint.State{Receivers: 4, Epoch: 900, Sessions: []checkpoint.Session{
		{Receiver: 0, Epoch: 200}, {Receiver: 1, Epoch: 190}, {Receiver: 2, Epoch: 900},
	}}
	for _, handoff := range []bool{true, false} {
		got := hostedState(st, []int{0, 1, 3}, handoff)
		var ids []int
		for _, s := range got.Sessions {
			ids = append(ids, s.Receiver)
		}
		want := "[0 1]"
		if handoff {
			want = "[0]"
		}
		if got.Epoch != 200 || got.Receivers != 3 || fmt.Sprint(ids) != want {
			t.Errorf("handoff=%v: epoch %d, receivers %d, records %v; want 200, 3, %s",
				handoff, got.Epoch, got.Receivers, ids, want)
		}
	}
	if len(st.Sessions) != 3 || st.Epoch != 900 {
		t.Errorf("hostedState modified its input: %+v", st)
	}
}

// TestParseSessionIDs covers the -session-ids flag grammar.
func TestParseSessionIDs(t *testing.T) {
	ids, err := ParseSessionIDs(" 3, 0 ,7")
	if err != nil || len(ids) != 3 || ids[0] != 3 || ids[1] != 0 || ids[2] != 7 {
		t.Fatalf("ids=%v err=%v", ids, err)
	}
	for _, bad := range []string{"", "1,1", "-4", "a"} {
		if _, err := ParseSessionIDs(bad); err == nil {
			t.Errorf("ParseSessionIDs(%q) accepted", bad)
		}
	}
}
