// Proxy-side cluster serving: a Proxy fronts a static set of gpsserve
// nodes, routing each binary subscriber to the node hosting its
// session and bridging node deaths invisibly. Three loops cooperate:
//
//   - discovery polls every live node's /cluster/sessions to learn
//     which node hosts which session (and each stream's head epoch);
//   - the checkpoint cache polls /cluster/checkpoint so the proxy
//     always holds a dead node's last periodic checkpoint;
//   - the health monitor probes /healthz, and Threshold consecutive
//     failures trigger failover: the dead node leaves the hash ring,
//     its orphaned sessions are grouped by ring-chosen survivor, and
//     each group is POSTed to its survivor's /cluster/handoff together
//     with the filtered cached checkpoint.
//
// Client relaying keeps per-connection delta-chain continuity across
// an upstream failover: the proxy resubscribes to the survivor with
// the last epoch it relayed as the resume token, forwards the
// survivor's RESUME verdict, and skips replayed FIX frames the client
// already holds — safe precisely because a handed-off session
// regenerates bit-identical frames (TestEngineHandoffDeterminism).
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpsdl/internal/checkpoint"
	"gpsdl/internal/telemetry"
	"gpsdl/internal/wire"
)

// NodeAddr is one serving node's pair of addresses.
type NodeAddr struct {
	// Wire is the binary fix-stream listener (gpsserve -wire).
	Wire string
	// Admin is the admin HTTP base URL (http://host:port).
	Admin string
}

// ProxyConfig configures a Proxy.
type ProxyConfig struct {
	// Nodes is the static node set, name → addresses.
	Nodes map[string]NodeAddr
	// Replicas is the hash ring's virtual-node count (≤ 0 means 64).
	Replicas int
	// Health tunes the /healthz monitor.
	Health HealthConfig
	// PollInterval spaces the discovery/checkpoint polls (≤ 0 means 1 s).
	PollInterval time.Duration
	// RetryBudget bounds consecutive upstream failures per client relay
	// before the client connection is dropped (≤ 0 means 16); any
	// relayed frame refills it. BackoffBase/BackoffMax bound the
	// jittered reconnect backoff between attempts (defaults 50 ms / 2 s).
	RetryBudget int
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Registry receives the proxy metrics; nil disables them.
	Registry *telemetry.Registry
	// Log, when set, receives failover and relay events.
	Log *slog.Logger
}

// Proxy routes binary subscribers across serving nodes and re-homes
// sessions when a node dies.
type Proxy struct {
	cfg    ProxyConfig
	ring   *Ring
	mon    *Monitor
	client *http.Client

	mu     sync.Mutex
	owners map[int]string          // session → hosting node
	heads  map[int]int64           // session → last seen head epoch
	hosted map[string]map[int]bool // node → hosted session set

	ckptMu sync.Mutex
	ckpts  map[string]*checkpoint.State // node → last good checkpoint

	failovers    *telemetry.Counter
	handoffsOK   *telemetry.Counter
	handoffsFail *telemetry.Counter
	reconnects   *telemetry.Counter
	relayed      *telemetry.Counter
	relays       *telemetry.Gauge

	wg sync.WaitGroup
}

// NewProxy builds a Proxy over the configured node set.
func NewProxy(cfg ProxyConfig) (*Proxy, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: proxy needs at least one node")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = time.Second
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 16
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	reg := cfg.Registry
	p := &Proxy{
		cfg:    cfg,
		ring:   NewRing(cfg.Replicas),
		client: &http.Client{Timeout: 3 * time.Second},
		owners: make(map[int]string),
		heads:  make(map[int]int64),
		hosted: make(map[string]map[int]bool),
		ckpts:  make(map[string]*checkpoint.State),
		failovers: reg.Counter("gpsproxy_failovers_total",
			"Node deaths that triggered session re-homing."),
		handoffsOK: reg.Counter("gpsproxy_handoffs_total",
			"Checkpoint handoffs accepted by a survivor node."),
		handoffsFail: reg.Counter("gpsproxy_handoff_failures_total",
			"Checkpoint handoffs that exhausted their retries."),
		reconnects: reg.Counter("gpsproxy_upstream_reconnects_total",
			"Upstream connections re-dialed beneath a live client relay."),
		relayed: reg.Counter("gpsproxy_frames_relayed_total",
			"FIX frames forwarded to clients."),
		relays: reg.Gauge("gpsproxy_relays_active",
			"Client relay connections currently open."),
	}
	urls := make(map[string]string, len(cfg.Nodes))
	for name, addr := range cfg.Nodes {
		p.ring.Add(name)
		urls[name] = strings.TrimSuffix(addr.Admin, "/") + "/healthz"
	}
	p.mon = NewMonitor(urls, cfg.Health)
	p.mon.OnDown = p.failover
	p.mon.OnUp = p.revive
	return p, nil
}

// Monitor exposes the health monitor (status surfaces, tests).
func (p *Proxy) Monitor() *Monitor { return p.mon }

// Run drives the health monitor and the discovery/checkpoint polls
// until ctx ends.
func (p *Proxy) Run(ctx context.Context) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.mon.Run(ctx)
	}()
	t := time.NewTicker(p.cfg.PollInterval)
	defer t.Stop()
	for {
		p.poll(ctx)
		select {
		case <-ctx.Done():
			wg.Wait()
			p.wg.Wait()
			return
		case <-t.C:
		}
	}
}

// poll refreshes session discovery and the checkpoint cache from every
// node currently considered up.
func (p *Proxy) poll(ctx context.Context) {
	for name, addr := range p.cfg.Nodes {
		if !p.mon.Up(name) {
			continue
		}
		p.pollSessions(ctx, name, addr)
		p.pollCheckpoint(ctx, name, addr)
	}
}

func (p *Proxy) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (p *Proxy) pollSessions(ctx context.Context, name string, addr NodeAddr) {
	data, err := p.get(ctx, strings.TrimSuffix(addr.Admin, "/")+"/cluster/sessions")
	if err != nil {
		return
	}
	var body struct {
		Sessions []wire.SessionInfo `json:"sessions"`
	}
	if json.Unmarshal(data, &body) != nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	set := make(map[int]bool, len(body.Sessions))
	for _, si := range body.Sessions {
		set[si.ID] = true
		if si.Head > p.heads[si.ID] {
			p.heads[si.ID] = si.Head
		}
		// Ownership: keep the current owner while it is up and still
		// reporting the session; otherwise this reporter takes it.
		cur, ok := p.owners[si.ID]
		if !ok || cur == name || !p.mon.Up(cur) || !p.hosted[cur][si.ID] {
			p.owners[si.ID] = name
		}
	}
	p.hosted[name] = set
}

func (p *Proxy) pollCheckpoint(ctx context.Context, name string, addr NodeAddr) {
	data, err := p.get(ctx, strings.TrimSuffix(addr.Admin, "/")+"/cluster/checkpoint")
	if err != nil {
		return
	}
	st, err := checkpoint.Decode(data)
	if err != nil || len(st.Sessions) == 0 {
		// An early snapshot before the first refresh interval carries
		// nothing; keep the previous good one.
		return
	}
	p.ckptMu.Lock()
	p.ckpts[name] = st
	p.ckptMu.Unlock()
}

// failover re-homes a dead node's sessions: remove it from the ring,
// group its orphans by the ring's chosen survivors, and hand each
// group the filtered cached checkpoint. The dead node's engines may
// run far apart in epoch, and its checkpoint keeps each engine's
// records at that engine's own epoch, so orphans are also grouped by
// their own record's epoch: a group resumes one past the newest head
// its sessions published, or at that epoch when it is later. A session
// without a record joins the group resuming where it would.
func (p *Proxy) failover(dead string) {
	p.ring.Remove(dead)
	p.ckptMu.Lock()
	ck := p.ckpts[dead]
	p.ckptMu.Unlock()
	recorded := make(map[int]int)
	if ck != nil {
		for _, s := range ck.Sessions {
			recorded[s.Receiver] = s.Epoch
		}
	}

	p.mu.Lock()
	orphans := make([]int, 0, len(p.hosted[dead]))
	for s := range p.hosted[dead] {
		orphans = append(orphans, s)
	}
	sort.Ints(orphans)
	delete(p.hosted, dead)
	type target struct {
		owner string
		from  int // the sessions' record epoch
	}
	groups := make(map[target][]int)
	resume := make(map[target]int)
	for _, s := range orphans {
		owner, ok := p.ring.OwnerSession(s)
		if !ok {
			continue // no survivors; clients keep retrying
		}
		from, ok := recorded[s]
		r := from
		if h, seen := p.heads[s]; seen {
			r = max(r, int(h)+1)
		}
		if !ok {
			from = r
		}
		to := target{owner, from}
		groups[to] = append(groups[to], s)
		resume[to] = max(resume[to], r)
	}
	p.mu.Unlock()

	if p.cfg.Log != nil {
		p.cfg.Log.Warn("node down; re-homing sessions", "node", dead,
			"orphans", orphans, "groups", len(groups), "checkpoint", ck != nil)
	}
	if len(orphans) == 0 {
		return
	}
	p.failovers.Inc()
	for to, ids := range groups {
		p.handoff(to.owner, ids, resume[to], ck)
	}
}

// handoff POSTs one orphan group to its survivor, with retries.
func (p *Proxy) handoff(owner string, ids []int, resume int, ck *checkpoint.State) {
	var body []byte
	if ck != nil {
		if data, err := checkpoint.Encode(ck.Filter(ids)); err == nil {
			body = data
		}
	}
	csv := make([]string, len(ids))
	for i, id := range ids {
		csv[i] = strconv.Itoa(id)
	}
	url := fmt.Sprintf("%s/cluster/handoff?sessions=%s&resume=%d",
		strings.TrimSuffix(p.cfg.Nodes[owner].Admin, "/"), strings.Join(csv, ","), resume)
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		resp, err := p.client.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			continue
		}
		var out RestoreOutcome
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("HTTP %d", resp.StatusCode)
			continue
		}
		if err != nil {
			lastErr = err
			continue
		}
		p.mu.Lock()
		for _, s := range ids {
			p.owners[s] = owner
			if p.hosted[owner] == nil {
				p.hosted[owner] = make(map[int]bool)
			}
			p.hosted[owner][s] = true
		}
		p.mu.Unlock()
		p.handoffsOK.Inc()
		if p.cfg.Log != nil {
			p.cfg.Log.Info("handoff accepted", "survivor", owner, "sessions", ids,
				"resume", resume, "outcome", out.Outcome, "restored", out.Sessions)
		}
		return
	}
	p.handoffsFail.Inc()
	if p.cfg.Log != nil {
		p.cfg.Log.Error("handoff failed", "survivor", owner, "sessions", ids, "err", lastErr)
	}
}

// revive returns a recovered node to the failover ring. Its previously
// hosted sessions stay where they were handed; the node simply becomes
// a target for future failovers (and for any sessions it still
// reports that nobody else took over).
func (p *Proxy) revive(node string) {
	p.ring.Add(node)
	if p.cfg.Log != nil {
		p.cfg.Log.Info("node recovered", "node", node)
	}
}

// route resolves the live owner of a session.
func (p *Proxy) route(session int) (NodeAddr, string, bool) {
	p.mu.Lock()
	owner, ok := p.owners[session]
	p.mu.Unlock()
	if !ok || !p.mon.Up(owner) {
		return NodeAddr{}, "", false
	}
	return p.cfg.Nodes[owner], owner, true
}

// Owners snapshots the session routing table (debug surface).
func (p *Proxy) Owners() map[int]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[int]string, len(p.owners))
	for s, n := range p.owners {
		out[s] = n
	}
	return out
}

// ServeWire accepts binary subscribers on ln and relays each to its
// session's owner until ctx ends.
func (p *Proxy) ServeWire(ctx context.Context, ln net.Listener) error {
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	for {
		conn, err := ln.Accept()
		if err != nil {
			p.wg.Wait()
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.relay(ctx, conn)
		}()
	}
}

// relay serves one client connection: read its SUBSCRIBE, then bridge
// upstream connections beneath it until the client leaves or the retry
// budget is exhausted. lastRelayed tracks the highest FIX epoch
// forwarded; after an upstream failover the proxy resubscribes with it
// and skips replayed epochs the client already decoded.
func (p *Proxy) relay(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	dctx, dcancel := context.WithCancel(ctx)
	defer dcancel()
	stop := context.AfterFunc(dctx, func() { conn.Close() })
	defer stop()

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr := wire.NewFrameReader(conn)
	pl, err := fr.Next()
	if err != nil {
		return
	}
	req, err := wire.DecodeSubscribe(pl)
	if err != nil {
		return
	}
	p.relays.Inc()
	defer p.relays.Dec()

	// Drain the client's read side; EOF tears the relay down.
	go func() {
		conn.SetReadDeadline(time.Time{})
		buf := make([]byte, 256)
		for {
			if _, err := conn.Read(buf); err != nil {
				dcancel()
				return
			}
		}
	}()

	lastRelayed := req.Ack
	failures := 0
	for dctx.Err() == nil {
		addr, owner, ok := p.route(req.Session)
		var progressed bool
		var err error
		if !ok {
			err = fmt.Errorf("no live owner for session %d", req.Session)
		} else {
			progressed, err = p.pipe(dctx, conn, addr, req, &lastRelayed)
			if errors.Is(err, errClientGone) {
				return
			}
		}
		if dctx.Err() != nil {
			return
		}
		if progressed {
			failures = 0
		}
		failures++
		if failures > p.cfg.RetryBudget {
			if lastRelayed == req.Ack {
				// Nothing was ever relayed: answer the resume token
				// explicitly before hanging up, so a client holding a
				// token no node recognizes gets a verdict, not a hang.
				conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
				_, _ = conn.Write(wire.AppendResume(nil, wire.Resume{
					Session: req.Session, Status: wire.StatusUnknown, Head: -1,
				}))
			}
			if p.cfg.Log != nil {
				p.cfg.Log.Warn("relay retry budget exhausted", "session", req.Session, "err", err)
			}
			return
		}
		p.reconnects.Inc()
		if p.cfg.Log != nil {
			p.cfg.Log.Debug("upstream relay retry", "session", req.Session,
				"owner", owner, "attempt", failures, "err", err)
		}
		sleep := p.backoff(failures)
		t := time.NewTimer(sleep)
		select {
		case <-dctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// errClientGone marks a downstream write failure: the client left, so
// the relay must not retry upstream.
var errClientGone = errors.New("cluster: relay client gone")

// backoff returns the full-jitter sleep for consecutive failure n.
func (p *Proxy) backoff(n int) time.Duration {
	max := p.cfg.BackoffBase << uint(n-1)
	if max > p.cfg.BackoffMax || max <= 0 {
		max = p.cfg.BackoffMax
	}
	return time.Duration(rand.Float64() * float64(max))
}

// pipe runs one upstream connection beneath the relay. The dedup rule:
// once any frame beyond the client's original ack has been forwarded,
// frames at or below lastRelayed are skipped — they are bit-identical
// regenerations of frames the client already decoded (the delta chain
// stays consistent because the skipped values equal the client's
// existing chain state). Until then everything is forwarded, so a
// fresh client decoder always sees its chain-priming replay in full.
// A forwarded frame is the verified envelope exactly as read, so
// relaying costs no copy and no second checksum.
func (p *Proxy) pipe(ctx context.Context, down net.Conn, addr NodeAddr,
	req wire.Subscribe, lastRelayed *int64) (progressed bool, err error) {
	d := net.Dialer{Timeout: 2 * time.Second}
	up, err := d.DialContext(ctx, "tcp", addr.Wire)
	if err != nil {
		return false, err
	}
	defer up.Close()
	stop := context.AfterFunc(ctx, func() { up.Close() })
	defer stop()

	if _, err := up.Write(wire.AppendSubscribe(nil, req.Session, *lastRelayed)); err != nil {
		return false, err
	}
	ufr := wire.NewFrameReader(up)
	for {
		pl, err := ufr.Next()
		if err != nil {
			return progressed, err
		}
		switch wire.Kind(pl) {
		case wire.KindResume:
			down.SetWriteDeadline(time.Now().Add(5 * time.Second))
			if _, werr := down.Write(ufr.Frame()); werr != nil {
				return progressed, errClientGone
			}
			progressed = true
		case wire.KindFix:
			_, epoch, _, perr := wire.PeekFix(pl)
			if perr != nil {
				return progressed, perr
			}
			if *lastRelayed > req.Ack && int64(epoch) <= *lastRelayed {
				continue // failover replay the client already decoded
			}
			down.SetWriteDeadline(time.Now().Add(5 * time.Second))
			if _, werr := down.Write(ufr.Frame()); werr != nil {
				return progressed, errClientGone
			}
			if int64(epoch) > *lastRelayed {
				*lastRelayed = int64(epoch)
			}
			progressed = true
			p.relayed.Inc()
		default:
			return progressed, fmt.Errorf("cluster: unexpected upstream frame kind %d", wire.Kind(pl))
		}
	}
}
