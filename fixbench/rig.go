package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gpsdl/internal/engine"
	"gpsdl/internal/fault"
	"gpsdl/internal/geo"
	"gpsdl/internal/scenario"
	"gpsdl/internal/telemetry"
	"gpsdl/internal/wire"
)

// inputs is everything a workload's program receives, generated from
// the seed before set-up.
type inputs struct {
	w      *workload
	seed   int64
	faults fault.Program
}

func newInputs(w *workload, seed int64) (*inputs, error) {
	in := &inputs{w: w, seed: seed}
	if w.faults {
		p, err := faultProgram(w.warmup)
		if err != nil {
			return nil, err
		}
		in.faults = p
	}
	return in, nil
}

// engineConfig is the engine configuration the workload runs (the sink
// and journal are the caller's).
func (in *inputs) engineConfig(sink engine.FixSink) engine.Config {
	w := in.w
	cfg := engine.Config{
		Receivers:       w.receivers,
		Workers:         w.shards,
		Seed:            in.seed,
		FaultSeed:       in.seed,
		Faults:          in.faults,
		Weighting:       w.weighting,
		Disruption:      w.disruption,
		CheckpointEvery: w.checkpointEvery,
		Registry:        telemetry.NewRegistry(),
		Sink:            sink,
	}
	if w.quality {
		cfg.Quality = &engine.QualityConfig{}
	}
	return cfg
}

// keyframeEvery is the hub's keyframe block (gpsserve -wire ties it to
// the checkpoint cadence).
func (w *workload) keyframeEvery() int {
	if w.checkpointEvery > 0 {
		return w.checkpointEvery
	}
	return wire.DefaultKeyframeEvery
}

// countingWriter wraps the journal file: it counts bytes and, while
// timing is on, records how long each write took. It forwards Sync so
// the journal keeps its background fsync, as gpsserve -journal does.
type countingWriter struct {
	f      *os.File
	bytes  atomic.Uint64
	timing atomic.Bool
	mu     sync.Mutex
	writes series // ms
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if !c.timing.Load() {
		n, err := c.f.Write(p)
		c.bytes.Add(uint64(n))
		return n, err
	}
	t0 := time.Now()
	n, err := c.f.Write(p)
	d := time.Since(t0)
	c.bytes.Add(uint64(n))
	c.mu.Lock()
	c.writes.add(float64(d) / 1e6)
	c.mu.Unlock()
	return n, err
}

func (c *countingWriter) Sync() error { return c.f.Sync() }

// client is one loopback wire subscriber and what it decoded.
type client struct {
	session  int
	c        *wire.Client
	connects atomic.Int64
	done     chan struct{}

	mu  sync.Mutex
	got []gotFix
}

type gotFix struct {
	f  wire.Fix
	at int64 // ns since the recorder's clock base
}

func (c *client) fixes() []gotFix {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]gotFix(nil), c.got...)
}

// rig is one set-up instance of a workload: engine, hub, listener and
// clients, warmed up and ready to measure.
type rig struct {
	in   *inputs
	eng  *engine.Engine
	reg  *telemetry.Registry
	rec  *recorder
	jw   *countingWriter
	next int // next epoch a run starts at

	srvCancel context.CancelFunc
	srvDone   chan error
	clients   []*client
}

// newRig builds and warms one instance. dir receives the journal file.
func newRig(ctx context.Context, in *inputs, base time.Time, dir string) (_ *rig, err error) {
	w := in.w
	r := &rig{in: in}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	rec := &recorder{base: base, watches: map[int]*watch{}}
	rec.shards = make([]shardRec, w.shards)
	for _, id := range w.watched() {
		rec.watches[id] = newWatch(id, w.keyframeEvery())
	}
	stations := scenario.Table51Stations()
	for id := 0; id < w.receivers; id++ {
		g := scenario.NewGenerator(stations[id%len(stations)], scenario.DefaultConfig(sessionSeed(in.seed, id)))
		rec.truth = append(rec.truth, g)
		p := g.TruthPosition(0)
		rec.origins = append(rec.origins, p)
		rec.frames = append(rec.frames, geo.NewENUFrame(p))
	}
	r.rec = rec
	if w.clients > 0 {
		rec.hub = wire.NewHub(wire.HubConfig{KeyframeEvery: w.keyframeEvery()})
	}
	cfg := in.engineConfig(rec.sink)
	r.reg = cfg.Registry
	if w.journal {
		f, err := os.Create(filepath.Join(dir, "journal-"+w.name+".gpsj"))
		if err != nil {
			return r, fmt.Errorf("journal: %w", err)
		}
		r.jw = &countingWriter{f: f}
		cfg.JournalSink = r.jw
	}
	if r.eng, err = engine.New(cfg); err != nil {
		return r, err
	}
	if w.pregen > 0 {
		if err := r.eng.Pregenerate(w.warmup + w.pregen); err != nil {
			return r, err
		}
		if err := r.eng.RunRange(ctx, 0, w.warmup); err != nil {
			return r, err
		}
	} else if err := r.eng.FastForward(ctx, w.warmup); err != nil {
		return r, err
	}
	r.next = w.warmup
	if w.clients > 0 {
		if err := r.serve(ctx); err != nil {
			return r, err
		}
	}
	return r, nil
}

// primarySolver is the engine default solver's name as FixEvent reports
// it (the O(m) DLG route).
const primarySolver = "DLG-fast"

// serve starts the wire server on loopback and subscribes the clients
// to the watched sessions, returning once each has caught up with its
// session's head.
func (r *rig) serve(ctx context.Context) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("wire listen: %w", err)
	}
	sctx, cancel := context.WithCancel(ctx)
	r.srvCancel = cancel
	r.srvDone = make(chan error, 1)
	srv := &wire.Server{Hub: r.rec.hub}
	go func() { r.srvDone <- srv.Serve(sctx, ln) }()
	for _, id := range r.in.w.watched()[:r.in.w.clients] {
		cl := &client{session: id, done: make(chan struct{})}
		cl.c = wire.DialSession(ctx, wire.ClientConfig{
			Addr: ln.Addr().String(), Session: id, Resume: -1,
			OnEvent: func(ev wire.ClientEvent) {
				if ev.Kind == "connect" {
					cl.connects.Add(1)
				}
			},
		})
		go func() {
			defer close(cl.done)
			for f := range cl.c.Fixes() {
				at := r.rec.now()
				cl.mu.Lock()
				cl.got = append(cl.got, gotFix{f: f, at: at})
				cl.mu.Unlock()
			}
		}()
		r.clients = append(r.clients, cl)
	}
	return r.catchUp(5 * time.Second)
}

// catchUp waits until every client has decoded its session's latest
// published epoch.
func (r *rig) catchUp(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, cl := range r.clients {
		for cl.c.LastDelivered() < r.rec.hub.Head(cl.session) {
			if time.Now().After(deadline) {
				return fmt.Errorf("client for session %d stuck at epoch %d (head %d)",
					cl.session, cl.c.LastDelivered(), r.rec.hub.Head(cl.session))
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// close stops everything the rig started and waits for it.
func (r *rig) close() {
	for _, cl := range r.clients {
		cl.c.Close()
		<-cl.done
	}
	if r.srvCancel != nil {
		r.srvCancel()
		<-r.srvDone
	}
	if r.rec != nil && r.rec.hub != nil {
		r.rec.hub.Shutdown()
	}
	if r.eng != nil && r.eng.Journal() != nil {
		_ = r.eng.Journal().Close() // the journal is scratch output
	}
	if r.jw != nil {
		_ = r.jw.f.Close()
		_ = os.Remove(r.jw.f.Name())
	}
}

// snap is the state a phase is measured between.
type snap struct {
	at      int64
	cpu     time.Duration
	st      engine.Stats
	mem     runtime.MemStats
	held    uint64
	hub     wire.HubStats
	jbytes  uint64
	hits    uint64
	misses  uint64
	connect int64
}

func (r *rig) snapshot() snap {
	s := snap{at: r.rec.now(), cpu: cpuTime(), st: r.eng.Stats(), held: r.rec.heldBytes()}
	runtime.ReadMemStats(&s.mem)
	if r.rec.hub != nil {
		s.hub = r.rec.hub.Stats()
	}
	if r.jw != nil {
		s.jbytes = r.jw.bytes.Load()
	}
	s.hits = r.reg.Counter("epoch_cache_hits_total", "").Value()
	s.misses = r.reg.Counter("epoch_cache_misses_total", "").Value()
	for _, cl := range r.clients {
		s.connect += cl.connects.Load()
	}
	return s
}

// window is one RunRange call (a chunk, or a pass over the pregenerated
// epochs). Throughput and CPU per fix are reported as medians over
// windows, so a stall that hits one window (another tenant, a long GC
// cycle) does not move the run's figure.
type window struct {
	epochs int   // session-epochs dispatched
	wall   int64 // ns
	cpu    time.Duration
}

// phaseRun is one measured phase's raw outcome.
type phaseRun struct {
	ph      *phase
	windows []window
	probes  []float64 // probe times, ns (see probe.go)
	before  snap
	after   snap
	first   int // first epoch of the phase
	epochs  int // epochs dispatched per session
	due     int // session-epochs due
	shards  []shardRec
}

// measure runs the workload for d: RunRange back to back, chunk epochs
// at a time (or one pass over the pregenerated window at a time), until
// d has passed or the workload's inputs run out.
func (r *rig) measure(ctx context.Context, d time.Duration, traced bool) (*phaseRun, error) {
	w := r.in.w
	for i := range r.rec.shards {
		r.rec.shards[i] = shardRec{cur: -1}
	}
	if r.jw != nil {
		r.jw.timing.Store(traced)
	}
	pr := &phaseRun{ph: &phase{traced: traced}, first: r.next}
	pr.before = r.snapshot()
	r.rec.ph = pr.ph
	end := r.rec.now() + int64(d)
	for r.rec.now() < end {
		e0, e1 := r.next, r.next+w.chunk
		if w.pregen > 0 {
			e0, e1 = w.warmup, w.warmup+w.pregen
		} else if e1 > w.horizon() {
			break
		}
		pr.probes = append(pr.probes, float64(probe()))
		w0, c0 := r.rec.now(), cpuTime()
		r.rec.beginChunk(w0)
		if err := r.eng.RunRange(ctx, e0, e1); err != nil {
			return nil, err
		}
		pr.windows = append(pr.windows, window{epochs: (e1 - e0) * w.receivers, wall: r.rec.now() - w0, cpu: cpuTime() - c0})
		pr.epochs += e1 - e0
		if w.pregen == 0 {
			r.next = e1
		}
	}
	r.rec.ph = nil
	if len(r.clients) > 0 {
		if err := r.catchUp(5 * time.Second); err != nil {
			// Fixes the clients never decode show in the checks and the
			// wire metrics, not as a crash.
			fmt.Fprintln(os.Stderr, "fixbench:", err)
		}
	}
	pr.after = r.snapshot()
	pr.shards = append([]shardRec(nil), r.rec.shards...)
	if r.jw != nil {
		r.jw.timing.Store(false)
	}
	pr.due = pr.epochs * w.receivers
	return pr, nil
}

// errIncorrect marks a run whose outputs failed a correctness check.
var errIncorrect = errors.New("incorrect output")
