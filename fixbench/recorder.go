package main

import (
	"math"
	"time"

	"gpsdl/internal/engine"
	"gpsdl/internal/geo"
	"gpsdl/internal/scenario"
	"gpsdl/internal/wire"
)

// maxSpanFixes caps how many fixes per run keep their spans (the layer
// totals still cover every fix), so the span file stays a few MB.
const maxSpanFixes = 4000

// span is one timed region of one fix. All spans of a fix share its id,
// (session, epoch). Parent names the span that caused this one.
type span struct {
	name, parent   string
	session, epoch int
	start, dur     int64 // ns since the run's clock base
}

// seg is a half-open range of epochs a session processed, in order.
type seg struct{ e0, e1 int }

// watch follows one watched session through every epoch the engine
// steps it, set-up included: the epoch ranges it processed (so a
// reference engine and the ledger can replay exactly that sequence) and
// a digest of each fix's GGA, RMC and wire frame. Only the session's
// shard goroutine writes it.
type watch struct {
	recv    int
	segs    []seg
	digests []uint64
	enc     wire.FixEncoder
	frame   []byte

	// pubEnd maps epoch → time the traced phase's Hub.Publish returned.
	pubEnd map[int]int64
}

func newWatch(recv, keyframeEvery int) *watch {
	return &watch{recv: recv, enc: wire.FixEncoder{KeyframeEvery: keyframeEvery}, pubEnd: map[int]int64{}}
}

// observe extends the processed ranges and digests the fix.
func (w *watch) observe(e *engine.FixEvent) {
	if n := len(w.segs); n > 0 && w.segs[n-1].e1 == e.Epoch {
		w.segs[n-1].e1++
	} else {
		w.segs = append(w.segs, seg{e.Epoch, e.Epoch + 1})
	}
	f := e.Wire()
	w.frame, _ = w.enc.AppendFix(w.frame[:0], &f)
	w.digests = append(w.digests, fixDigest(e.Epoch, e.GGA, e.RMC, w.frame))
}

// fixDigest hashes one fix's externally visible output (FNV-1a, inline
// so the sink allocates nothing for it).
func fixDigest(epoch int, gga, rmc, frame []byte) uint64 {
	h := uint64(14695981039346656037)
	add := func(b []byte) {
		for _, c := range b {
			h = (h ^ uint64(c)) * 1099511628211
		}
	}
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(epoch>>(8*i)))) * 1099511628211
	}
	add(gga)
	add(rmc)
	add(frame)
	return h
}

// phase is one measured interval. The main goroutine installs it before
// starting a run and reads the shard records after the run returns; the
// engine's goroutine start and WaitGroup order the accesses.
type phase struct {
	traced bool
}

// shardRec is what one shard goroutine records through the sink.
type shardRec struct {
	// An epoch is due when its shard finished the previous one (or when
	// the chunk was dispatched).
	cur      int
	curDue   int64
	prevDone int64

	events, fixes, coast, errs, primaryOK int

	lat   series // due → sink, ms (+Inf for a failed epoch)
	herr  series // horizontal error of delivered fixes, m
	hep   series // epoch of each herr sample
	pub   series // Hub.Publish duration, µs (traced)
	spans []span

	_ [64]byte // keep shards off each other's cache lines
}

// recorder is the engine sink: it stamps every fix event, measures its
// horizontal error against the scenario truth, publishes it to the hub
// and follows the watched sessions.
type recorder struct {
	base    time.Time
	hub     *wire.Hub
	truth   []*scenario.Generator
	frames  []geo.ENUFrame
	origins []geo.ECEF
	watches map[int]*watch
	shards  []shardRec
	ph      *phase
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) sink(e engine.FixEvent) {
	now := r.now()
	if w := r.watches[e.Receiver]; w != nil {
		w.observe(&e)
	}
	if r.ph == nil {
		// Set-up (warm-up): publish only.
		if r.hub != nil {
			f := e.Wire()
			r.hub.Publish(&f)
		}
		return
	}
	ph := r.ph
	sr := &r.shards[e.Shard]
	if e.Epoch != sr.cur {
		sr.cur, sr.curDue = e.Epoch, sr.prevDone
	}
	due := sr.curDue
	sr.events++
	if e.Err != nil {
		sr.errs++
		sr.lat.add(math.Inf(1))
	} else {
		sr.lat.add(float64(now-due) / 1e6)
		if e.Coast {
			sr.coast++
		} else {
			sr.fixes++
			if e.Solver == primarySolver && e.Excluded < 0 && !e.Suspect {
				sr.primaryOK++
			}
		}
		sr.herr.add(r.horizErr(e.Receiver, e.T, e.Sol.Pos))
		sr.hep.add(float64(e.Epoch))
	}
	if r.hub != nil {
		f := e.Wire()
		if ph.traced {
			t0 := r.now()
			r.hub.Publish(&f)
			t1 := r.now()
			sr.pub.add(float64(t1-t0) / 1e3)
			if w := r.watches[e.Receiver]; w != nil {
				w.pubEnd[e.Epoch] = t1
				if len(sr.spans) < 2*maxSpanFixes {
					sr.spans = append(sr.spans, span{name: "wire.publish", parent: "engine.sink",
						session: e.Receiver, epoch: e.Epoch, start: t0, dur: t1 - t0})
				}
			}
		} else {
			r.hub.Publish(&f)
		}
	}
	end := r.now()
	if ph.traced && r.watches[e.Receiver] != nil && len(sr.spans) < 2*maxSpanFixes {
		sr.spans = append(sr.spans, span{name: "engine.sink", parent: "engine.dispatch",
			session: e.Receiver, epoch: e.Epoch, start: due, dur: end - due})
	}
	sr.prevDone = end
}

// horizErr is the horizontal distance of pos from the receiver's truth
// position at time t.
func (r *recorder) horizErr(recv int, t float64, pos geo.ECEF) float64 {
	truth := r.truth[recv].TruthPosition(t)
	if truth != r.origins[recv] {
		// Only a moving receiver gets here; its frame follows it.
		r.origins[recv] = truth
		r.frames[recv] = geo.NewENUFrame(truth)
	}
	d := r.frames[recv].ToENU(pos)
	return math.Hypot(d.E, d.N)
}

// beginChunk marks every shard free at t; a closed-loop run's next
// epoch on each shard is due then.
func (r *recorder) beginChunk(t int64) {
	for i := range r.shards {
		r.shards[i].cur, r.shards[i].prevDone = -1, t
	}
}

// heldBytes is the memory the recorder's sample buffers keep alive.
func (r *recorder) heldBytes() uint64 {
	var n uint64
	for _, w := range r.watches {
		n += uint64(cap(w.digests))*8 + uint64(cap(w.segs))*16
	}
	for i := range r.shards {
		sr := &r.shards[i]
		n += sr.lat.heldBytes() + sr.herr.heldBytes() + sr.hep.heldBytes() + sr.pub.heldBytes()
		n += uint64(cap(sr.spans)) * 64
	}
	return n
}
