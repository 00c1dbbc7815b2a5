package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
)

// runLedger replays every watched session through the ledger, timing
// the events the traced phase covered ([ib0[j], ib1[j]) of watched
// session j), and checks the ledger produced the engine's fixes byte
// for byte: otherwise it would be timing different work.
func (r *rig) runLedger(ib0, ib1 []int) (*ledger, error) {
	l := &ledger{w: r.in.w, in: r.in, base: r.rec.base}
	l.calibrate()
	for j, id := range r.in.w.watched() {
		wt := r.rec.watches[id]
		got, err := l.replay(id, wt.segs, ib0[j], ib1[j])
		if err != nil {
			return nil, err
		}
		if err := compareDigests("ledger", id, wt.segs, got, wt.digests); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// phaseSeconds is a phase's wall time.
func phaseSeconds(pr *phaseRun) float64 {
	return float64(pr.after.at-pr.before.at) / 1e9
}

// cpuPerEpoch is the process CPU per session-epoch, µs, at reference
// host speed: the median window's, scaled by the phase's host factor.
func cpuPerEpoch(pr *phaseRun) float64 {
	return median(pr.windowCPU()) / hostFactor(pr.probes)
}

// capInf replaces +Inf quantiles (failed epochs) with the phase length.
func capInf(qs []float64, pr *phaseRun) []float64 {
	for i, q := range qs {
		if math.IsInf(q, 1) {
			qs[i] = phaseSeconds(pr) * 1e3
		}
	}
	return qs
}

// layerMetrics fills the per-layer metrics: runtime counts from the
// untraced phase pa, everything else from the traced phase pb and the
// ledger.
func layerMetrics(m metrics, r *rig, pa, pb *phaseRun, l *ledger) {
	w := r.in.w
	due := float64(pb.due)
	perK := func(a, b uint64) float64 { return ratio(float64(b-a)*1000, due) }

	var lat, pub []float64
	var primaryOK, coast int
	for i := range pb.shards {
		sr := &pb.shards[i]
		lat = sr.lat.appendTo(lat)
		pub = sr.pub.appendTo(pub)
		primaryOK += sr.primaryOK
		coast += sr.coast
	}
	sq := capInf(quantiles(lat, 0.5, 0.99), pb)
	m.set("engine.due_to_sink_p50_ms", "ms", sq[0])
	m.set("engine.due_to_sink_p99_ms", "ms", sq[1])
	b, a := pb.before.st, pb.after.st

	// Layer self times per session-epoch. The ledger steps one session
	// alone, so each of its epochs misses the epoch cache; the engine
	// misses once per epoch for all sessions, and its other shards hit.
	misses := float64(pb.after.misses - pb.before.misses)
	hits := float64(pb.after.hits - pb.before.hits)
	sum := 0.0
	for k := 0; k < nLayers; k++ {
		v := ratio(float64(l.tot[k])/1e3, float64(l.events))
		if k == lCache {
			missNS := ratio(float64(l.tot[k]), float64(l.calls[k]))
			hitNS := ratio(float64(l.hitNS), float64(l.hitCalls))
			warmHits := math.Max(float64(pb.epochs*w.shards)-misses, 0)
			v = ratio((missNS*misses+hitNS*warmHits)/1e3, due)
		}
		m.set(layerNames[k]+"_us", "us", v)
		sum += v
	}
	dlg := ratio(float64(l.dlgNS)/1e3, float64(l.dlgCalls))
	nr := ratio(float64(l.nrNS)/1e3, float64(l.nrCalls))
	m.set("core.dlg_solve_us", "us", dlg)
	m.set("core.nr_solve_us", "us", nr)
	m.set("core.theta_dlg_pct", "%", 100*ratio(dlg, nr))

	m.set("epochcache.hit_ratio", "ratio", ratio(hits, hits+misses))
	m.set("epochcache.misses_per_epoch", "count", ratio(misses, float64(pb.epochs)))
	m.set("core.primary_ok_ratio", "ratio", ratio(float64(primaryOK), due))
	m.set("core.fallbacks_per_kfix", "1/kfix", perK(b.Fallbacks, a.Fallbacks))
	m.set("core.raim_exclusions_per_kfix", "1/kfix", perK(b.RAIMExclusions, a.RAIMExclusions))
	m.set("core.coast_ratio", "ratio", ratio(float64(coast), due))
	m.set("fault.events_per_kfix", "1/kfix", perK(b.FaultEvents, a.FaultEvents))

	m.set("journal.bytes_per_fix", "B", ratio(float64(pb.after.jbytes-pb.before.jbytes), due))
	var writes []float64
	if r.jw != nil {
		r.jw.mu.Lock()
		writes = r.jw.writes.appendTo(nil)
		r.jw.mu.Unlock()
	}
	m.set("journal.write_p99_ms", "ms", quantiles(writes, 0.99)[0])

	m.set("wire.bytes_per_fix", "B", ratio(float64(l.wireBytes), float64(l.events)))
	pq := quantiles(pub, 0.5, 0.99)
	m.set("wire.publish_p50_us", "us", pq[0])
	m.set("wire.publish_p99_us", "us", pq[1])
	dq := quantiles(r.deliveries(pb), 0.5, 0.99)
	m.set("wire.deliver_p50_ms", "ms", dq[0])
	m.set("wire.deliver_p99_ms", "ms", dq[1])
	m.set("wire.decode_us", "us", ratio(float64(l.decodeNS)/1e3, float64(l.decodes)))
	m.set("wire.evictions", "count", float64(pb.after.hub.Evicted-pb.before.hub.Evicted))
	m.set("wire.reconnects", "count", float64(pb.after.connect-int64(len(r.clients))))

	aDue := float64(pa.due)
	alloc := float64(pa.after.mem.TotalAlloc-pa.before.mem.TotalAlloc) - float64(pa.after.held) + float64(pa.before.held)
	m.set("runtime.alloc_bytes_per_fix", "B", ratio(math.Max(alloc, 0), aDue))
	m.set("runtime.gc_per_kfix", "1/kfix", ratio(float64(pa.after.mem.NumGC-pa.before.mem.NumGC)*1000, aDue))
	cpu := float64(pa.after.cpu-pa.before.cpu) / 1e9
	m.set("runtime.cpu_util", "ratio", ratio(cpu, phaseSeconds(pa)*float64(runtime.GOMAXPROCS(0))))

	// The ledger ran after the phases, possibly on a differently loaded
	// host: compare the two at reference host speed.
	cpuA := cpuPerEpoch(pa)
	sumRef := sum / hostFactor(l.probes)
	m.set("ledger.sum_us_per_fix", "us", sum)
	m.set("ledger.residual_pct", "%", 100*ratio(cpuA-sumRef, cpuA))
	m.set("trace.overhead_pct", "%", 100*ratio(cpuPerEpoch(pb)-cpuA, cpuA))
}

// deliveries is, for every fix the clients decoded in phase pr, the time
// from Hub.Publish returning to the client holding the decoded fix, ms.
func (r *rig) deliveries(pr *phaseRun) []float64 {
	var out []float64
	for _, cl := range r.clients {
		wt := r.rec.watches[cl.session]
		for _, g := range cl.fixes() {
			if pe, ok := wt.pubEnd[int(g.f.Epoch)]; ok && int(g.f.Epoch) >= pr.first {
				out = append(out, float64(g.at-pe)/1e6)
			}
		}
	}
	return out
}

// writeSpans writes the traced phase's spans as JSON lines: the
// engine-boundary spans of the watched sessions, the clients'
// delivery spans and the ledger's layer spans.
func writeSpans(path string, r *rig, pb *phaseRun, l *ledger) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	put := func(s span) {
		fmt.Fprintf(bw, `{"session":%d,"epoch":%d,"name":%q,"parent":%q,"start_ns":%d,"dur_ns":%d}`+"\n",
			s.session, s.epoch, s.name, s.parent, s.start, s.dur)
	}
	for i := range pb.shards {
		for _, s := range pb.shards[i].spans {
			put(s)
		}
	}
	for _, cl := range r.clients {
		wt := r.rec.watches[cl.session]
		for _, g := range cl.fixes() {
			if pe, ok := wt.pubEnd[int(g.f.Epoch)]; ok {
				put(span{name: "wire.deliver", parent: "wire.publish", session: cl.session,
					epoch: int(g.f.Epoch), start: pe, dur: g.at - pe})
			}
		}
	}
	for _, s := range l.spans {
		put(s)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
