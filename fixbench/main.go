// Command fixbench is the repository's benchmark for the fix pipeline.
// It runs one named workload against the engine, wire, scenario and
// core packages, checks the outputs, and prints one JSON result line:
// end-to-end metrics from an untraced run (--trace 0), per-layer metrics
// from a traced run (--trace 1). See README.md for the workloads, the
// metrics and the layer each one belongs to.
//
//	bash fixbench/run.sh --workload catchup-faulted --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
	"unsafe"
)

// setupReps is how many times a run sets the workload up; setup_s is
// the median, and the last instance is measured.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`

	hostFactor float64 // the measured phase's host slowdown (probe.go)
}

// environment is recorded with every result.
type environment struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	// HostFactor and SetupFactor are the measured and set-up phases'
	// host slowdowns against the reference host; Unscaled holds the
	// end-to-end metrics before scaling by them.
	HostFactor  float64            `json:"host_factor,omitempty"`
	SetupFactor float64            `json:"setup_factor,omitempty"`
	Unscaled    map[string]float64 `json:"unscaled,omitempty"`
	Error       string             `json:"error,omitempty"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: catchup-faulted or pregen-solve")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "fixbench"), "directory for the journal, spans and result record")
	flag.Parse()
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "fixbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "fixbench: --seconds must be positive")
		os.Exit(2)
	}
	res, env, err := run(context.Background(), o)
	if env != nil {
		if err != nil {
			env.Error = err.Error()
		}
		line, _ := json.Marshal(map[string]any{"env": env})
		fmt.Println(string(line))
		if res != nil {
			writeRecord(o, env, res)
		}
	}
	if err != nil && !errors.Is(err, errIncorrect) {
		fmt.Fprintln(os.Stderr, "fixbench:", err)
		os.Exit(1)
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "fixbench:", merr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fixbench:", err)
		os.Exit(1)
	}
}

// writeRecord keeps the result with its environment next to the spans.
func writeRecord(o options, env *environment, res *result) {
	b, err := json.MarshalIndent(map[string]any{"env": env, "result": res}, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(o.out, "result-"+o.workload+".json"), b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fixbench: result record:", err)
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// run sets the workload up setupReps times, measures the last instance
// and checks its outputs. An incorrect output returns the result with
// Correct false and an error wrapping errIncorrect.
func run(ctx context.Context, o options) (*result, *environment, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, nil, err
	}
	procs := min(w.procs, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	env := &environment{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(), CPUModel: cpuModel()}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, env, err
	}
	in, err := newInputs(w, o.seed)
	if err != nil {
		return nil, env, err
	}
	base := time.Now()
	var setups, setupProbes []float64
	var r *rig
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
		}
		setupProbes = append(setupProbes, float64(probe()))
		t0 := time.Now()
		r, err = newRig(ctx, in, base, o.out)
		if err != nil {
			return nil, env, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	env.SetupFactor = hostFactor(setupProbes)
	setup := median(setups) / env.SetupFactor
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 0 {
		pr, err := r.measure(ctx, d, false)
		if err != nil {
			return nil, env, err
		}
		res := e2eResult(r, pr, setup)
		env.HostFactor, env.Unscaled = res.hostFactor, unscaled(res, env.SetupFactor)
		return res, env, r.verify(ctx, res, pr)
	}
	pa, err := r.measure(ctx, d/2, false)
	if err != nil {
		return nil, env, err
	}
	ib0 := r.watchedEvents()
	pb, err := r.measure(ctx, d-d/2, true)
	if err != nil {
		return nil, env, err
	}
	ib1 := r.watchedEvents()
	res := e2eResult(r, pb, setup)
	if err := r.verify(ctx, res, pa, pb); err != nil {
		return res, env, err
	}
	res.Metrics = metrics{}
	l, err := r.runLedger(ib0, ib1)
	if err != nil {
		res.Correct = false
		return res, env, fmt.Errorf("%w: %v", errIncorrect, err)
	}
	layerMetrics(res.Metrics, r, pa, pb, l)
	if err := writeSpans(filepath.Join(o.out, "spans-"+w.name+".jsonl"), r, pb, l); err != nil {
		fmt.Fprintln(os.Stderr, "fixbench: spans:", err)
	}
	return res, env, nil
}

// watchedEvents is how many events each watched session has seen; the
// counts before and after the traced phase bound the ledger's timed
// range.
func (r *rig) watchedEvents() []int {
	var out []int
	for _, id := range r.in.w.watched() {
		out = append(out, len(r.rec.watches[id].digests))
	}
	return out
}

// verify runs every correctness check for the phases and marks res.
func (r *rig) verify(ctx context.Context, res *result, phases ...*phaseRun) error {
	fail := func(err error) error {
		res.Correct = false
		return fmt.Errorf("%w: %v", errIncorrect, err)
	}
	for _, pr := range phases {
		if err := checkConservation(pr); err != nil {
			return fail(err)
		}
	}
	for _, id := range r.in.w.watched() {
		wt := r.rec.watches[id]
		ref, err := runReference(ctx, r.in, wt)
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		if err := compareDigests("engine", id, wt.segs, wt.digests, ref.digests); err != nil {
			return fail(err)
		}
		for _, cl := range r.clients {
			if cl.session == id {
				if err := checkDecoded(id, cl.fixes(), ref.decoded); err != nil {
					return fail(err)
				}
			}
		}
	}
	if p95 := res.Metrics["horiz_err_p95_m"].Value; p95 > accuracyLimitM {
		return fail(fmt.Errorf("horizontal error p95 %.1f m exceeds %g m", p95, accuracyLimitM))
	}
	return nil
}

// accuracyLimitM bounds the horizontal error p95 of a correct run: the
// clean scenario sits near 5 m and the faulted one below 20 m, so a
// solver that trades away accuracy fails loudly rather than quietly.
const accuracyLimitM = 50.0

// e2eResult computes the end-to-end metrics of one phase.
func e2eResult(r *rig, pr *phaseRun, setup float64) *result {
	var lat, herr, hep []float64
	delivered := 0
	for i := range pr.shards {
		sr := &pr.shards[i]
		lat = sr.lat.appendTo(lat)
		herr = sr.herr.appendTo(herr)
		hep = sr.hep.appendTo(hep)
		delivered += sr.fixes + sr.coast
	}
	herr = wholeCycles(herr, hep, pr.first, pr.epochs, r.in.w.cycle())
	f := hostFactor(pr.probes)
	m := metrics{}
	lq := capInf(quantiles(lat, 0.5, 0.99), pr)
	m.set("fix_latency_p50_ms", "ms", lq[0]/f)
	m.set("fix_latency_p99_ms", "ms", lq[1]/f)
	share := ratio(float64(delivered), float64(pr.due))
	m.set("fixes_per_s", "1/s", share*median(pr.windowRates())*f)
	m.set("fix_delivered_pct", "%", 100*share)
	m.set("cpu_us_per_fix", "us", ratio(median(pr.windowCPU()), share)/f)
	hq := quantiles(herr, 0.5, 0.95)
	m.set("horiz_err_p50_m", "m", hq[0])
	m.set("horiz_err_p95_m", "m", hq[1])
	m.set("retained_heap_mb", "MB", r.retainedHeapMB())
	m.set("setup_s", "s", setup)
	return &result{Correct: true, Attempted: pr.due, Failed: pr.due - delivered, Metrics: m, hostFactor: f}
}

// wholeCycles keeps the samples of the phase's whole input cycles. The
// faulted workload's error tail comes from its fault windows, and how
// far a run gets depends on the host's speed; counting only complete
// repeats of the program keeps the fault share of the samples fixed.
func wholeCycles(xs, epochs []float64, first, n, cycle int) []float64 {
	if cycle == 0 || n < cycle {
		return xs
	}
	end := float64(first + n/cycle*cycle)
	out := xs[:0]
	for i, x := range xs {
		if epochs[i] < end {
			out = append(out, x)
		}
	}
	return out
}

// unscaled returns the end-to-end metrics as measured, before scaling to
// the reference host (see probe.go).
func unscaled(res *result, setupFactor float64) map[string]float64 {
	out := map[string]float64{}
	for k, m := range res.Metrics {
		switch k {
		case "setup_s":
			out[k] = m.Value * setupFactor
		case "fix_latency_p50_ms", "fix_latency_p99_ms", "cpu_us_per_fix":
			out[k] = m.Value * res.hostFactor
		case "fixes_per_s":
			out[k] = m.Value / res.hostFactor
		default:
			out[k] = m.Value
		}
	}
	return out
}

// windowRates is each window's session-epochs per second.
func (pr *phaseRun) windowRates() []float64 {
	out := make([]float64, len(pr.windows))
	for i, w := range pr.windows {
		out[i] = float64(w.epochs) / (float64(w.wall) / 1e9)
	}
	return out
}

// windowCPU is each window's process CPU per session-epoch, µs.
func (pr *phaseRun) windowCPU() []float64 {
	out := make([]float64, len(pr.windows))
	for i, w := range pr.windows {
		out[i] = float64(w.cpu) / 1e3 / float64(w.epochs)
	}
	return out
}

// retainedHeapMB is the heap still in use after a forced collection,
// less the benchmark's own sample buffers and decoded-fix logs.
func (r *rig) retainedHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	held := r.rec.heldBytes()
	for _, cl := range r.clients {
		cl.mu.Lock()
		held += uint64(cap(cl.got)) * uint64(unsafe.Sizeof(gotFix{}))
		cl.mu.Unlock()
	}
	if held > ms.HeapAlloc {
		held = ms.HeapAlloc
	}
	return float64(ms.HeapAlloc-held) / (1 << 20)
}
