package main

import (
	"fmt"
	"math"
	"sort"

	"gpsdl/internal/fault"
	"gpsdl/internal/scenario"
)

// workload is one named input set. The load is generated inside this
// process: GOMAXPROCS is capped at procs (and at nproc), and at most
// clients loopback connections are opened. Both workloads are closed
// loops: Engine.RunRange back to back.
type workload struct {
	name string

	procs     int // GOMAXPROCS cap
	receivers int
	shards    int

	// warmup epochs run during set-up, before anything is timed: the
	// clock predictors calibrate over the first 60.
	warmup int
	// chunk is how many live epochs one RunRange call covers. pregen > 0
	// instead pregenerates warmup+pregen epochs per receiver and replays
	// the window [warmup, warmup+pregen) in passes.
	chunk  int
	pregen int

	quality, journal, weighting, disruption, faults bool
	// clients > 0 publishes every fix event to a wire.Hub, serves it on
	// loopback and subscribes that many clients.
	clients int
	// checkpointEvery refreshes the engine's checkpoint cells and sets
	// the hub keyframe block, as gpsserve -wire does.
	checkpointEvery int
}

// faultPeriod is the length of one repeat of the fault program. Each
// repeat holds a step, a burst, a 2-satellite spoof and a shrink window,
// so a run of any length sees about the same mix of clean and faulted
// epochs.
const faultPeriod = 2500

// faultRepeats bounds the program: the injector scans every clause for
// every observation, so a longer program would make fault.apply cost
// grow with the benchmark's horizon rather than with the faults. A run
// that reaches the end of the program stops early; six repeats cover
// about 10 s of catch-up on 2 quiet cores.
const faultRepeats = 6

// cycle is the length in epochs of one repeat of the workload's inputs
// (0 when they do not repeat).
func (w *workload) cycle() int {
	if !w.faults {
		return 0
	}
	return faultPeriod
}

// horizon is the first epoch past the workload's inputs: the end of the
// fault program, or unbounded.
func (w *workload) horizon() int {
	if !w.faults {
		return math.MaxInt
	}
	return w.warmup + faultRepeats*faultPeriod
}

// workloads are the benchmark's input sets; README.md gives the reason
// for each.
var workloads = []*workload{
	{
		name:  "catchup-faulted",
		procs: 2, receivers: 64, shards: 2,
		warmup: 120, chunk: 128,
		quality: true, journal: true, weighting: true, disruption: true, faults: true,
		clients: 2, checkpointEvery: 100,
	},
	{
		name:  "pregen-solve",
		procs: 1, receivers: 32, shards: 1,
		warmup: 120, pregen: 512,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// watched lists the receivers whose fixes are checked, traced and
// replayed by the ledger: the last session on each shard, so a watched
// fix waits for its whole shard's epoch.
func (w *workload) watched() []int {
	out := make([]int, 0, w.shards)
	for s := 0; s < w.shards; s++ {
		last := s
		for r := s; r < w.receivers; r += w.shards {
			last = r
		}
		out = append(out, last)
	}
	sort.Ints(out)
	return out
}

// faultProgram builds the faulted workload's program. Window placement
// is fixed, so every seed carries the same fault load; the seed reaches
// the faults through the burst noise (Config.FaultSeed) and the
// measurement noise they act on. The step targets, per repeat, the
// satellite that most stations see when the window opens, so the step
// does reach RAIM.
func faultProgram(warmup int) (fault.Program, error) {
	var gens []*scenario.Generator
	for _, st := range scenario.Table51Stations() {
		cfg := scenario.DefaultConfig(1)
		cfg.CodeOnly = true
		gens = append(gens, scenario.NewGenerator(st, cfg))
	}
	var p fault.Program
	for k := 0; k < faultRepeats; k++ {
		base := warmup + k*faultPeriod
		b := float64(base)
		prn, err := commonPRN(gens, b+100)
		if err != nil {
			return nil, err
		}
		p = append(p,
			fault.Clause{Kind: fault.KindStep, PRN: prn, Bias: 60, From: b + 100, Until: b + 400},
			fault.Clause{Kind: fault.KindBurst, Sigma: 12, From: b + 500, Until: b + 620},
			fault.Clause{Kind: fault.KindSpoof, N: 2, Bias: 200, From: b + 800, Until: b + 980},
			fault.Clause{Kind: fault.KindShrink, N: 3, From: b + 1200, Until: b + 1260},
		)
	}
	return p, nil
}

// commonPRN returns the PRN visible from the most stations at time t
// (lowest PRN on ties).
func commonPRN(gens []*scenario.Generator, t float64) (int, error) {
	seen := map[int]int{}
	for _, g := range gens {
		ep, err := g.EpochAt(t)
		if err != nil {
			return 0, fmt.Errorf("fault program: %w", err)
		}
		for _, o := range ep.Obs {
			seen[o.PRN]++
		}
	}
	best, bestN := 0, -1
	for prn, n := range seen {
		if n > bestN || (n == bestN && prn < best) {
			best, bestN = prn, n
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("fault program: no satellite visible at t=%g", t)
	}
	return best, nil
}
