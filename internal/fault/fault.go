// Package fault is a deterministic, seedable fault injector for scenario
// epoch streams. It applies composable fault programs — per-satellite
// dropout windows, pseudo-range step and ramp biases, multipath bursts,
// receiver clock jumps, and constellation shrink-to-N — to the
// observations of each epoch, logging every application as an Event so a
// run is byte-replayable: the same (program, seed, epoch stream) always
// yields the same faulted observations and the same event log, regardless
// of evaluation order or worker count.
//
// The injector sits between scenario generation and the solvers, which is
// where real degradations enter a receiver: the tracking loops lose a
// satellite (dropout), a reflection biases one code measurement (step /
// ramp / burst), the oscillator is slewed (clock jump), or an occlusion
// leaves too few satellites in view (shrink). Everything downstream —
// RAIM exclusion, solver fallback, clock-reset recovery, coasting — is
// exercised against these programs by internal/engine and the gpsbench
// fault sweep.
package fault

import (
	"fmt"
	"math"

	"gpsdl/internal/core"
	"gpsdl/internal/geo"
	"gpsdl/internal/rng"
	"gpsdl/internal/scenario"
)

// Kind identifies a fault clause type.
type Kind uint8

// Fault kinds.
const (
	// KindDrop removes the target satellite's observation during the
	// window (a tracking-loop dropout).
	KindDrop Kind = iota + 1
	// KindStep adds a constant bias to the target pseudo-range during the
	// window (a multipath or ephemeris step error).
	KindStep
	// KindRamp adds a linearly growing bias Rate·(t−From) to the target
	// pseudo-range (a slowly diverging channel).
	KindRamp
	// KindBurst adds zero-mean Gaussian noise of the given sigma to every
	// pseudo-range during the window (a wideband multipath burst). Draws
	// are a pure function of (seed, PRN, t), independent of order.
	KindBurst
	// KindClockJump adds c·Bias to every pseudo-range from time From on —
	// exactly what a receiver clock step of Bias seconds does to the
	// measured code phases. This is the clock predictor's reset path.
	KindClockJump
	// KindShrink truncates the epoch to its N highest-elevation
	// satellites during the window (an occlusion shrinking the visible
	// constellation, possibly below the 4 a solver needs).
	KindShrink
	// KindPanic panics (with an InjectedPanic value) on every epoch in
	// the window, before any observation is produced. It models a
	// software fault in the per-receiver pipeline rather than a signal
	// fault, and exists so the engine supervisor's panic isolation can be
	// driven through the same deterministic spec grammar as every other
	// fault. Outside a supervised engine the panic propagates.
	KindPanic
	// KindSpoof adds a coherent Bias to the N highest-elevation
	// satellites simultaneously (a meaconing/spoofing attack repeating
	// several strong signals with a common delay). With N ≥ 2 the attack
	// defeats single-satellite RAIM exclusion — the identification loop
	// assumes one fault — which is exactly the regime residual-based
	// down-weighting still handles.
	KindSpoof
	// KindJam adds zero-mean Gaussian noise of the given Sigma to every
	// pseudo-range and degrades each reported C/N0 consistently (to the
	// value implied by the combined noise power), modeling a wideband
	// jammer raising the receiver noise floor. Honest C/N0-driven
	// weighting sees the degradation; unweighted solvers only see the
	// extra scatter.
	KindJam
)

// String returns the spec keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindStep:
		return "step"
	case KindRamp:
		return "ramp"
	case KindBurst:
		return "burst"
	case KindClockJump:
		return "clockjump"
	case KindShrink:
		return "shrink"
	case KindPanic:
		return "panic"
	case KindSpoof:
		return "spoof"
	case KindJam:
		return "jam"
	default:
		return "unknown"
	}
}

// Clause is one element of a fault program. The zero PRN targets every
// satellite (only meaningful for step/ramp; drop uses it rarely). The
// active window is [From, Until); Until = +Inf means "for the rest of the
// run".
type Clause struct {
	Kind Kind
	// PRN targets one satellite (0 = all) for drop/step/ramp.
	PRN int
	// From and Until bound the active window [From, Until) in receiver
	// seconds.
	From, Until float64
	// Bias is the step magnitude: meters for KindStep, seconds for
	// KindClockJump.
	Bias float64
	// Rate is the ramp slope in m/s (KindRamp).
	Rate float64
	// Sigma is the added noise standard deviation in meters (KindBurst,
	// KindJam).
	Sigma float64
	// N is the shrink target satellite count (KindShrink) or the number
	// of spoofed satellites (KindSpoof).
	N int
}

// active reports whether the clause applies at time t.
func (c Clause) active(t float64) bool {
	return t >= c.From && (math.IsInf(c.Until, 1) || t < c.Until)
}

// Program is an ordered list of fault clauses. Clauses compose: each
// epoch first resolves dropouts and shrink, then applies the bias terms
// to the surviving observations, in clause order.
type Program []Clause

// Scale returns a copy of the program scaled by intensity s: bias, ramp
// rate and burst sigma are multiplied by s, and dropout/shrink windows
// keep their start but have their duration multiplied by s, so s = 0
// disables every clause and s = 1 is the program as written. Infinite
// windows stay infinite for s > 0. This is the x-axis of the gpsbench
// fault sweep.
func (p Program) Scale(s float64) Program {
	if s <= 0 {
		return nil
	}
	out := make(Program, len(p))
	copy(out, p)
	for i := range out {
		c := &out[i]
		switch c.Kind {
		case KindStep, KindClockJump, KindSpoof:
			c.Bias *= s
		case KindRamp:
			c.Rate *= s
		case KindBurst, KindJam:
			c.Sigma *= s
		case KindDrop, KindShrink, KindPanic:
			if !math.IsInf(c.Until, 1) {
				c.Until = c.From + (c.Until-c.From)*s
			}
		}
	}
	return out
}

// Event is one logged fault application: at epoch time T, clause kind
// Kind touched satellite PRN (0 when the clause is not per-satellite)
// and changed its pseudo-range by Delta meters (0 for drops; the number
// of removed satellites for shrink).
type Event struct {
	T     float64 `json:"t"`
	Kind  Kind    `json:"kind"`
	PRN   int     `json:"prn"`
	Delta float64 `json:"delta"`
}

// Injector applies a program to epochs. It is stateless between calls
// (every output is a pure function of program, seed and the input
// epoch), so one injector may be shared by sequential callers; the
// convenience with-allocation methods are safe anywhere.
type Injector struct {
	prog Program
	seed int64
}

// NewInjector builds an injector for the program. The seed drives the
// burst noise stream; the same (program, seed) pair always produces
// identical faults.
func NewInjector(prog Program, seed int64) *Injector {
	owned := make(Program, len(prog))
	copy(owned, prog)
	return &Injector{prog: owned, seed: seed}
}

// Apply filters and perturbs one epoch's observations into dst (reused;
// pass dst[:0]) and appends one Event per fault application to ev,
// returning both. The input slice is never modified. Event order is
// deterministic: survivors in input order for drops and shrink, then
// clause order × observation order for the bias terms.
func (in *Injector) Apply(t float64, obs []scenario.SatObs, dst []scenario.SatObs, ev []Event) ([]scenario.SatObs, []Event) {
	// The clauses active at t, in program order, collected once: every
	// pass below walks this list instead of re-testing the whole program
	// per observation. A program with more active clauses than the
	// buffer holds spills to the heap.
	var buf [16]*Clause
	active := buf[:0]
	for i := range in.prog {
		c := &in.prog[i]
		if !c.active(t) {
			continue
		}
		// Pass 0: injected software faults. These abort the step before
		// any observation is produced, so they log no Event here — the
		// recovering supervisor accounts for them instead.
		if c.Kind == KindPanic {
			panic(InjectedPanic{T: t})
		}
		active = append(active, c)
	}
	// Pass 1: dropouts.
	for i := range obs {
		if dropped(active, obs[i].PRN) {
			ev = append(ev, Event{T: t, Kind: KindDrop, PRN: obs[i].PRN})
		} else {
			dst = append(dst, obs[i])
		}
	}
	// Pass 2: shrink-to-N (observations arrive sorted by descending
	// elevation, so keeping a prefix keeps the best geometry).
	for _, c := range active {
		if c.Kind != KindShrink {
			continue
		}
		if n := c.N; n >= 0 && n < len(dst) {
			removed := len(dst) - n
			dst = dst[:n]
			ev = append(ev, Event{T: t, Kind: KindShrink, Delta: float64(removed)})
		}
	}
	// Pass 3: bias terms on the survivors.
	for _, c := range active {
		switch c.Kind {
		case KindStep:
			for i := range dst {
				if c.PRN == 0 || c.PRN == dst[i].PRN {
					dst[i].Pseudorange += c.Bias
					ev = append(ev, Event{T: t, Kind: KindStep, PRN: dst[i].PRN, Delta: c.Bias})
				}
			}
		case KindRamp:
			delta := c.Rate * (t - c.From)
			for i := range dst {
				if c.PRN == 0 || c.PRN == dst[i].PRN {
					dst[i].Pseudorange += delta
					ev = append(ev, Event{T: t, Kind: KindRamp, PRN: dst[i].PRN, Delta: delta})
				}
			}
		case KindBurst:
			for i := range dst {
				delta := c.Sigma * gauss(in.seed, dst[i].PRN, t)
				dst[i].Pseudorange += delta
				ev = append(ev, Event{T: t, Kind: KindBurst, PRN: dst[i].PRN, Delta: delta})
			}
		case KindClockJump:
			delta := geo.SpeedOfLight * c.Bias
			for i := range dst {
				dst[i].Pseudorange += delta
			}
			// One event per epoch: the jump is a receiver-wide effect,
			// not a per-satellite one.
			ev = append(ev, Event{T: t, Kind: KindClockJump, Delta: delta})
		case KindSpoof:
			// Observations arrive sorted by descending elevation, so the
			// prefix is the N strongest (most attack-worthy) satellites.
			n := c.N
			if n > len(dst) {
				n = len(dst)
			}
			for i := 0; i < n; i++ {
				dst[i].Pseudorange += c.Bias
				ev = append(ev, Event{T: t, Kind: KindSpoof, PRN: dst[i].PRN, Delta: c.Bias})
			}
		case KindJam:
			for i := range dst {
				delta := c.Sigma * gauss(in.seed^jamStreamTag, dst[i].PRN, t)
				dst[i].Pseudorange += delta
				if cn0 := dst[i].CN0; cn0 > 0 {
					// Report the C/N0 implied by the raised noise floor:
					// the pre-jam σ combined with the jammer's σ in power.
					s0 := core.SigmaFromCN0(cn0)
					dst[i].CN0 = core.CN0FromSigma(math.Sqrt(s0*s0 + c.Sigma*c.Sigma))
				}
				ev = append(ev, Event{T: t, Kind: KindJam, PRN: dst[i].PRN, Delta: delta})
			}
		}
	}
	return dst, ev
}

// dropped reports whether an active drop clause removes satellite prn.
func dropped(active []*Clause, prn int) bool {
	for _, c := range active {
		if c.Kind == KindDrop && (c.PRN == 0 || c.PRN == prn) {
			return true
		}
	}
	return false
}

// ApplyEpoch returns a faulted copy of the epoch and its event log.
func (in *Injector) ApplyEpoch(ep scenario.Epoch) (scenario.Epoch, []Event) {
	obs, ev := in.Apply(ep.T, ep.Obs, make([]scenario.SatObs, 0, len(ep.Obs)), nil)
	return scenario.Epoch{T: ep.T, Obs: obs}, ev
}

// ApplyDataset returns a faulted copy of the dataset plus the full event
// log, epoch by epoch in order. The input dataset is not modified.
func ApplyDataset(ds *scenario.Dataset, prog Program, seed int64) (*scenario.Dataset, []Event) {
	in := NewInjector(prog, seed)
	out := &scenario.Dataset{Station: ds.Station, Config: ds.Config, Epochs: make([]scenario.Epoch, len(ds.Epochs))}
	var log []Event
	for i := range ds.Epochs {
		out.Epochs[i], log = applyAppend(in, ds.Epochs[i], log)
	}
	return out, log
}

// applyAppend is ApplyEpoch appending to an existing log.
func applyAppend(in *Injector, ep scenario.Epoch, log []Event) (scenario.Epoch, []Event) {
	obs, log := in.Apply(ep.T, ep.Obs, make([]scenario.SatObs, 0, len(ep.Obs)), log)
	return scenario.Epoch{T: ep.T, Obs: obs}, log
}

// InjectedPanic is the value a KindPanic clause panics with. It
// implements error so recovered values format cleanly in supervisor
// logs and health reports.
type InjectedPanic struct {
	// T is the epoch time the panic fired at.
	T float64
}

// Error implements error.
func (p InjectedPanic) Error() string {
	return fmt.Sprintf("fault: injected panic at t=%g", p.T)
}

// jamStreamTag separates the jam noise stream from the burst stream, so
// overlapping burst and jam clauses draw independent noise.
const jamStreamTag = 0x5A4D5EED

// gauss returns a standard normal draw that is a pure function of
// (seed, prn, t) — the same splitmix64 stream-splitting scheme the
// scenario generator uses, so burst noise is identical no matter which
// worker processes the epoch or in what order. The draw comes from an
// rng.Stream, which seeds in O(1) and allocates nothing; a math/rand
// source would pay its 607-word warm-up on every draw.
func gauss(seed int64, prn int, t float64) float64 {
	z := rng.Mix64(uint64(seed) ^ (uint64(prn) * 0x9E3779B97F4A7C15) ^ math.Float64bits(t) ^ 0xD1B54A32D192ED03)
	s := rng.New(int64(z))
	return s.NormFloat64()
}
