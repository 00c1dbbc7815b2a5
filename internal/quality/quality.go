// Package quality turns per-fix evidence (core.FixQuality, DOP, solver
// chain depth, RAIM exclusions, clock innovation) into sliding-window
// aggregates a serving fleet can alert on.
//
// The design constraint that shapes everything here is determinism:
// windows are keyed by deterministic epoch index, never wall clock, and
// every aggregate is maintained by exactly one goroutine with a fixed
// operation order, so a replay of the same scenario and seed reproduces
// every digest bit-for-bit regardless of worker count. That is what
// makes a quality regression diffable: two runs disagree only if the
// solutions themselves disagreed.
//
// A Window is allocation-free in steady state (fixed ring, fixed bucket
// arrays, subtract-on-evict aggregates). A Snapshot is a plain value —
// mergeable across sessions by commutative sums in a caller-fixed order
// — and a Digest is derived from snapshots on demand, reusing
// telemetry.BucketQuantile so window quantiles and Prometheus
// histogram_quantile agree by construction.
package quality

import (
	"encoding/json"
	"math"

	"gpsdl/internal/telemetry"
)

// Float is a float64 that marshals non-finite values as JSON null
// instead of failing the whole encode — empty windows legitimately
// produce NaN means and quantiles, and /debug/status must still render.
type Float float64

// MarshalJSON renders NaN and ±Inf as null.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// numRMSBounds is the fixed residual-RMS bucket count; bounds are in
// meters. The array (not slice) type keeps Snapshot a flat value so
// copying and merging never allocate.
const numRMSBounds = 17

// RMSBounds are the inclusive upper bounds of the residual-RMS buckets,
// spanning sub-meter open-sky noise through multi-ten-meter faults.
var RMSBounds = [numRMSBounds]float64{0.25, 0.5, 1, 1.5, 2, 2.5, 3, 4, 5, 6, 8, 10, 13, 16, 20, 30, 50}

// MaxChainDepth bounds the per-depth solver-chain counters. The engine
// chain is NR→DLG→DLO→Bancroft (depth 0–3); extra headroom costs 32
// bytes and removes a failure mode.
const MaxChainDepth = 8

// Sample is one epoch's quality evidence for one session. Zero value =
// "epoch with no usable fix".
type Sample struct {
	// Epoch is the deterministic epoch index that keys the window slot.
	Epoch uint64
	// FixOK reports whether this epoch produced a position fix at all.
	FixOK bool
	// RMS is the post-fit residual RMS in meters; only meaningful when
	// RMSValid (fix with redundancy).
	RMS      float64
	RMSValid bool
	// Chi2Pass is the consistency verdict; only counted when Chi2Valid.
	Chi2Pass  bool
	Chi2Valid bool
	// PDOP and HDOP describe the fix geometry; counted when DOPValid.
	PDOP, HDOP float64
	DOPValid   bool
	// ChainIndex is the fallback-chain depth that produced the fix
	// (0 = primary solver). Clamped into [0, MaxChainDepth).
	ChainIndex int
	// Excluded reports that RAIM removed a satellite before the fix.
	Excluded bool
	// ClockInnov is |predicted − solved| clock bias in meters, the
	// innovation magnitude of the paper's Doppler/clock predictor;
	// counted when ClockValid.
	ClockInnov float64
	ClockValid bool
}

// Snapshot is the mergeable, flat-value summary of a window (or of many
// windows merged). All fields are sums or counts except ClockMax, which
// merges by max. The zero Snapshot is the empty summary.
type Snapshot struct {
	// WindowSize is the configured window span in epochs (informational;
	// merging keeps the first non-zero value).
	WindowSize int `json:"window_size"`
	// LastEpoch is the newest epoch observed (max over merges).
	LastEpoch uint64 `json:"last_epoch"`
	// Count is the number of epochs in the window; Fixes of them
	// produced a position.
	Count uint64 `json:"count"`
	Fixes uint64 `json:"fixes"`
	// Chi2Checked/Chi2Passed count epochs where the consistency test ran
	// and where it passed.
	Chi2Checked uint64 `json:"chi2_checked"`
	Chi2Passed  uint64 `json:"chi2_passed"`
	// RAIMExcluded counts epochs where RAIM removed a satellite.
	RAIMExcluded uint64 `json:"raim_excluded"`
	// Chain counts fixes by fallback-chain depth (index 0 = primary).
	Chain [MaxChainDepth]uint64 `json:"chain"`
	// RMS* summarize the residual-RMS distribution over RMSBounds.
	RMSCount   uint64                   `json:"rms_count"`
	RMSSum     float64                  `json:"rms_sum"`
	RMSBuckets [numRMSBounds + 1]uint64 `json:"rms_buckets"`
	// DOP sums over DOPValid epochs.
	PDOPSum  float64 `json:"pdop_sum"`
	HDOPSum  float64 `json:"hdop_sum"`
	DOPCount uint64  `json:"dop_count"`
	// Clock-innovation sum/max over ClockValid epochs.
	ClockSum   float64 `json:"clock_sum"`
	ClockMax   float64 `json:"clock_max"`
	ClockCount uint64  `json:"clock_count"`
}

// Merge folds o into s. Merging is commutative in value but callers
// that need bit-identical float sums must merge in a fixed order
// (receiver order, in the engine).
func (s *Snapshot) Merge(o *Snapshot) {
	if o == nil {
		return
	}
	if s.WindowSize == 0 {
		s.WindowSize = o.WindowSize
	}
	if o.LastEpoch > s.LastEpoch {
		s.LastEpoch = o.LastEpoch
	}
	s.Count += o.Count
	s.Fixes += o.Fixes
	s.Chi2Checked += o.Chi2Checked
	s.Chi2Passed += o.Chi2Passed
	s.RAIMExcluded += o.RAIMExcluded
	for i := range s.Chain {
		s.Chain[i] += o.Chain[i]
	}
	s.RMSCount += o.RMSCount
	s.RMSSum += o.RMSSum
	for i := range s.RMSBuckets {
		s.RMSBuckets[i] += o.RMSBuckets[i]
	}
	s.PDOPSum += o.PDOPSum
	s.HDOPSum += o.HDOPSum
	s.DOPCount += o.DOPCount
	s.ClockSum += o.ClockSum
	if o.ClockMax > s.ClockMax {
		s.ClockMax = o.ClockMax
	}
	s.ClockCount += o.ClockCount
}

// Digest is the human/SLO-facing reduction of a Snapshot: rates, means
// and interpolated quantiles.
type Digest struct {
	Count        uint64 `json:"count"`
	Availability Float  `json:"availability"`   // Fixes/Count
	Chi2PassRate Float  `json:"chi2_pass_rate"` // Chi2Passed/Chi2Checked
	ExcludedRate Float  `json:"excluded_rate"`  // RAIMExcluded/Count
	DegradedRate Float  `json:"degraded_rate"`  // fixes at chain depth > 0
	RMSMean      Float  `json:"rms_mean"`
	RMSP50       Float  `json:"rms_p50"`
	RMSP95       Float  `json:"rms_p95"`
	RMSP99       Float  `json:"rms_p99"`
	PDOPMean     Float  `json:"pdop_mean"`
	HDOPMean     Float  `json:"hdop_mean"`
	ClockMean    Float  `json:"clock_innov_mean"`
	ClockMax     Float  `json:"clock_innov_max"`
}

// Digest reduces the snapshot. Rates over an empty denominator are 0;
// quantiles over an empty RMS distribution are NaN (rendered as null
// upstream — JSON marshalling replaces non-finite values).
func (s *Snapshot) Digest() Digest {
	d := Digest{Count: s.Count, ClockMax: Float(s.ClockMax)}
	if s.Count > 0 {
		d.Availability = Float(float64(s.Fixes) / float64(s.Count))
		d.ExcludedRate = Float(float64(s.RAIMExcluded) / float64(s.Count))
	}
	if s.Chi2Checked > 0 {
		d.Chi2PassRate = Float(float64(s.Chi2Passed) / float64(s.Chi2Checked))
	}
	var deep uint64
	for i := 1; i < MaxChainDepth; i++ {
		deep += s.Chain[i]
	}
	if s.Fixes > 0 {
		d.DegradedRate = Float(float64(deep) / float64(s.Fixes))
	}
	if s.RMSCount > 0 {
		d.RMSMean = Float(s.RMSSum / float64(s.RMSCount))
	} else {
		d.RMSMean = Float(math.NaN())
	}
	d.RMSP50 = Float(s.RMSQuantile(0.50))
	d.RMSP95 = Float(s.RMSQuantile(0.95))
	d.RMSP99 = Float(s.RMSQuantile(0.99))
	if s.DOPCount > 0 {
		d.PDOPMean = Float(s.PDOPSum / float64(s.DOPCount))
		d.HDOPMean = Float(s.HDOPSum / float64(s.DOPCount))
	} else {
		d.PDOPMean, d.HDOPMean = Float(math.NaN()), Float(math.NaN())
	}
	if s.ClockCount > 0 {
		d.ClockMean = Float(s.ClockSum / float64(s.ClockCount))
	} else {
		d.ClockMean, d.ClockMax = Float(math.NaN()), Float(math.NaN())
	}
	return d
}

// RMSQuantile estimates the q-th quantile of the window's residual-RMS
// distribution with the same bucket interpolation as
// telemetry.Histogram.Quantile. NaN when the window holds no RMS
// observations.
func (s *Snapshot) RMSQuantile(q float64) float64 {
	if s.RMSCount == 0 {
		return math.NaN()
	}
	var cum [numRMSBounds + 1]uint64
	var running uint64
	for i := range s.RMSBuckets {
		running += s.RMSBuckets[i]
		cum[i] = running
	}
	return telemetry.BucketQuantile(RMSBounds[:], cum[:], s.RMSCount, q)
}

// Window is a sliding window over the last size epochs of one stream of
// Samples. It is NOT safe for concurrent use: the engine gives every
// window exactly one owning goroutine, which is also what makes its
// float aggregates reproducible. Observe is allocation-free.
type Window struct {
	size uint64
	ring []slot
	snap Snapshot // running aggregates (ClockMax recomputed on read)
}

// slot is one Sample packed into 40 bytes: its four floats, its chain
// depth (clamped as apply clamps it) and one byte of flags holding its
// validity bools plus the occupied bit. The epoch only picks the slot,
// so it is not kept.
type slot struct {
	rms, pdop, hdop, clock float64
	chain                  int8
	flags                  uint8
}

// slot flag bits.
const (
	slotOccupied uint8 = 1 << iota
	slotFixOK
	slotRMSValid
	slotChi2Pass
	slotChi2Valid
	slotDOPValid
	slotExcluded
	slotClockValid
)

// pack converts s into its occupied ring slot.
func pack(s *Sample) slot {
	ci := s.ChainIndex
	if ci < 0 {
		ci = 0
	} else if ci >= MaxChainDepth {
		ci = MaxChainDepth - 1
	}
	f := slotOccupied | flag(s.FixOK, slotFixOK) | flag(s.RMSValid, slotRMSValid) |
		flag(s.Chi2Pass, slotChi2Pass) | flag(s.Chi2Valid, slotChi2Valid) |
		flag(s.DOPValid, slotDOPValid) | flag(s.Excluded, slotExcluded) |
		flag(s.ClockValid, slotClockValid)
	return slot{rms: s.RMS, pdop: s.PDOP, hdop: s.HDOP, clock: s.ClockInnov, chain: int8(ci), flags: f}
}

// flag is bit when set, else 0.
func flag(set bool, bit uint8) uint8 {
	if set {
		return bit
	}
	return 0
}

func (sl *slot) has(bit uint8) bool { return sl.flags&bit != 0 }

// NewWindow returns a window spanning size epochs (minimum 1).
func NewWindow(size int) *Window {
	if size < 1 {
		size = 1
	}
	return &Window{
		size: uint64(size),
		ring: make([]slot, size),
		snap: Snapshot{WindowSize: size},
	}
}

// Observe folds one epoch's sample in, evicting whatever sample
// occupied the same ring slot a window ago. Epochs are expected
// (but not required) to arrive in increasing order.
func (w *Window) Observe(s Sample) {
	if w == nil {
		return
	}
	sl := &w.ring[s.Epoch%w.size]
	if sl.has(slotOccupied) {
		w.apply(sl, -1)
	}
	*sl = pack(&s)
	w.apply(sl, +1)
	if s.Epoch > w.snap.LastEpoch {
		w.snap.LastEpoch = s.Epoch
	}
}

// apply adds (sign=+1) or subtracts (sign=-1) one sample's contribution
// to the running aggregates. Add and subtract must stay exact mirror
// images or the window drifts; counts use uint64 wraparound symmetry.
func (w *Window) apply(s *slot, sign int) {
	u := uint64(1)
	if sign < 0 {
		u = ^uint64(0) // adding -1 in two's complement
	}
	f := float64(sign)
	w.snap.Count += u
	if s.has(slotFixOK) {
		w.snap.Fixes += u
		w.snap.Chain[s.chain] += u
	}
	if s.has(slotChi2Valid) {
		w.snap.Chi2Checked += u
		if s.has(slotChi2Pass) {
			w.snap.Chi2Passed += u
		}
	}
	if s.has(slotExcluded) {
		w.snap.RAIMExcluded += u
	}
	if s.has(slotRMSValid) && !math.IsNaN(s.rms) {
		w.snap.RMSCount += u
		w.snap.RMSSum += f * s.rms
		w.snap.RMSBuckets[rmsBucket(s.rms)] += u
	}
	if s.has(slotDOPValid) {
		w.snap.DOPCount += u
		w.snap.PDOPSum += f * s.pdop
		w.snap.HDOPSum += f * s.hdop
	}
	if s.has(slotClockValid) && !math.IsNaN(s.clock) {
		w.snap.ClockCount += u
		w.snap.ClockSum += f * s.clock
	}
}

// rmsBucket returns the bucket index for an RMS value (last index =
// overflow).
func rmsBucket(v float64) int {
	for i, b := range RMSBounds {
		if v <= b {
			return i
		}
	}
	return numRMSBounds
}

// SnapshotInto writes the window's current summary into dst without
// allocating. ClockMax cannot be maintained by subtract-on-evict, so it
// is recomputed here by an O(size) scan — snapshots are taken every few
// dozen epochs, not every epoch, so the scan amortizes to noise.
func (w *Window) SnapshotInto(dst *Snapshot) {
	if w == nil {
		*dst = Snapshot{}
		return
	}
	*dst = w.snap
	dst.ClockMax = 0
	for i := range w.ring {
		s := &w.ring[i]
		if s.has(slotClockValid) && s.clock > dst.ClockMax {
			dst.ClockMax = s.clock
		}
	}
}

// Snapshot returns the window's current summary by value.
func (w *Window) Snapshot() Snapshot {
	var s Snapshot
	w.SnapshotInto(&s)
	return s
}
