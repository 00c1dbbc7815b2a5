package quality

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// refWindow is the unpacked window the packed slots must reproduce: a
// ring of whole Samples plus an occupancy bit per slot, folded with the
// same add and subtract order as Window.
type refWindow struct {
	size uint64
	ring []Sample
	occ  []bool
	snap Snapshot
}

func newRefWindow(size int) *refWindow {
	return &refWindow{
		size: uint64(size),
		ring: make([]Sample, size),
		occ:  make([]bool, size),
		snap: Snapshot{WindowSize: size},
	}
}

func (w *refWindow) observe(s Sample) {
	slot := s.Epoch % w.size
	if w.occ[slot] {
		w.apply(&w.ring[slot], -1)
	}
	w.ring[slot], w.occ[slot] = s, true
	w.apply(&s, +1)
	if s.Epoch > w.snap.LastEpoch {
		w.snap.LastEpoch = s.Epoch
	}
}

func (w *refWindow) apply(s *Sample, sign int) {
	u := uint64(1)
	if sign < 0 {
		u = ^uint64(0)
	}
	f := float64(sign)
	w.snap.Count += u
	if s.FixOK {
		w.snap.Fixes += u
		w.snap.Chain[min(max(s.ChainIndex, 0), MaxChainDepth-1)] += u
	}
	if s.Chi2Valid {
		w.snap.Chi2Checked += u
		if s.Chi2Pass {
			w.snap.Chi2Passed += u
		}
	}
	if s.Excluded {
		w.snap.RAIMExcluded += u
	}
	if s.RMSValid && !math.IsNaN(s.RMS) {
		w.snap.RMSCount += u
		w.snap.RMSSum += f * s.RMS
		w.snap.RMSBuckets[rmsBucket(s.RMS)] += u
	}
	if s.DOPValid {
		w.snap.DOPCount += u
		w.snap.PDOPSum += f * s.PDOP
		w.snap.HDOPSum += f * s.HDOP
	}
	if s.ClockValid && !math.IsNaN(s.ClockInnov) {
		w.snap.ClockCount += u
		w.snap.ClockSum += f * s.ClockInnov
	}
}

func (w *refWindow) snapshot() Snapshot {
	s := w.snap
	s.ClockMax = 0
	for i := range w.ring {
		if w.occ[i] && w.ring[i].ClockValid && w.ring[i].ClockInnov > s.ClockMax {
			s.ClockMax = w.ring[i].ClockInnov
		}
	}
	return s
}

// bitsEqual compares two snapshots with every float field compared by
// its IEEE 754 bits.
func bitsEqual(a, b Snapshot) bool {
	for _, p := range [...][2]*float64{
		{&a.RMSSum, &b.RMSSum}, {&a.PDOPSum, &b.PDOPSum}, {&a.HDOPSum, &b.HDOPSum},
		{&a.ClockSum, &b.ClockSum}, {&a.ClockMax, &b.ClockMax},
	} {
		if math.Float64bits(*p[0]) != math.Float64bits(*p[1]) {
			return false
		}
		*p[0], *p[1] = 0, 0
	}
	return a == b
}

// TestPackedWindowMatchesSampleRing: the packed window equals a plain
// Sample-ring fold, snapshot for snapshot and bit for bit, over a long
// seeded stream with evictions, repeated and skipped epochs, NaN RMS and
// clock values, and chain indexes outside [0, MaxChainDepth). The floats
// are arbitrary (not dyadic), so any change in the order of the adds
// and subtracts shows up in the sums' low bits.
func TestPackedWindowMatchesSampleRing(t *testing.T) {
	for _, size := range []int{1, 37, 600} {
		r := rand.New(rand.NewSource(int64(size)))
		w, ref := NewWindow(size), newRefWindow(size)
		var epoch uint64
		for n := 0; n < 12000; n++ {
			switch r.Intn(20) {
			case 0: // the same epoch again
			case 1: // a gap
				epoch += uint64(1 + r.Intn(3*size))
			case 2: // an old epoch
				epoch -= min(epoch, uint64(r.Intn(size+1)))
			default:
				epoch++
			}
			s := Sample{
				Epoch: epoch, FixOK: r.Intn(8) != 0,
				RMS: r.ExpFloat64() * 4, RMSValid: r.Intn(4) != 0,
				Chi2Pass: r.Intn(5) != 0, Chi2Valid: r.Intn(3) != 0,
				PDOP: 1 + r.Float64()*5, HDOP: 0.5 + r.Float64()*3, DOPValid: r.Intn(2) == 0,
				ChainIndex: r.Intn(MaxChainDepth),
				Excluded:   r.Intn(7) == 0,
				ClockInnov: r.NormFloat64() * 3, ClockValid: r.Intn(2) == 0,
			}
			switch r.Intn(40) {
			case 0:
				s.RMS = math.NaN()
			case 1:
				s.ClockInnov = math.NaN()
			case 2:
				s.ChainIndex = -1 - r.Intn(1000)
			case 3:
				s.ChainIndex = MaxChainDepth + r.Intn(1000)
			}
			w.Observe(s)
			ref.observe(s)
			if got, want := w.Snapshot(), ref.snapshot(); !bitsEqual(got, want) {
				t.Fatalf("size %d, sample %d (%+v): packed window diverged\n got %+v\nwant %+v",
					size, n, s, got, want)
			}
		}
	}
}

// TestWindowFootprint pins the per-epoch cost of a window: a packed
// slot is at most 40 bytes, so a 600-epoch session window stays under
// 24 KB.
func TestWindowFootprint(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n > 40 {
		t.Fatalf("window slot is %d bytes, want ≤ 40", n)
	}
}
