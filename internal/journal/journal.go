// Package journal implements the black-box flight journal: a durable,
// append-only, CRC-framed binary log of per-epoch per-session fix
// records (quality verdicts, health transitions, solver chain depth,
// RAIM exclusions with per-satellite post-fit residuals, clock
// innovation), written off the solve hot path at the engine's
// per-shard batch boundary.
//
// # File layout
//
//	file   := header frame*
//	header := magic "GPSJ" | version u8 | metaLen uvarint | metaJSON | crc32(metaJSON) u32le
//	frame  := marker 0xA7 | payloadLen uvarint | payload | crc32(payload) u32le
//
// The header is the magic followed by one envelope whose marker is the
// version byte. Both envelopes, the payload decoder and the millimetre
// quantiser are internal/frame's, shared with the wire protocol; this
// package owns the markers, the 64 MiB payload cap and the layouts.
//
// The first payload byte is the frame kind: FrameRecords carries a
// delta/varint-encoded batch of Records from one shard; FrameSync is a
// periodic sync point (epoch high-water mark plus cumulative frame and
// record counts) after which the writer fsyncs, bounding how much a
// crash can lose. Every frame is independently decodable — record
// batches carry their own absolute base epoch — so a reader recovers
// everything up to a torn final frame after a crash and reports exactly
// one torn tail.
//
// Epochs are delta-encoded against the batch base, metric scalars are
// quantized to millimetre fixed point (residuals, RMS, clock
// innovation) or 1/1000 units (DOP) and varint-packed, while solution
// coordinates and captured observations keep raw float64 bits so that
// incident fixes replay bit-for-bit through eval.ReplayInput. A
// captured set also keeps each observation's σ (FlagSigma) when the
// solver saw one, so weighted and disruption-scored fixes replay too.
package journal

import (
	"strconv"

	"gpsdl/internal/geo"
)

// Format constants. Version bumps whenever the frame or record
// encoding changes incompatibly.
const (
	Version     = 1
	FrameMarker = 0xA7

	// FrameRecords and FrameSync are the payload kind bytes.
	FrameRecords = 1
	FrameSync    = 2

	// MaxFramePayload bounds a single frame payload; the reader
	// rejects larger length prefixes as corruption rather than
	// attempting a multi-gigabyte allocation.
	MaxFramePayload = 1 << 26
)

var magic = [4]byte{'G', 'P', 'S', 'J'}

// Record flag bits. A bit being clear means the corresponding field
// group was not encoded (and the decoded value is the zero value).
const (
	FlagFix         = 1 << iota // a fix was produced this epoch (Pos/ClockBias valid)
	FlagCoast                   // fix is a clock-model coast, not a fresh solve
	FlagSuspect                 // RAIM flagged the fix but could not isolate a satellite
	FlagExcluded                // RAIM excluded one satellite (ExcludedPRN valid)
	FlagRMS                     // RMS field valid
	FlagChi2Valid               // chi-square verdict available
	FlagChi2Pass                // chi-square test passed (meaningful with FlagChi2Valid)
	FlagDOP                     // PDOP/HDOP valid
	FlagClock                   // ClockInnov valid
	FlagObs                     // full observation set captured (PredBias/Obs valid)
	FlagStateChange             // session health state differs from the previous epoch
	FlagSigma                   // captured observations carry σ (with FlagObs; some σ non-zero)
)

// Meta is the journal file header payload: enough engine configuration
// to interpret and replay the records without the originating process.
type Meta struct {
	Solver       string   `json:"solver"`
	Seed         int64    `json:"seed"`
	Step         float64  `json:"step"`
	Receivers    int      `json:"receivers"`
	Stations     []string `json:"stations,omitempty"`
	Sigma        float64  `json:"sigma,omitempty"`
	CaptureEvery int      `json:"capture_every,omitempty"`
	Created      string   `json:"created,omitempty"`
}

// SatResidual is one satellite's post-fit pseudorange residual
// v = ρ − (‖x̂ − s‖ + b̂), quantized to millimetres on disk.
type SatResidual struct {
	PRN    int
	Meters float64
}

// CapturedObs is one raw observation captured for bit-exact replay.
type CapturedObs struct {
	PRN         int
	Pos         geo.ECEF
	Pseudorange float64
	Elevation   float64
	// Sigma is the 1σ pseudo-range noise (metres) the solver weighted
	// the observation with, after any disruption inflation; 0 means
	// unweighted. Stored only in records with FlagSigma.
	Sigma float64
}

// Record is one session-epoch of flight data. The writer encodes it
// into a batch payload; the reader reconstructs it (metric scalars
// round-trip at millimetre resolution, solution and observation floats
// bit-exactly).
type Record struct {
	Receiver int
	Epoch    uint64
	Flags    uint32
	State    uint8 // engine session state ordinal, see StateName
	Chain    uint8 // fallback chain index of the solver that produced the fix
	Solver   uint8 // solver table index, see SolverName

	Pos       geo.ECEF // with FlagFix
	ClockBias float64  // metres, with FlagFix

	RMS        float64 // metres, with FlagRMS
	PDOP, HDOP float64 // with FlagDOP
	ClockInnov float64 // metres, with FlagClock

	ExcludedPRN int // with FlagExcluded

	Residuals []SatResidual // per-satellite post-fit residuals (may be empty)

	PredBias float64       // predicted receiver clock bias, seconds, with FlagObs
	Obs      []CapturedObs // with FlagObs
}

// Has reports whether every flag bit in mask is set.
func (r *Record) Has(mask uint32) bool { return r.Flags&mask == mask }

// stateNames mirrors engine.SessionState ordinals. The journal layer
// stores the ordinal only; keeping the name table here lets offline
// tools render states without importing the engine.
var stateNames = []string{"healthy", "degraded", "coasting", "quarantined", "failed"}

// StateName renders a session-state ordinal; unknown ordinals render
// as "state(N)".
func StateName(s uint8) string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "state(" + strconv.Itoa(int(s)) + ")"
}

// solverNames indexes the solver identifiers that appear in
// core.FallbackResult.Solver. Index 0 is reserved for "none/unknown".
// Only append to this table: the index is what journal records persist,
// so reordering would mislabel every existing journal file.
var solverNames = []string{"", "NR", "DLG", "DLO", "Bancroft", "TriSat", "coast", "DLG-fast", "DLG-explicit"}

// SolverIndex maps a solver name to its table index (0 when unknown).
func SolverIndex(name string) uint8 {
	for i, n := range solverNames {
		if i > 0 && n == name {
			return uint8(i)
		}
	}
	return 0
}

// SolverName is the inverse of SolverIndex ("" when out of range).
func SolverName(idx uint8) string {
	if int(idx) < len(solverNames) {
		return solverNames[idx]
	}
	return ""
}
