// Package checkpoint persists engine session state across process
// restarts. The motivating cost model is the paper's Section 4.2: DLO/DLG
// only beat Newton–Raphson while the clock model Δt̂ = D + r·tₑ (eq. 4-3)
// stays calibrated, and recalibrating costs a full NR warm-up window per
// receiver. A process restart without a checkpoint therefore forces the
// worst case the paper warns about — mass recalibration of every session
// at once. Restoring a checkpoint skips that entirely: each session
// resumes with its fitted (D, r), health state, and last fix.
//
// File format (version 1):
//
//	GPSCKPT 1 <crc32-ieee-hex> <payload-len>\n
//	<payload-len bytes of JSON>
//
// The header is ASCII so a truncated or torn file fails parsing loudly,
// and the CRC covers the payload so a flipped byte is detected rather
// than deserialized into plausible-looking garbage calibration. Writers
// use write-to-temp + fsync + rename, so a crash mid-save leaves either
// the previous complete checkpoint or none — never a partial one.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"gpsdl/internal/clock"
	"gpsdl/internal/geo"
)

// Version is the current checkpoint format version. Load rejects any
// other version: calibration state from an incompatible layout is worse
// than a cold start.
const Version = 1

// magic is the file-type tag leading every checkpoint header.
const magic = "GPSCKPT"

// ErrCorrupt reports a checkpoint that exists but cannot be trusted —
// bad magic, wrong version, short payload, or checksum mismatch. Callers
// should treat it exactly like a missing checkpoint (cold start), never
// as fatal: a stale process must not be wedged by a torn file.
var ErrCorrupt = errors.New("checkpoint: corrupt or incompatible file")

// Fix is the last good solution a session produced, kept so a restored
// session can resume coasting (and report a sane /healthz last-fix age)
// before its first post-restore solve completes.
type Fix struct {
	// T is the receiver epoch time of the fix (seconds).
	T float64 `json:"t"`
	// Pos is the solved ECEF position (meters).
	Pos geo.ECEF `json:"pos"`
	// ClockBias is the solved receiver clock range bias (meters).
	ClockBias float64 `json:"clock_bias"`
}

// Session is one receiver's persisted state.
type Session struct {
	// Receiver is the engine receiver index the state belongs to.
	Receiver int `json:"receiver"`
	// Station names the scenario station the receiver was generated
	// from. Restore refuses a checkpoint whose station doesn't match the
	// running configuration — the calibration would be for a different
	// clock model entirely.
	Station string `json:"station"`
	// State is the session health state name ("healthy", "degraded",
	// "coasting", ...) at snapshot time.
	State string `json:"state"`
	// HaveFix reports whether LastFix holds a real solution.
	HaveFix bool `json:"have_fix"`
	// LastFix is the most recent good solution.
	LastFix Fix `json:"last_fix"`
	// Epoch is the next epoch index the session expects to process.
	Epoch int `json:"epoch"`
	// Clock is the predictor calibration snapshot — the (D, r) fit of
	// eq. 4-3 plus refit sums, the state whose loss forces NR warm-up.
	Clock clock.Snapshot `json:"clock"`
}

// State is a whole-engine checkpoint. The configuration echo fields let
// Restore verify the checkpoint was produced by a compatible run.
type State struct {
	// Solver, Seed, Step, and Receivers echo the engine configuration
	// the checkpoint was taken under.
	Solver    string  `json:"solver"`
	Seed      int64   `json:"seed"`
	Step      float64 `json:"step"`
	Receivers int     `json:"receivers"`
	// Epoch is the highest epoch index covered by the checkpoint (max
	// over sessions). gpsserve resumes its epoch counter here.
	Epoch int `json:"epoch"`
	// Sessions holds one entry per receiver session.
	Sessions []Session `json:"sessions"`
}

// Filter returns a copy of st containing only the session records
// whose Receiver id is in ids, with the Receivers echo rewritten to
// len(ids) — the shape a checkpoint handoff sends to a survivor node
// that will host exactly those sessions. Ids with no record in st are
// simply absent from the result (the adopting engine cold-starts
// them). The Epoch echo is kept as it was; a node restoring the
// result takes its resume point from the records it keeps.
func (s *State) Filter(ids []int) *State {
	want := make(map[int]struct{}, len(ids))
	for _, id := range ids {
		want[id] = struct{}{}
	}
	out := *s
	out.Receivers = len(ids)
	out.Sessions = nil
	for i := range s.Sessions {
		if _, ok := want[s.Sessions[i].Receiver]; ok {
			out.Sessions = append(out.Sessions, s.Sessions[i])
		}
	}
	return &out
}

// Encode renders the state in checkpoint file format (header + JSON).
func Encode(s *State) ([]byte, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %d %08x %d\n", magic, Version, crc32.ChecksumIEEE(payload), len(payload))
	buf.Write(payload)
	return buf.Bytes(), nil
}

// Decode parses checkpoint bytes, verifying version and checksum. Any
// mismatch returns an error wrapping ErrCorrupt.
func Decode(data []byte) (*State, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%w: no header line", ErrCorrupt)
	}
	var (
		gotMagic string
		version  int
		sum      uint32
		plen     int
	)
	if _, err := fmt.Sscanf(string(data[:nl]), "%s %d %x %d", &gotMagic, &version, &sum, &plen); err != nil {
		return nil, fmt.Errorf("%w: malformed header: %v", ErrCorrupt, err)
	}
	if gotMagic != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, gotMagic)
	}
	if version != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, version)
	}
	payload := data[nl+1:]
	if len(payload) != plen {
		return nil, fmt.Errorf("%w: payload is %d bytes, header says %d", ErrCorrupt, len(payload), plen)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%w: checksum %08x, header says %08x", ErrCorrupt, got, sum)
	}
	var s State
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, fmt.Errorf("%w: payload JSON: %v", ErrCorrupt, err)
	}
	return &s, nil
}

// Save atomically writes the state to path: encode, write to a temp file
// in the same directory, fsync, rename. Concurrent readers always see
// either the previous checkpoint or the new one, never a torn mix.
func Save(path string, s *State) error {
	data, err := Encode(s)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	return nil
}

// Load reads and decodes the checkpoint at path. A missing file returns
// an error satisfying os.IsNotExist / errors.Is(err, os.ErrNotExist); a
// damaged file returns an error wrapping ErrCorrupt. Both should fall
// back to cold start.
func Load(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
