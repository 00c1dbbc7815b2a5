package eval

import (
	"fmt"

	"gpsdl/internal/core"
	"gpsdl/internal/journal"
	"gpsdl/internal/scenario"
)

// ReplayInputFromRecord lifts a journal record that captured its full
// observation set (FlagObs) into a ReplayInput, which gpsinspect replay
// re-solves for journals and incident bundles. The journal stores observation and
// solution floats bit-exactly, each observation's σ included when the
// solver weighted it (FlagSigma), so a successful replay must
// reproduce rec.Pos bit-for-bit.
func ReplayInputFromRecord(m *journal.Meta, rec *journal.Record) (*ReplayInput, error) {
	if rec.Flags&journal.FlagObs == 0 || len(rec.Obs) == 0 {
		return nil, fmt.Errorf("eval: record (recv %d, epoch %d) captured no observations", rec.Receiver, rec.Epoch)
	}
	if rec.Flags&journal.FlagCoast != 0 {
		return nil, fmt.Errorf("eval: record (recv %d, epoch %d) is a coast, not a solve", rec.Receiver, rec.Epoch)
	}
	if rec.Receiver < 0 || rec.Receiver >= len(m.Stations) {
		return nil, fmt.Errorf("eval: record receiver %d out of range for %d journal stations", rec.Receiver, len(m.Stations))
	}
	st, err := scenario.StationByID(m.Stations[rec.Receiver])
	if err != nil {
		return nil, fmt.Errorf("eval: journal station: %w", err)
	}
	in := &ReplayInput{
		Station:    st,
		EpochIndex: int(rec.Epoch),
		T:          float64(rec.Epoch) * m.Step,
		Solver:     journal.SolverName(rec.Solver),
		ClockBias:  rec.PredBias,
		Solution:   rec.Pos,
	}
	if in.Solver == "" {
		return nil, fmt.Errorf("eval: record (recv %d, epoch %d) has unknown solver index %d", rec.Receiver, rec.Epoch, rec.Solver)
	}
	in.Obs = make([]core.Observation, len(rec.Obs))
	for i, o := range rec.Obs {
		in.Obs[i] = core.Observation{Pos: o.Pos, Pseudorange: o.Pseudorange, Elevation: o.Elevation, Sigma: o.Sigma}
	}
	return in, nil
}

// ReplaySolver returns the solver configuration named by in.Solver (nil
// when the name matches none of the replayable solvers).
func (in *ReplayInput) ReplaySolver() core.Solver {
	for _, s := range in.Solvers() {
		if s.Name() == in.Solver {
			return s
		}
	}
	return nil
}
