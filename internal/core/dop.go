package core

import (
	"fmt"
	"math"

	"gpsdl/internal/geo"
	"gpsdl/internal/mat"
)

// DOP holds the dilution-of-precision factors of a satellite geometry:
// how measurement noise amplifies into solution error. Standard receiver
// diagnostics; used by the harness to report geometry quality alongside
// the accuracy metrics.
type DOP struct {
	GDOP float64 // geometric (position + time)
	PDOP float64 // 3-D position
	HDOP float64 // horizontal
	VDOP float64 // vertical
	TDOP float64 // time
}

// enuFrame snapshots the local east/north/up rotation at a receiver
// position, so per-satellite unit vectors can be projected without
// recomputing trigonometry.
type enuFrame struct {
	sinLat, cosLat, sinLon, cosLon float64
}

func newENUFrame(lla geo.LLA) enuFrame {
	var f enuFrame
	f.sinLat, f.cosLat = math.Sincos(lla.Lat)
	f.sinLon, f.cosLon = math.Sincos(lla.Lon)
	return f
}

// row returns the ENU geometry row (e, n, u, 1) for one satellite, or
// ok=false when the satellite coincides with the receiver.
func (f enuFrame) row(recv, sat geo.ECEF) (row [4]float64, ok bool) {
	d := sat.Sub(recv)
	r := d.Norm()
	if r == 0 {
		return row, false
	}
	ux, uy, uz := d.X/r, d.Y/r, d.Z/r
	row[0] = -f.sinLon*ux + f.cosLon*uy
	row[1] = -f.sinLat*f.cosLon*ux - f.sinLat*f.sinLon*uy + f.cosLat*uz
	row[2] = f.cosLat*f.cosLon*ux + f.cosLat*f.sinLon*uy + f.sinLat*uz
	row[3] = 1
	return row, true
}

// dopFromNormal inverts the accumulated 4×4 ENU normal matrix and reads
// the dilution factors off its diagonal.
func dopFromNormal(ata [16]float64) (DOP, error) {
	for i := 0; i < 4; i++ {
		for j := 0; j < i; j++ {
			ata[i*4+j] = ata[j*4+i]
		}
	}
	q, err := mat.Inv4(ata)
	if err != nil {
		return DOP{}, fmt.Errorf("DOP covariance: %w", ErrDegenerateGeometry)
	}
	qe, qn, qu, qt := q[0], q[5], q[10], q[15]
	return DOP{
		GDOP: math.Sqrt(qe + qn + qu + qt),
		PDOP: math.Sqrt(qe + qn + qu),
		HDOP: math.Sqrt(qe + qn),
		VDOP: math.Sqrt(qu),
		TDOP: math.Sqrt(qt),
	}, nil
}

// accumulateDOPRow folds one geometry row into the upper triangle of the
// 4×4 normal matrix.
func accumulateDOPRow(ata *[16]float64, row [4]float64) {
	for i := 0; i < 4; i++ {
		ri := row[i]
		for j := i; j < 4; j++ {
			ata[i*4+j] += ri * row[j]
		}
	}
}

// ComputeDOP returns the DOP factors for a receiver at recv observing the
// given satellite positions. At least 4 satellites are required. The whole
// computation runs in fixed-size storage (no heap allocation), so it sits
// on the per-fix hot path for free.
func ComputeDOP(recv geo.ECEF, sats []geo.ECEF) (DOP, error) {
	if len(sats) < 4 {
		return DOP{}, fmt.Errorf("DOP needs >= 4 satellites, have %d: %w", len(sats), ErrTooFewSatellites)
	}
	// Geometry matrix in the local ENU frame so HDOP/VDOP are meaningful.
	f := newENUFrame(recv.ToLLA())
	var ata [16]float64
	for i, s := range sats {
		row, ok := f.row(recv, s)
		if !ok {
			return DOP{}, fmt.Errorf("satellite %d coincides with receiver: %w", i, ErrDegenerateGeometry)
		}
		accumulateDOPRow(&ata, row)
	}
	return dopFromNormal(ata)
}

// DOPFromObs is ComputeDOP reading satellite positions straight out of an
// observation slice, so hot paths need not build a []geo.ECEF first.
func DOPFromObs(recv geo.ECEF, obs []Observation) (DOP, error) {
	return DOPFromObsLLA(recv, recv.ToLLA(), obs)
}

// DOPFromObsLLA is DOPFromObs for a caller that already holds the
// receiver's geodetic position: lla must equal recv.ToLLA(). A fix
// pipeline that converts the solved position once for its NMEA output
// passes that conversion here instead of paying for a second one.
func DOPFromObsLLA(recv geo.ECEF, lla geo.LLA, obs []Observation) (DOP, error) {
	if len(obs) < 4 {
		return DOP{}, fmt.Errorf("DOP needs >= 4 satellites, have %d: %w", len(obs), ErrTooFewSatellites)
	}
	f := newENUFrame(lla)
	var ata [16]float64
	for i := range obs {
		row, ok := f.row(recv, obs[i].Pos)
		if !ok {
			return DOP{}, fmt.Errorf("satellite %d coincides with receiver: %w", i, ErrDegenerateGeometry)
		}
		accumulateDOPRow(&ata, row)
	}
	return dopFromNormal(ata)
}

// AccuracyEstimate is the formal (receiver-reported) 1σ accuracy of a
// fix: the post-fit residual scatter scaled by the geometry's dilution
// factors — what a receiver shows the user as "estimated accuracy".
type AccuracyEstimate struct {
	// SigmaUERE is the estimated per-range error sqrt(RSS/(m−4)).
	SigmaUERE float64
	// Horizontal, Vertical and Position are σ·HDOP, σ·VDOP and σ·PDOP.
	Horizontal, Vertical, Position float64
}

// EstimateAccuracy derives the formal accuracy of a solution from its
// own residuals and geometry. At least 5 satellites are required (with 4
// the residuals are identically zero and tell nothing).
func EstimateAccuracy(sol Solution, obs []Observation) (AccuracyEstimate, error) {
	if len(obs) < 5 {
		return AccuracyEstimate{}, fmt.Errorf("accuracy estimate needs >= 5 satellites, have %d: %w",
			len(obs), ErrTooFewSatellites)
	}
	sats := make([]geo.ECEF, len(obs))
	for i, o := range obs {
		sats[i] = o.Pos
	}
	dop, err := ComputeDOP(sol.Pos, sats)
	if err != nil {
		return AccuracyEstimate{}, err
	}
	sigma := residualStat(sol, obs)
	return AccuracyEstimate{
		SigmaUERE:  sigma,
		Horizontal: sigma * dop.HDOP,
		Vertical:   sigma * dop.VDOP,
		Position:   sigma * dop.PDOP,
	}, nil
}
