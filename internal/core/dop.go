package core

import (
	"fmt"
	"math"

	"gpsdl/internal/geo"
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

// errDegenerateDOP is dopFromNormal's error for a normal matrix that is
// not positive definite.
var errDegenerateDOP = fmt.Errorf("DOP covariance: %w", ErrDegenerateGeometry)

// dopFromNormal reads the dilution factors off the diagonal of N⁻¹, N
// the accumulated 4×4 ENU normal matrix (upper triangle only). N is
// symmetric positive definite for any usable geometry, so it factors as
// N = LLᵀ and N⁻¹ = L⁻ᵀL⁻¹, whose diagonal is (N⁻¹)ᵢᵢ = Σₖ (L⁻¹)ₖᵢ²:
// one unrolled Cholesky factor and its triangular inverse, no pivoting.
// A pivot that is not positive (NaN included) means the geometry is
// degenerate.
func dopFromNormal(ata [16]float64) (DOP, error) {
	// L, row by row. A non-positive pivot turns every later term into
	// NaN or ±Inf rather than panicking, so one check at the end serves.
	d0 := ata[0]
	l00 := math.Sqrt(d0)
	l10, l20, l30 := ata[1]/l00, ata[2]/l00, ata[3]/l00
	d1 := ata[5] - l10*l10
	l11 := math.Sqrt(d1)
	l21, l31 := (ata[6]-l20*l10)/l11, (ata[7]-l30*l10)/l11
	d2 := ata[10] - l20*l20 - l21*l21
	l22 := math.Sqrt(d2)
	l32 := (ata[11] - l30*l20 - l31*l21) / l22
	d3 := ata[15] - l30*l30 - l31*l31 - l32*l32
	if !(d0 > 0 && d1 > 0 && d2 > 0 && d3 > 0) {
		return DOP{}, errDegenerateDOP
	}
	l33 := math.Sqrt(d3)
	// M = L⁻¹, lower triangular, by forward substitution.
	m00, m11, m22, m33 := 1/l00, 1/l11, 1/l22, 1/l33
	m10 := -l10 * m00 * m11
	m21 := -l21 * m11 * m22
	m20 := -(l20*m00 + l21*m10) * m22
	m32 := -l32 * m22 * m33
	m31 := -(l31*m11 + l32*m21) * m33
	m30 := -(l30*m00 + l31*m10 + l32*m20) * m33
	qe := m00*m00 + m10*m10 + m20*m20 + m30*m30
	qn := m11*m11 + m21*m21 + m31*m31
	qu := m22*m22 + m32*m32
	qt := m33 * m33
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

// DOPFromObs returns the DOP factors for a receiver at recv observing the
// satellites of obs. At least 4 satellites are required. The geometry
// matrix is built in the receiver's local ENU frame, so HDOP/VDOP are
// meaningful, and the whole computation runs in fixed-size storage (no
// heap allocation), so it sits on the per-fix hot path for free.
func DOPFromObs(recv geo.ECEF, obs []Observation) (DOP, error) {
	return DOPFromObsLLA(recv, recv.ToLLA(), obs)
}

// DOPFromObsLLA is DOPFromObs for a caller that already holds the
// receiver's geodetic position: lla must be recv.ToLLA() or
// recv.ToLLAFast(). The two differ only in the last bits of latitude, so
// either orients the ENU frame; DOPFromObs itself uses ToLLA. A fix
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
	dop, err := DOPFromObs(sol.Pos, obs)
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
