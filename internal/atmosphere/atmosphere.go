// Package atmosphere models the signal-path delays a GPS pseudo-range
// picks up between satellite and receiver: ionospheric delay (Klobuchar-
// style single-layer model), tropospheric delay (Saastamoinen-style zenith
// delay with a cosecant mapping), and elevation-dependent multipath noise.
//
// These supply the satellite-dependent error εᵢˢ of paper eq. 3-5. Real
// receivers correct most of each delay with broadcast models; what matters
// to the positioning algorithms is the *residual* after correction, which
// the scenario generator forms by scaling the modeled delay by a
// configurable remainder fraction.
//
// Each delay is the product of factors that depend on different inputs:
// the ionosphere's vertical delay on local time alone (IonoVertical) and
// its obliquity on elevation alone (IonoObliquity); the troposphere's
// zenith delay on station altitude alone (TropoZenith) and its slant
// mapping on elevation (TropoSlant). A caller synthesizing many
// observations computes each factor once per epoch, station or satellite;
// IonoDelay and TropoDelay are the same products in one call.
package atmosphere

import (
	"math"
)

// Model parameters with sensible mid-latitude L1 defaults.
const (
	// ZenithIonoQuietM is the quiet-time zenith ionospheric delay in
	// meters (night-time floor of the Klobuchar model, ≈5 ns).
	ZenithIonoQuietM = 1.5
	// ZenithIonoPeakM is the additional diurnal peak amplitude in meters.
	ZenithIonoPeakM = 6.0
	// IonoPeakLocalTime is the local solar time of the ionospheric peak
	// (14:00, the standard Klobuchar phase) in seconds of day.
	IonoPeakLocalTime = 50400.0
	// IonoPeriod is the Klobuchar cosine period in seconds (the model
	// uses a fixed 32 h unless broadcast says otherwise; we keep 24 h
	// periodicity for a self-consistent simulated day).
	IonoPeriod = 86400.0
	// ZenithTropoSeaLevelM is the total zenith tropospheric delay at sea
	// level in meters (hydrostatic + wet, Saastamoinen magnitude).
	ZenithTropoSeaLevelM = 2.4
	// TropoScaleHeightM is the exponential decay height of the
	// tropospheric delay with station altitude.
	TropoScaleHeightM = 8000.0
)

// IonoDelay returns the slant ionospheric group delay in meters for a
// signal at elevation elev (radians) observed at local solar time
// localTime (seconds of day): IonoVertical(localTime)·IonoObliquity(elev).
func IonoDelay(elev, localTime float64) float64 {
	return IonoVertical(localTime) * IonoObliquity(elev)
}

// IonoVertical returns the vertical ionospheric delay in meters at local
// solar time localTime (seconds of day). The diurnal shape is the
// Klobuchar half-cosine: quiet floor at night, peak in the early
// afternoon.
func IonoVertical(localTime float64) float64 {
	x := 2 * math.Pi * (math.Mod(localTime, IonoPeriod) - IonoPeakLocalTime) / IonoPeriod
	vertical := ZenithIonoQuietM
	if math.Cos(x) > 0 {
		vertical += ZenithIonoPeakM * math.Cos(x)
	}
	return vertical
}

// IonoObliquity returns the Klobuchar slant factor
// F = 1 + 16·(0.53 − E)³, E the elevation in semicircles, for an
// elevation elev in radians; negative elevations count as the horizon.
// The cube is two multiplications: for the integer exponent 3,
// math.Pow multiplies the same mantissas and only rescales by powers of
// two, so the result is bit-identical on [0, π/2].
func IonoObliquity(elev float64) float64 {
	if elev < 0 {
		elev = 0
	}
	d := 0.53 - elev/math.Pi
	f := 1 + 16*(d*d*d)
	if f < 1 {
		f = 1
	}
	return f
}

// TropoDelay returns the slant tropospheric delay in meters at elevation
// elev (radians) for a station at altitude alt meters:
// TropoSlant(TropoZenith(alt), elev).
func TropoDelay(elev, alt float64) float64 {
	return TropoSlant(TropoZenith(alt), elev)
}

// TropoZenith returns the zenith tropospheric delay in meters for a
// station at altitude alt meters, decaying exponentially with height
// (stations below sea level count as sea level).
func TropoZenith(alt float64) float64 {
	return ZenithTropoSeaLevelM * math.Exp(-math.Max(alt, 0)/TropoScaleHeightM)
}

// TropoSlant maps a zenith tropospheric delay to elevation elev
// (radians) with a cosecant mapping floored at 3° to avoid the
// singularity at the horizon.
func TropoSlant(zenith, elev float64) float64 {
	minElev := 3 * math.Pi / 180
	if elev < minElev {
		elev = minElev
	}
	return zenith / math.Sin(elev)
}

// MultipathSigma returns the standard deviation (meters) of multipath
// error at elevation elev, using the standard exponential elevation
// profile: strong near the horizon, negligible at zenith.
func MultipathSigma(elev float64) float64 {
	const (
		sigmaZero = 1.2  // meters at the horizon
		decay     = 0.25 // radians e-folding
	)
	if elev < 0 {
		elev = 0
	}
	return sigmaZero * math.Exp(-elev/decay)
}
