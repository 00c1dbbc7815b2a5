package atmosphere

import "math"

// CN0 ↔ σ mapping. The carrier-to-noise density C/N0 the tracking loops
// report is the standard proxy for per-satellite pseudo-range quality:
// code tracking jitter scales inversely with signal amplitude, so σ
// grows 10× per 20 dB-Hz of C/N0 loss. The mapping is exactly
// invertible, so a simulated observation can advertise a C/N0 that is
// consistent with its synthesized error budget and a solver mapping it
// back recovers an honest weight. It lives here — with the other
// signal-path models — so both the scenario generator (forward) and the
// solver layer (inverse) can share it without an import cycle.
const (
	// CN0RefDBHz is the carrier-to-noise density of a nominal open-sky
	// signal near zenith.
	CN0RefDBHz = 44.0
	// SigmaAtRefM is the 1σ pseudo-range noise (meters) such a signal
	// produces.
	SigmaAtRefM = 0.8
)

// SigmaFromCN0 maps a reported carrier-to-noise density (dB-Hz) to the
// 1σ pseudo-range noise in meters. Non-positive or non-finite C/N0
// means the receiver reported nothing usable; the result is 0
// ("unknown"), which the weighted solvers treat as the homoscedastic
// default.
func SigmaFromCN0(cn0 float64) float64 {
	if cn0 <= 0 || math.IsNaN(cn0) || math.IsInf(cn0, 0) {
		return 0
	}
	return SigmaAtRefM * pow10((CN0RefDBHz-cn0)/20)
}

// ln10 is math.Log(10), taken once for pow10.
var ln10 = math.Log(10)

// pow10 returns 10**y bit for bit as math.Pow(10, y) computes it with
// Go's portable pow (every GOARCH but s390x, which has an assembly Pow):
// the same special cases, the same split of |y| into an integer part
// and a fraction of at most ½, the same Exp of the fraction and the same
// square-and-multiply over the integer part's bits. Only ln 10 is
// hoisted: math.Pow takes math.Log(10) on every call.
func pow10(y float64) float64 {
	switch {
	case y == 0:
		return 1
	case y == 1:
		return 10
	case math.IsNaN(y):
		return math.NaN()
	case math.IsInf(y, 1):
		return math.Inf(1)
	case math.IsInf(y, -1):
		return 0
	case y == 0.5:
		return math.Sqrt(10)
	case y == -0.5:
		return 1 / math.Sqrt(10)
	}
	yi, yf := math.Modf(math.Abs(y))
	if yi >= 1<<63 {
		// An even integer far beyond the float64 range of 10**y.
		if y > 0 {
			return math.Inf(1)
		}
		return 0
	}
	// ans = a1·2**ae, starting from 10**yf.
	a1, ae := 1.0, 0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = math.Exp(yf * ln10)
	}
	// ans *= 10**yi by successive squarings of 10 = 0.625·2⁴, the
	// powers of two accumulated in the exponent.
	x1, xe := 0.625, 4
	for i := int64(yi); i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// The exponent already lies beyond float64's range; Ldexp
			// turns it into Inf or 0.
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	if y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	return math.Ldexp(a1, ae)
}

// CN0FromSigma is the exact inverse of SigmaFromCN0 for positive sigma:
// the C/N0 a receiver would report for a signal whose tracking noise is
// sigma meters 1σ.
func CN0FromSigma(sigma float64) float64 {
	return CN0RefDBHz - 20*math.Log10(sigma/SigmaAtRefM)
}
