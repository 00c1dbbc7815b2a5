package nmea

import (
	"math"
	"math/bits"
	"strconv"

	"gpsdl/internal/geo"
)

// Allocation-free sentence encoders. AppendGGA/AppendRMC write into a
// caller-supplied buffer (append-style, like strconv.Append*); GGA and
// RMC are thin string wrappers around them. With a reused buffer the
// steady-state cost is zero allocations per sentence, which is what puts
// NMEA output on the fix engine's hot path. AppendFixPair renders a fix's
// GGA+RMC pair in one pass: the two sentences share their time and
// latitude/longitude fields, so RMC copies the bytes GGA just rendered.
// All three are built from appendGGA and appendRMC, so each sentence
// layout is written once.

const hexUpper = "0123456789ABCDEF"

// AppendGGA appends a $GPGGA sentence for f to dst and returns the
// extended buffer.
func AppendGGA(dst []byte, f Fix) []byte {
	dst, _, _ = appendGGA(dst, f)
	return dst
}

// AppendRMC appends a $GPRMC sentence for f to dst and returns the
// extended buffer (date fields blank: the simulation clock carries
// seconds of day, not calendar dates).
func AppendRMC(dst []byte, f Fix) []byte {
	var fields [64]byte
	b := appendTimeField(fields[:0], f.TimeOfDay)
	n := len(b)
	b = appendLatLon(b, f.Pos)
	return appendRMC(dst, f, b[:n], b[n:])
}

// AppendFixPair appends f's GGA sentence and then its RMC sentence to dst,
// byte for byte what AppendRMC(AppendGGA(dst, f), f) appends, and
// returns the extended buffer and the offset at which RMC begins.
func AppendFixPair(dst []byte, f Fix) (out []byte, rmc int) {
	dst, tm, ll := appendGGA(dst, f)
	rmc = len(dst)
	return appendRMC(dst, f, dst[tm[0]:tm[1]], dst[ll[0]:ll[1]]), rmc
}

// appendGGA appends the GGA sentence and reports the byte ranges of its
// time field and of its latitude/longitude fields in the returned buffer.
func appendGGA(dst []byte, f Fix) (out []byte, tm, ll [2]int) {
	dst = append(dst, '$')
	body := len(dst)
	dst = append(dst, "GPGGA,"...)
	tm[0] = len(dst)
	dst = appendTimeField(dst, f.TimeOfDay)
	tm[1] = len(dst)
	dst = append(dst, ',')
	ll[0] = len(dst)
	dst = appendLatLon(dst, f.Pos)
	ll[1] = len(dst)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(f.Quality), 10)
	dst = append(dst, ',')
	if f.NumSats >= 0 && f.NumSats < 10 { // fmt's %02d
		dst = append(dst, '0')
	}
	dst = strconv.AppendInt(dst, int64(f.NumSats), 10)
	dst = append(dst, ',')
	dst = appendFixed(dst, f.HDOP, 1)
	dst = append(dst, ',')
	dst = appendFixed(dst, f.Pos.Alt, 1)
	dst = append(dst, ",M,0.0,M,,"...)
	return appendChecksum(dst, body), tm, ll
}

// appendRMC appends the RMC sentence for f with its time field and its
// latitude/longitude fields already rendered as tm and ll. Either may
// alias dst's backing array below len(dst): append copies from it
// before (or without) overwriting anything it holds.
func appendRMC(dst []byte, f Fix, tm, ll []byte) []byte {
	dst = append(dst, '$')
	body := len(dst)
	dst = append(dst, "GPRMC,"...)
	dst = append(dst, tm...)
	if f.Quality == QualityInvalid {
		dst = append(dst, ",V,"...)
	} else {
		dst = append(dst, ",A,"...)
	}
	dst = append(dst, ll...)
	dst = append(dst, ',')
	dst = appendFixed(dst, f.SpeedKnots, 1)
	dst = append(dst, ',')
	dst = appendFixed(dst, f.CourseDeg, 1)
	dst = append(dst, ",,,"...)
	return appendChecksum(dst, body)
}

// appendLatLon renders the latitude and longitude fields of p, four
// comma-separated fields: ddmm.mmmm,H,dddmm.mmmm,H.
func appendLatLon(dst []byte, p geo.LLA) []byte {
	dst = appendAngle(dst, p.Lat, 2, 'N', 'S')
	dst = append(dst, ',')
	return appendAngle(dst, p.Lon, 3, 'E', 'W')
}

// appendChecksum XORs dst[body:] and appends *HH.
func appendChecksum(dst []byte, body int) []byte {
	c := Checksum(dst[body:])
	return append(dst, '*', hexUpper[c>>4], hexUpper[c&0x0f])
}

// pow10 holds every power of ten that fits in a uint64.
var pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// roundFixed returns |v|·10^prec rounded to an integer, ties to even,
// computed exactly: v = mant·2^-shift, so mant·10^prec is formed in 128
// bits and shifted, and the bits shifted out decide the rounding. That
// is the rounding strconv's 'f' format applies to the exact decimal
// expansion of v. ok is false for NaN, ±Inf, subnormals, |v| ≥ 2^52,
// prec outside [0, 19], and results of 2^63 or more.
func roundFixed(v float64, prec int) (q uint64, ok bool) {
	b := math.Float64bits(v)
	exp := int(b>>52) & 0x7ff
	mant := b & (1<<52 - 1)
	shift := 1075 - exp
	if shift <= 0 || (exp == 0 && mant != 0) || uint(prec) >= uint(len(pow10)) {
		return 0, false
	}
	if exp != 0 { // else v is ±0 and mant is already 0
		mant |= 1 << 52
	}
	hi, lo := bits.Mul64(mant, pow10[prec])
	// mant·10^prec < 2^117, so every shift ≥ 118 yields q = 0 with a
	// remainder below half; capping keeps the shift counts below in range.
	shift = min(shift, 127)
	// q = (hi:lo) >> shift; (rhi:rlo) is the remainder left-aligned in
	// 128 bits, so half a unit is exactly rhi = 1<<63, rlo = 0.
	var rhi, rlo uint64
	if shift < 64 {
		if hi>>(shift-1) != 0 { // q ≥ 2^63: leave room to round up
			return 0, false
		}
		q = hi<<(64-shift) | lo>>shift
		rhi = lo << (64 - shift)
	} else {
		q = hi >> (shift - 64)
		rhi, rlo = hi<<(128-shift)|lo>>(shift-64), lo<<(128-shift)
	}
	const half = 1 << 63
	if rhi > half || (rhi == half && (rlo != 0 || q&1 == 1)) {
		q++
	}
	return q, true
}

// appendDecimal appends q/10^prec with exactly prec fraction digits,
// zero-padded on the left to width bytes.
func appendDecimal(dst []byte, q uint64, prec, width int) []byte {
	var buf [32]byte
	i := len(buf)
	for n := 0; n <= prec || q > 0 || len(buf)-i < width; n++ {
		if n == prec && prec > 0 {
			i--
			buf[i] = '.'
		}
		i--
		buf[i] = byte('0' + q%10)
		q /= 10
	}
	return append(dst, buf[i:]...)
}

// appendFixed appends exactly what strconv.AppendFloat(dst, v, 'f',
// prec, 64) does, without strconv's multiprecision fallback for the 'f'
// format with an explicit precision. The sign is kept for negative
// values that round to zero and for −0, as strconv does.
func appendFixed(dst []byte, v float64, prec int) []byte {
	q, ok := roundFixed(v, prec)
	if !ok {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	if math.Signbit(v) {
		dst = append(dst, '-')
	}
	return appendDecimal(dst, q, prec, 0)
}

// appendTimeField renders hhmmss.ss from seconds of day. The time is
// rounded to centiseconds once, so a seconds field that rounds to 60
// carries into the minutes and hours, and 24 h wraps to 000000.00. A
// non-finite time renders as an empty field.
func appendTimeField(dst []byte, t float64) []byte {
	t = math.Mod(t, 86400)
	if t < 0 {
		t += 86400
	}
	cs, ok := roundFixed(t, 2)
	if !ok {
		return dst
	}
	cs %= 86400 * 100
	// hhmmss.ss is the integer hhmmsscc printed with two decimals.
	return appendDecimal(dst, cs/360000*1e6+cs/6000%60*1e4+cs%6000, 2, 9)
}

// appendAngle renders an angle in radians as d…dmm.mmmm,H with at least
// degWidth degree digits, hemisphere pos for non-negative angles (−0
// included) and neg otherwise. Minutes that round to 60 carry into the
// degrees. A non-finite angle renders as two empty fields.
func appendAngle(dst []byte, rad float64, degWidth int, pos, neg byte) []byte {
	hemi := pos
	if rad < 0 {
		hemi = neg
	}
	deg := math.Abs(rad) * 180 / math.Pi
	d := math.Floor(deg)
	mq, ok := roundFixed((deg-d)*60, 4)
	if !ok {
		return append(dst, ',')
	}
	if mq == 60*1e4 {
		d++
		mq = 0
	}
	if dq, ok := roundFixed(d, 0); ok {
		dst = appendDecimal(dst, dq, 0, degWidth)
	} else {
		dst = strconv.AppendFloat(dst, d, 'f', 0, 64)
	}
	dst = appendDecimal(dst, mq, 4, 7)
	return append(dst, ',', hemi)
}
