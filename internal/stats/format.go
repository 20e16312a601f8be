package stats

import (
	"math"
	"strconv"
)

// pow10 holds the powers of ten from 1e0 to 1e15, each exact in a
// float64, so comparing against them finds a value's decimal exponent
// without rounding.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// AppendFixed appends v with prec digits after the decimal point, the
// bytes of strconv.AppendFloat(dst, v, 'f', prec, 64) and so of
// fmt's %.<prec>f. strconv spells a fixed precision through its slow
// multiprecision path; for 1 <= |v| < 1e15 the value's integer digits
// are known exactly, so the same rounding is asked of strconv's fast
// fixed-digit 'e' path instead and the decimal point is moved. Both
// paths round the exact binary value half to even, so the bytes agree.
// Other values (|v| < 1, huge, NaN, ±Inf) take strconv's 'f' path.
func AppendFixed(dst []byte, v float64, prec int) []byte {
	a := math.Abs(v)
	if !(a >= 1 && a < pow10[len(pow10)-1]) || prec < 0 {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	e10 := 0 // 10^e10 <= a < 10^(e10+1)
	for a >= pow10[e10+1] {
		e10++
	}
	// strconv's fast path takes at most 18 significant digits.
	if e10+prec+1 > 18 {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	var buf [32]byte
	s := strconv.AppendFloat(buf[:0], v, 'e', e10+prec, 64) // [-]d[.ddd]e+xx
	if s[0] == '-' {
		dst = append(dst, '-')
		s = s[1:]
	}
	// Collect the rounded digits and read back the exponent: it is e10,
	// or e10+1 when rounding carried into a new leading digit (9.96 at
	// one place is 1.0e+01), which adds a trailing zero to the fixed
	// form (10.0).
	var digits [24]byte
	n, i := 0, 0
	for ; s[i] != 'e'; i++ {
		if s[i] != '.' {
			digits[n] = s[i]
			n++
		}
	}
	x := 0
	for _, c := range s[i+2:] {
		x = 10*x + int(c-'0')
	}
	if x > e10 {
		digits[n] = '0'
		n++
	}
	dst = append(dst, digits[:n-prec]...)
	if prec > 0 {
		dst = append(dst, '.')
		dst = append(dst, digits[n-prec:n]...)
	}
	return dst
}
