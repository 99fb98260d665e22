package interval

import (
	"math"
	"math/bits"
)

// Transfer functions. Each returns a conservative superset of the concrete
// results. A potential 64-bit signed overflow widens the result to Top
// (the paper's wraparound rule).

// Add returns the range of a+b.
func Add(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty()
	}
	lo, okLo := addChecked(a.Lo, b.Lo)
	hi, okHi := addChecked(a.Hi, b.Hi)
	if !okLo || !okHi {
		return Top()
	}
	return Interval{lo, hi, true}
}

// Sub returns the range of a-b.
func Sub(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty()
	}
	lo, okLo := subChecked(a.Lo, b.Hi)
	hi, okHi := subChecked(a.Hi, b.Lo)
	if !okLo || !okHi {
		return Top()
	}
	return Interval{lo, hi, true}
}

// Mul returns the range of a*b.
func Mul(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty()
	}
	lo := int64(math.MaxInt64)
	hi := int64(math.MinInt64)
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, y := range [2]int64{b.Lo, b.Hi} {
			p, ok := mulChecked(x, y)
			if !ok {
				return Top()
			}
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
	}
	return Interval{lo, hi, true}
}

// And returns a conservative range of a&b. Precise bounds for bitwise
// operations on intervals require bit-blasting; the cases that matter for
// operand gating are masks and non-negative operands, which are handled
// tightly.
func And(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty()
	}
	// Constant & constant.
	if av, ok := a.IsConst(); ok {
		if bv, ok2 := b.IsConst(); ok2 {
			return Const(av & bv)
		}
	}
	aNonNeg, bNonNeg := a.Lo >= 0, b.Lo >= 0
	switch {
	case aNonNeg && bNonNeg:
		// Result within [0, min(aHi, bHi)].
		return Interval{0, min64(a.Hi, b.Hi), true}
	case aNonNeg:
		// b may be negative (e.g. sign-extended mask): result keeps a's bound.
		return Interval{0, a.Hi, true}
	case bNonNeg:
		return Interval{0, b.Hi, true}
	}
	return Top()
}

// Or returns a conservative range of a|b.
func Or(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty()
	}
	if av, ok := a.IsConst(); ok {
		if bv, ok2 := b.IsConst(); ok2 {
			return Const(av | bv)
		}
	}
	if a.Lo >= 0 && b.Lo >= 0 {
		// OR cannot exceed the next power-of-two bound of max(aHi,bHi)
		// and cannot be below max(aLo, bLo).
		m := max64(a.Hi, b.Hi)
		return Interval{max64(a.Lo, b.Lo), ceilPow2Mask(m), true}
	}
	if a.Hi < 0 || b.Hi < 0 {
		// Any negative operand forces a negative result (sign bit set).
		return Interval{math.MinInt64, -1, true}
	}
	return Top()
}

// Xor returns a conservative range of a^b.
func Xor(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty()
	}
	if av, ok := a.IsConst(); ok {
		if bv, ok2 := b.IsConst(); ok2 {
			return Const(av ^ bv)
		}
	}
	if a.Lo >= 0 && b.Lo >= 0 {
		m := max64(a.Hi, b.Hi)
		return Interval{0, ceilPow2Mask(m), true}
	}
	return Top()
}

// AndNot returns a conservative range of a &^ b.
func AndNot(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty()
	}
	if av, ok := a.IsConst(); ok {
		if bv, ok2 := b.IsConst(); ok2 {
			return Const(av &^ bv)
		}
	}
	if a.Lo >= 0 {
		// Clearing bits of a non-negative value keeps it in [0, aHi].
		return Interval{0, a.Hi, true}
	}
	return Top()
}

// Shl returns the range of a<<s where the shift amount interval is masked
// to [0,63] (the ISA's shift-amount field).
func Shl(a, s Interval) Interval {
	if a.IsEmpty() || s.IsEmpty() {
		return Empty()
	}
	sLo, sHi, ok := shiftRange(s)
	if !ok {
		return Top()
	}
	lo := int64(math.MaxInt64)
	hi := int64(math.MinInt64)
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, amt := range [2]int64{sLo, sHi} {
			p, ok := shlChecked(x, uint(amt))
			if !ok {
				return Top()
			}
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
	}
	// Shl is monotone in the value but not in the amount for negatives;
	// evaluating the 4 corner combinations is safe only when no overflow
	// occurred at any corner and the function is monotone between them,
	// which holds for left shift by a fixed amount. Mixed amounts on a
	// sign-crossing interval are widened.
	if a.Lo < 0 && a.Hi > 0 && sLo != sHi {
		return Top()
	}
	return Interval{lo, hi, true}
}

// Shr returns the range of the logical right shift a>>s (unsigned).
func Shr(a, s Interval) Interval {
	if a.IsEmpty() || s.IsEmpty() {
		return Empty()
	}
	sLo, sHi, ok := shiftRange(s)
	if !ok {
		return Top()
	}
	if a.Lo < 0 {
		// Logical shift of a negative value yields a huge positive
		// number; only a zero shift preserves it. Be conservative.
		if sLo == 0 && sHi == 0 {
			return a
		}
		return Top()
	}
	// Non-negative: monotone decreasing in shift amount.
	return Interval{a.Lo >> uint(sHi), a.Hi >> uint(sLo), true}
}

// Sar returns the range of the arithmetic right shift a>>s.
func Sar(a, s Interval) Interval {
	if a.IsEmpty() || s.IsEmpty() {
		return Empty()
	}
	sLo, sHi, ok := shiftRange(s)
	if !ok {
		return Top()
	}
	// Arithmetic shift is monotone in the value for fixed amounts; take
	// corner extremes over both bounds of the amount.
	lo := min64(a.Lo>>uint(sLo), a.Lo>>uint(sHi))
	hi := max64(a.Hi>>uint(sLo), a.Hi>>uint(sHi))
	return Interval{lo, hi, true}
}

// MaskLow returns the range of a & (2^(8k)-1), keeping the low k bytes and
// zeroing the rest (the MSKL operation).
func MaskLow(a Interval, k int) Interval {
	if a.IsEmpty() {
		return Empty()
	}
	if k >= 8 {
		return a
	}
	mask := int64(1)<<uint(8*k) - 1
	if a.Lo >= 0 && a.Hi <= mask {
		return a
	}
	return Interval{0, mask, true}
}

// SignExtend returns the range of sign-extending the low k bytes of a.
func SignExtend(a Interval, k int) Interval {
	if a.IsEmpty() {
		return Empty()
	}
	if k >= 8 {
		return a
	}
	if a.FitsBytes(k) {
		return a // already representable: sext is the identity
	}
	return WidthBounds(k)
}

// ExtractByte returns the range of extracting one byte: always [0,255].
func ExtractByte(a Interval) Interval {
	if a.IsEmpty() {
		return Empty()
	}
	if a.Lo >= 0 && a.Hi <= 255 {
		return a // extracting byte 0 of a small value
	}
	return Interval{0, 255, true}
}

// CmpResult is the range of any comparison result: {0,1}. When the operand
// ranges decide the comparison statically, the singleton is returned.
func CmpResult(decided bool, value bool) Interval {
	if !decided {
		return Interval{0, 1, true}
	}
	if value {
		return Const(1)
	}
	return Const(0)
}

// shiftRange clamps the shift-amount interval to the architectural [0,63]
// field (the ISA masks the amount to 6 bits, so any out-of-field interval
// conservatively becomes the full field). ok is false only for empty input.
func shiftRange(s Interval) (lo, hi int64, ok bool) {
	if s.IsEmpty() {
		return 0, 0, false
	}
	if s.Lo < 0 || s.Hi > 63 {
		return 0, 63, true
	}
	return s.Lo, s.Hi, true
}

func addChecked(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

func subChecked(a, b int64) (int64, bool) {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		return 0, false
	}
	return d, true
}

func mulChecked(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		return 0, false
	}
	r := a * b
	if r/b != a {
		return 0, false
	}
	return r, true
}

func shlChecked(a int64, s uint) (int64, bool) {
	if s >= 64 {
		return 0, a == 0
	}
	r := a << s
	if r>>s != a {
		return 0, false
	}
	return r, true
}

// ceilPow2Mask returns the smallest 2^k-1 >= v for v >= 0.
func ceilPow2Mask(v int64) int64 {
	if v <= 0 {
		return 0
	}
	n := bits.Len64(uint64(v))
	if n >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(n) - 1
}
