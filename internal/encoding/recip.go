// Multiply-shift reciprocal division (Granlund & Montgomery, "Division by
// Invariant Integers using Multiplication"; the precomputation follows
// Lemire's exposition). Decoding a key is two integer divisions per variable
// (Eq. 4: s_j = (key / stride_j) mod r_j), and the scan path performs that
// per table entry per variable — at n=50 the fused MI pass does ~100 hardware
// divides per entry. Strides and cardinalities are fixed at codec
// construction, so each divisor is replaced by a precomputed magic multiplier
// and a shift: one widening multiply plus a shift per division.
//
// The construction is exact for all dividends below 2^63, which the codec
// guarantees (MaxKeyBits): for a divisor d in [2, 2^63), let
//
//	l = ceil(log2 d),  m = ceil(2^(63+l) / d).
//
// Then 2^63 <= m < 2^64 (m fits a uint64 with no overflow fixup) and, since
// m·d - 2^(63+l) ∈ [0, d-1] ⊆ [0, 2^l), Theorem 4.2 of Granlund–Montgomery
// gives floor(n·m / 2^(63+l)) == floor(n/d) for every n < 2^63. The quotient
// is computed as mulhi(n, m) >> (l-1). d == 1 cannot be represented this way
// (m would need 2^64) and is handled by a zero-value sentinel: mul == 0 means
// "divide by one", a perfectly predicted branch in the kernels.
package encoding

import (
	"fmt"
	"math/bits"
)

// Reciprocal divides uint64 values below 2^MaxKeyBits by a fixed divisor
// using a widening multiply and a shift instead of a hardware division. The
// zero value divides by one.
type Reciprocal struct {
	mul   uint64 // magic multiplier m; 0 is the divide-by-one sentinel
	shift uint8  // post-multiply shift l-1 applied to the high word
}

// NewReciprocal returns the reciprocal of d. It panics if d is zero or does
// not fit in MaxKeyBits bits, mirroring the codec's key-space contract.
func NewReciprocal(d uint64) Reciprocal {
	if d == 0 {
		panic("encoding: reciprocal of zero")
	}
	if d >= 1<<MaxKeyBits {
		panic(fmt.Sprintf("encoding: reciprocal divisor %d exceeds %d bits", d, MaxKeyBits))
	}
	if d == 1 {
		return Reciprocal{}
	}
	l := uint(bits.Len64(d - 1)) // ceil(log2 d), in [1, 63]
	// m = ceil(2^(63+l) / d). The dividend's high word 2^(l-1) is < d
	// (d > 2^(l-1) by choice of l), so Div64 cannot overflow or panic.
	m, rem := bits.Div64(uint64(1)<<(l-1), 0, d)
	if rem != 0 {
		m++
	}
	return Reciprocal{mul: m, shift: uint8(l - 1)}
}

// Div returns n / d for the reciprocal's divisor d. Exact for all
// n < 2^MaxKeyBits; callers feed it keys, which the codec keeps below that
// bound by construction.
func (r Reciprocal) Div(n uint64) uint64 {
	if r.mul == 0 {
		return n
	}
	hi, _ := bits.Mul64(n, r.mul)
	return hi >> r.shift
}

// digit decodes one mixed-radix position: (key / stride) mod card, with both
// the division and the modulus reduced to multiply-shift reciprocals. The
// modulus is recovered as q - (q/card)·card.
type digit struct {
	rs   Reciprocal // reciprocal of the position's stride
	rc   Reciprocal // reciprocal of the position's cardinality
	card uint64
	// pow2 reports that stride and card are both powers of two, as in every
	// binary codec, so the digit is (key >> shift) & (card-1). Only the
	// subset block kernel (SubsetDecoder.CellBlock) reads these; decode
	// stays branch-free.
	pow2  bool
	shift uint8
}

func newDigit(stride, card uint64) digit {
	d := digit{rs: NewReciprocal(stride), rc: NewReciprocal(card), card: card}
	if bits.OnesCount64(stride) == 1 && bits.OnesCount64(card) == 1 {
		d.pow2, d.shift = true, uint8(bits.TrailingZeros64(stride))
	}
	return d
}

func (d digit) decode(key uint64) uint64 {
	q := d.rs.Div(key)
	return q - d.rc.Div(q)*d.card
}

// VarDecoder decodes the state of one fixed variable from keys, division
// free. Block scan kernels hold one per column so a batch of keys can be
// decoded into a dense state column with no per-key dispatch.
type VarDecoder struct {
	d digit
}

// VarDecoder returns a decoder for variable j. It panics if j is out of
// range.
func (c *Codec) VarDecoder(j int) VarDecoder {
	if j < 0 || j >= len(c.dig) {
		panic(fmt.Sprintf("encoding: variable %d out of range [0,%d)", j, len(c.dig)))
	}
	return VarDecoder{d: c.dig[j]}
}

// Decode returns the variable's state encoded in key.
func (v VarDecoder) Decode(key uint64) uint8 { return uint8(v.d.decode(key)) }

// Quot returns key / stride_j, the number of variable-j digit boundaries at
// or below key. Over a sorted key run, equal quotients at the endpoints mean
// no boundary lies inside the run, so the digit is constant across it; more
// generally the quotient difference bounds how many times the digit can
// change. Sorted-block scan kernels use this to skip or run-length-compress
// per-entry decoding.
func (v VarDecoder) Quot(key uint64) uint64 { return v.d.rs.Div(key) }

// DecodeBlock decodes the variable's state for every key in keys into
// dst[:len(keys)]. dst must be at least as long as keys.
func (v VarDecoder) DecodeBlock(keys []uint64, dst []uint8) {
	if len(keys) == 0 {
		return
	}
	dst = dst[:len(keys)]
	for e, k := range keys {
		dst[e] = uint8(v.d.decode(k))
	}
}
