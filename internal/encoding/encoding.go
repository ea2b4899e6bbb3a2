// Package encoding implements the state-string ↔ key codec at the heart of
// the potential-table representation (Eqs. 3 and 4 of the paper).
//
// A training record over n discrete random variables is a "state string"
// (s_1, ..., s_n) with s_j ∈ {0, ..., r_j-1}. Rather than storing the string
// itself with each table entry, the paper encodes it as a single integer key
// using a mixed-radix positional system:
//
//	key = Σ_j s_j · Π_{k<j} r_k        (Eq. 3; for uniform r: Σ_j s_j·r^(j-1))
//
// and recovers individual states with
//
//	s_j = (key / Π_{k<j} r_k) mod r_j   (Eq. 4)
//
// The codec precomputes the strides Π_{k<j} r_k so both directions are a
// handful of integer operations per variable, and decoding a *subset* of
// variables (needed by marginalization) never touches the other positions.
//
// Keys are uint64. A Codec can only be constructed when Π r_k fits in 63
// bits; this is exactly the sparse regime the paper targets (e.g. n=50
// binary variables → 2^50 possible keys, of which at most m are observed).
package encoding

import (
	"fmt"
	"math/bits"
)

// MaxKeyBits is the number of usable bits in a key. Products of
// cardinalities must fit strictly within this budget.
const MaxKeyBits = 63

// Codec converts between state strings and integer keys for a fixed list of
// per-variable cardinalities. It is immutable after construction and safe
// for concurrent use by multiple goroutines.
type Codec struct {
	card   []uint64 // cardinality r_j of each variable
	stride []uint64 // stride[j] = Π_{k<j} card[k]; stride[0] = 1
	dig    []digit  // reciprocal decoder for each position (see recip.go)
	space  uint64   // Π_j card[j] = total number of distinct keys
}

// NewCodec builds a codec for variables with the given cardinalities.
// Every cardinality must be at least 1, and their product must fit in 63
// bits; otherwise an error describing the offending input is returned.
func NewCodec(cardinalities []int) (*Codec, error) {
	if len(cardinalities) == 0 {
		return nil, fmt.Errorf("encoding: no variables")
	}
	c := &Codec{
		card:   make([]uint64, len(cardinalities)),
		stride: make([]uint64, len(cardinalities)),
	}
	space := uint64(1)
	for j, r := range cardinalities {
		if r < 1 {
			return nil, fmt.Errorf("encoding: variable %d has cardinality %d (must be >= 1)", j, r)
		}
		c.card[j] = uint64(r)
		c.stride[j] = space
		hi, lo := bits.Mul64(space, uint64(r))
		if hi != 0 || lo >= 1<<MaxKeyBits {
			return nil, fmt.Errorf("encoding: key space overflows %d bits at variable %d (cardinality %d)", MaxKeyBits, j, r)
		}
		space = lo
	}
	c.space = space
	c.dig = make([]digit, len(c.card))
	for j := range c.dig {
		c.dig[j] = newDigit(c.stride[j], c.card[j])
	}
	return c, nil
}

// NewUniformCodec builds a codec for n variables that all take r states,
// the simplified setting used throughout the paper's exposition.
func NewUniformCodec(n, r int) (*Codec, error) {
	if n <= 0 {
		return nil, fmt.Errorf("encoding: n must be positive, got %d", n)
	}
	card := make([]int, n)
	for i := range card {
		card[i] = r
	}
	return NewCodec(card)
}

// NumVars returns the number of variables n.
func (c *Codec) NumVars() int { return len(c.card) }

// Cardinality returns r_j, the number of states of variable j.
func (c *Codec) Cardinality(j int) int { return int(c.card[j]) }

// Cardinalities returns a copy of all per-variable cardinalities.
func (c *Codec) Cardinalities() []int {
	out := make([]int, len(c.card))
	for i, r := range c.card {
		out[i] = int(r)
	}
	return out
}

// KeySpace returns Π_j r_j, the number of distinct keys (one more than the
// largest encodable key).
func (c *Codec) KeySpace() uint64 { return c.space }

// Stride returns Π_{k<j} r_k, the positional weight of variable j in a key.
func (c *Codec) Stride(j int) uint64 { return c.stride[j] }

// Encode maps a state string to its key (Eq. 3). The states slice must have
// exactly NumVars entries, each within the variable's cardinality; violations
// panic, since they indicate corrupt training data that must not be counted.
//
// Encode is the single-row convenience wrapper; the construction hot path
// encodes whole blocks with EncodeRows / EncodeFlat, which hoist the length
// check and the stride loads out of the per-row loop.
func (c *Codec) Encode(states []uint8) uint64 {
	if len(states) != len(c.card) {
		panic(fmt.Sprintf("encoding: Encode got %d states, codec has %d variables", len(states), len(c.card)))
	}
	var key uint64
	for j, s := range states {
		if uint64(s) >= c.card[j] {
			panic(fmt.Sprintf("encoding: state %d of variable %d out of range [0,%d)", s, j, c.card[j]))
		}
		key += uint64(s) * c.stride[j]
	}
	return key
}

// badState reports an out-of-range observation. Kept out of line so the
// block-encode inner loops compile to a compare and a predictable branch.
func (c *Codec) badState(j int, s uint8) {
	panic(fmt.Sprintf("encoding: state %d of variable %d out of range [0,%d)", s, j, c.card[j]))
}

// EncodeRows encodes a block of state strings into dst[:len(rows)] and
// returns that prefix (Eq. 3 applied per row). dst must have length at least
// len(rows). The block is processed column-major: each pass holds one
// variable's stride and cardinality in registers and runs its multiply over
// the contiguous dst slab, and the per-row arity check happens once up
// front instead of once per Encode call.
func (c *Codec) EncodeRows(rows [][]uint8, dst []uint64) []uint64 {
	n := len(c.card)
	for i, row := range rows {
		if len(row) != n {
			panic(fmt.Sprintf("encoding: EncodeRows row %d has %d states, codec has %d variables", i, len(row), n))
		}
	}
	dst = dst[:len(rows)]
	if len(rows) == 0 {
		return dst
	}
	// Column 0 has stride 1 and initializes dst, so no zero-fill pass.
	card := c.card[0]
	for i, row := range rows {
		s := row[0]
		if uint64(s) >= card {
			c.badState(0, s)
		}
		dst[i] = uint64(s)
	}
	for j := 1; j < n; j++ {
		stride := c.stride[j]
		card = c.card[j]
		for i, row := range rows {
			s := row[j]
			if uint64(s) >= card {
				c.badState(j, s)
			}
			dst[i] += uint64(s) * stride
		}
	}
	return dst
}

// EncodeFlat encodes a block of rows stored contiguously row-major (the
// dataset's native cell layout: len(cells) must be a multiple of NumVars)
// into dst, one key per row, returning dst[:rows]. dst must have length at
// least len(cells)/NumVars. Like EncodeRows it runs column-major so each
// stride multiply streams over the contiguous dst slab with the stride and
// cardinality hoisted into registers; the cells column walks a fixed step n.
func (c *Codec) EncodeFlat(cells []uint8, dst []uint64) []uint64 {
	n := len(c.card)
	if len(cells)%n != 0 {
		panic(fmt.Sprintf("encoding: EncodeFlat got %d cells, not a multiple of %d variables", len(cells), n))
	}
	m := len(cells) / n
	dst = dst[:m]
	if m == 0 {
		return dst
	}
	card := c.card[0]
	idx := 0
	for i := range dst {
		s := cells[idx]
		if uint64(s) >= card {
			c.badState(0, s)
		}
		dst[i] = uint64(s)
		idx += n
	}
	for j := 1; j < n; j++ {
		stride := c.stride[j]
		card = c.card[j]
		idx = j
		for i := range dst {
			s := cells[idx]
			if uint64(s) >= card {
				c.badState(j, s)
			}
			dst[i] += uint64(s) * stride
			idx += n
		}
	}
	return dst
}

// Decode recovers the full state string from a key (Eq. 4 applied to every
// position), appending into dst to avoid allocation in hot loops. It panics
// if key is outside the key space.
func (c *Codec) Decode(key uint64, dst []uint8) []uint8 {
	if key >= c.space {
		panic(fmt.Sprintf("encoding: key %d outside key space %d", key, c.space))
	}
	for j := range c.dig {
		dst = append(dst, uint8(c.dig[j].decode(key)))
	}
	return dst
}

// DecodeVar extracts the state of a single variable j from a key (Eq. 4).
// This is the operation marginalization performs per key: O(1), and it never
// reconstructs the rest of the state string.
func (c *Codec) DecodeVar(key uint64, j int) uint8 {
	return uint8(c.dig[j].decode(key))
}

// PairDecoder decodes the states of a fixed pair of variables from keys.
// All-pairs mutual information (Algorithm 4) calls this once per table
// entry per pair, so the strides and cardinalities are captured up front.
type PairDecoder struct {
	digI, digJ digit
	cardJ      uint64
}

// PairDecoder returns a decoder for the (i, j) variable pair.
func (c *Codec) PairDecoder(i, j int) PairDecoder {
	return PairDecoder{digI: c.dig[i], digJ: c.dig[j], cardJ: c.card[j]}
}

// Decode returns the states (s_i, s_j) encoded in key.
func (d PairDecoder) Decode(key uint64) (uint8, uint8) {
	return uint8(d.digI.decode(key)), uint8(d.digJ.decode(key))
}

// Cell returns the row-major index s_i·r_j + s_j of the key's states in an
// r_i×r_j contingency table, the layout used by marginal tables.
func (d PairDecoder) Cell(key uint64) int {
	return int(d.digI.decode(key)*d.cardJ + d.digJ.decode(key))
}

// SubsetDecoder decodes the states of an arbitrary fixed subset V of
// variables from keys and flattens them into a mixed-radix cell index over
// V's joint state space. Marginalization onto V (Algorithm 3) uses one of
// these per worker.
type SubsetDecoder struct {
	dig       []digit  // reciprocal decoders for the subset variables
	card      []uint64 // cardinalities of the subset variables
	outStride []uint64 // row-major strides within the marginal table
	cells     uint64   // Π card over the subset
}

// SubsetDecoder returns a decoder for the given variables, in the given
// order (the order fixes the marginal table's layout). It panics if vars is
// empty, contains duplicates, or references an unknown variable.
func (c *Codec) SubsetDecoder(vars []int) *SubsetDecoder {
	if len(vars) == 0 {
		panic("encoding: SubsetDecoder with empty variable set")
	}
	d := &SubsetDecoder{
		dig:       make([]digit, len(vars)),
		card:      make([]uint64, len(vars)),
		outStride: make([]uint64, len(vars)),
	}
	seen := make(map[int]bool, len(vars))
	for k, v := range vars {
		if v < 0 || v >= len(c.card) {
			panic(fmt.Sprintf("encoding: variable %d out of range [0,%d)", v, len(c.card)))
		}
		if seen[v] {
			panic(fmt.Sprintf("encoding: duplicate variable %d in subset", v))
		}
		seen[v] = true
		d.dig[k] = c.dig[v]
		d.card[k] = c.card[v]
	}
	// Row-major: the last listed variable varies fastest.
	cells := uint64(1)
	for k := len(vars) - 1; k >= 0; k-- {
		d.outStride[k] = cells
		cells *= d.card[k]
	}
	d.cells = cells
	return d
}

// Cells returns the number of cells in the marginal table over the subset.
func (d *SubsetDecoder) Cells() int { return int(d.cells) }

// Cell maps a full-table key to the flattened marginal-table cell index of
// the subset's states.
func (d *SubsetDecoder) Cell(key uint64) int {
	var idx uint64
	for k := range d.dig {
		idx += d.dig[k].decode(key) * d.outStride[k]
	}
	return int(idx)
}

// CellBlock sets dst[e] = Cell(keys[e]) for every key, one subset variable
// at a time: each pass holds one variable's decode constants in registers
// and streams over the whole block. A variable whose stride and cardinality
// are powers of two decodes with a shift and a mask; the others use the
// reciprocal decode. When sorted is true the keys must be ascending, and a
// variable whose stride quotient is equal at the first and last key is
// constant over the block: it is decoded once and folded into a base offset.
// dst must be at least as long as keys.
func (d *SubsetDecoder) CellBlock(keys []uint64, sorted bool, dst []uint64) {
	if len(keys) == 0 {
		return
	}
	dst = dst[:len(keys)]
	first, last := keys[0], keys[len(keys)-1]
	var base uint64
	set := true // the first decoded column stores, the rest add
	for k := range d.dig {
		dg := &d.dig[k]
		if dg.card == 1 {
			continue // always state 0; recipColumn also relies on card > 1
		}
		out := d.outStride[k]
		if sorted {
			if q := dg.rs.Div(first); q == dg.rs.Div(last) {
				base += (q - dg.rc.Div(q)*dg.card) * out
				continue
			}
		}
		if dg.pow2 {
			pow2Column(keys, dst, dg.shift, dg.card-1, out, set)
		} else {
			recipColumn(keys, dst, *dg, out, set)
		}
		set = false
	}
	switch {
	case set:
		for e := range dst {
			dst[e] = base
		}
	case base != 0:
		for e := range dst {
			dst[e] += base
		}
	}
}

// pow2Column adds ((key >> s) & mask) · out to dst[e] for every key, or
// stores it when set is true. len(dst) must equal len(keys). It is kept out
// of line, as is recipColumn, so its loop gets registers to itself.
//
//go:noinline
func pow2Column(keys, dst []uint64, s uint8, mask, out uint64, set bool) {
	dst = dst[:len(keys)]
	s &= 63
	if set {
		for e, key := range keys {
			dst[e] = (key >> s & mask) * out
		}
		return
	}
	for e, key := range keys {
		dst[e] += (key >> s & mask) * out
	}
}

// recipColumn is pow2Column for a digit decoded by reciprocals. It is
// digit.decode with the multipliers and shifts held in registers; the
// divide-by-one sentinel can only be the stride (a cardinality of 1 never
// reaches here), so the stride-one column gets its own loop.
//
//go:noinline
func recipColumn(keys, dst []uint64, dg digit, out uint64, set bool) {
	dst = dst[:len(keys)]
	ms, ss := dg.rs.mul, dg.rs.shift&63
	mc, sc, card := dg.rc.mul, dg.rc.shift&63, dg.card
	if ms == 0 {
		for e, q := range keys {
			hi, _ := bits.Mul64(q, mc)
			if v := (q - (hi>>sc)*card) * out; set {
				dst[e] = v
			} else {
				dst[e] += v
			}
		}
		return
	}
	for e, key := range keys {
		q, _ := bits.Mul64(key, ms)
		q >>= ss
		hi, _ := bits.Mul64(q, mc)
		if v := (q - (hi>>sc)*card) * out; set {
			dst[e] = v
		} else {
			dst[e] += v
		}
	}
}

// CellStates recovers the subset's state string from a flattened marginal
// cell index, appending into dst. It is the inverse of Cell restricted to
// the subset and is used when reporting marginal tables.
func (d *SubsetDecoder) CellStates(cell int, dst []uint8) []uint8 {
	if cell < 0 || uint64(cell) >= d.cells {
		panic(fmt.Sprintf("encoding: cell %d outside marginal space %d", cell, d.cells))
	}
	for k := range d.outStride {
		dst = append(dst, uint8(uint64(cell)/d.outStride[k]%d.card[k]))
	}
	return dst
}
