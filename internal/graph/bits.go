package graph

// bitMatrix is an n×n boolean matrix with one bit per cell, row-major, so
// an adjacency matrix costs n²/8 bytes in one allocation instead of n
// separate []bool rows. A learned structure keeps its skeleton and PDAG
// for as long as the caller holds the result, so their size is the size of
// every result a caller accumulates.
type bitMatrix struct {
	w    int // words per row
	bits []uint64
}

func newBitMatrix(n int) bitMatrix {
	w := (n + 63) / 64
	return bitMatrix{w: w, bits: make([]uint64, n*w)}
}

func (m bitMatrix) get(u, v int) bool {
	return m.bits[u*m.w+v>>6]>>(v&63)&1 != 0
}

func (m bitMatrix) set(u, v int, b bool) {
	i, bit := u*m.w+v>>6, uint64(1)<<(v&63)
	if b {
		m.bits[i] |= bit
	} else {
		m.bits[i] &^= bit
	}
}

func (m bitMatrix) clone() bitMatrix {
	return bitMatrix{w: m.w, bits: append([]uint64(nil), m.bits...)}
}
