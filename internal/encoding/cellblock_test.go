package encoding

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// cellBlockCards are the cardinalities the differential tests mix: the unit
// digit, powers of two (the shift-and-mask path) and others (the reciprocal
// path), up to the widest state a dataset allows.
var cellBlockCards = []int{1, 2, 3, 4, 5, 8, 17, 256}

// randomCellBlockCase draws a codec over up to 40 variables whose key space
// fits MaxKeyBits, a subset of it in random order, and a block of 1-1024
// keys clustered in a random window so that, once sorted, the high digits
// are often constant over the block. About one block in four ends at the
// top of the key space.
func randomCellBlockCase(r *rand.Rand) (*Codec, *SubsetDecoder, []uint64) {
	var card []int
	space := uint64(1)
	for n := 1 + r.Intn(40); len(card) < n; {
		c := cellBlockCards[r.Intn(len(cellBlockCards))]
		hi, lo := bits.Mul64(space, uint64(c))
		if hi != 0 || lo >= 1<<MaxKeyBits {
			break
		}
		card = append(card, c)
		space = lo
	}
	codec, err := NewCodec(card)
	if err != nil {
		panic(err)
	}
	vars := r.Perm(len(card))[:1+r.Intn(len(card))]
	dec := codec.SubsetDecoder(vars)

	width := space
	if w := uint64(1) << r.Intn(64); w < width {
		width = w
	}
	lo := uint64(r.Int63n(int64(space - width + 1)))
	if r.Intn(4) == 0 {
		lo = space - width
	}
	keys := make([]uint64, 1+r.Intn(1024))
	for e := range keys {
		keys[e] = lo + uint64(r.Int63n(int64(width)))
	}
	if lo+width == space {
		keys[r.Intn(len(keys))] = space - 1
	}
	return codec, dec, keys
}

// checkCellBlock compares CellBlock with per-key Cell on the keys as given
// (unsorted) and once sorted, and checks that CellBlock writes nothing past
// len(keys).
func checkCellBlock(t *testing.T, codec *Codec, dec *SubsetDecoder, keys []uint64) {
	t.Helper()
	const canary = ^uint64(0)
	dst := make([]uint64, len(keys)+1)
	for _, sorted := range []bool{false, true} {
		if sorted {
			keys = slices.Clone(keys)
			slices.Sort(keys)
		}
		for e := range dst {
			dst[e] = canary
		}
		dec.CellBlock(keys, sorted, dst)
		for e, key := range keys {
			if want := uint64(dec.Cell(key)); dst[e] != want {
				t.Fatalf("card %v, sorted=%v, %d keys: CellBlock[%d] (key %d) = %d, Cell = %d",
					codec.Cardinalities(), sorted, len(keys), e, key, dst[e], want)
			}
		}
		if dst[len(keys)] != canary {
			t.Fatalf("CellBlock wrote past len(keys)")
		}
	}
}

func TestCellBlockMatchesCell(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		codec, dec, keys := randomCellBlockCase(r)
		checkCellBlock(t, codec, dec, keys)
	}
}

// TestCellBlockConstantAndEmpty covers the two edge shapes: a sorted block
// with every digit constant (one repeated key, and a lone key), and an
// empty block, which must not touch dst.
func TestCellBlockConstantAndEmpty(t *testing.T) {
	codec := mustCodec(t, []int{3, 2, 8, 5})
	dec := codec.SubsetDecoder([]int{3, 0, 2})
	key := codec.Encode([]uint8{2, 1, 6, 4})
	for _, keys := range [][]uint64{{key, key, key}, {key}} {
		checkCellBlock(t, codec, dec, keys)
	}
	dst := []uint64{7}
	dec.CellBlock(nil, true, dst)
	if dst[0] != 7 {
		t.Fatalf("empty block wrote dst[0] = %d", dst[0])
	}
}

// FuzzSubsetCellBlock cross-checks the column-at-a-time subset kernel
// against the per-key Cell decode on fuzz-drawn codecs, subset orders and
// key blocks, sorted and unsorted.
func FuzzSubsetCellBlock(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		codec, dec, keys := randomCellBlockCase(rand.New(rand.NewSource(seed)))
		checkCellBlock(t, codec, dec, keys)
	})
}

// BenchmarkCellBlock decodes a sorted 1024-key block of a 30-variable table
// with 100k distinct keys onto a 5-variable subset, the shape of a
// thickening CI-test marginal.
func BenchmarkCellBlock(b *testing.B) {
	for _, card := range []int{2, 3} {
		b.Run(fmt.Sprintf("r=%d", card), func(b *testing.B) {
			c, _ := NewUniformCodec(30, card)
			dec := c.SubsetDecoder([]int{4, 11, 17, 23, 2})
			r := rand.New(rand.NewSource(1))
			keys := make([]uint64, 1024)
			for e := range keys {
				keys[e] = uint64(r.Int63n(int64(c.KeySpace() / 100)))
			}
			slices.Sort(keys)
			dst := make([]uint64, len(keys))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec.CellBlock(keys, true, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/key")
		})
	}
}
