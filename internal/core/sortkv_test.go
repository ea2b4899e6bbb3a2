package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"testing"

	"waitfreebn/internal/bn"
	"waitfreebn/internal/rng"
)

// kvSlice co-sorts a key column and its count column through sort.Sort:
// the comparison-sort oracle for sortKV.
type kvSlice struct{ keys, counts []uint64 }

func (s kvSlice) Len() int           { return len(s.keys) }
func (s kvSlice) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s kvSlice) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.counts[i], s.counts[j] = s.counts[j], s.counts[i]
}

// checkSortKV sorts copies of keys/counts with sortKV and with the oracle
// and requires the same key column and, for each run of equal keys, the
// same multiset of counts — so every key keeps its count(s).
func checkSortKV(t testing.TB, keys, counts []uint64) {
	t.Helper()
	gotK, gotC := slices.Clone(keys), slices.Clone(counts)
	sortKV(gotK, gotC)
	wantK, wantC := slices.Clone(keys), slices.Clone(counts)
	sort.Sort(kvSlice{keys: wantK, counts: wantC})
	for i := range wantK {
		if gotK[i] != wantK[i] {
			t.Fatalf("n=%d: key[%d] = %#x, want %#x", len(keys), i, gotK[i], wantK[i])
		}
	}
	for lo := 0; lo < len(wantK); {
		hi := lo + 1
		for hi < len(wantK) && wantK[hi] == wantK[lo] {
			hi++
		}
		g, w := slices.Clone(gotC[lo:hi]), slices.Clone(wantC[lo:hi])
		slices.Sort(g)
		slices.Sort(w)
		if !slices.Equal(g, w) {
			t.Fatalf("n=%d: key %#x at [%d,%d) carries counts %v, want %v", len(keys), wantK[lo], lo, hi, g, w)
		}
		lo = hi
	}
}

// sortKVLengths straddle the insertion-sort cutoff and the digit sizes.
var sortKVLengths = []int{0, 1, 2, 3, radixCutoff - 1, radixCutoff, radixCutoff + 1, 2*radixCutoff + 1, 100, 257, 1000, 2049, 1 << 14, 100000}

func TestSortKVMatchesSortSort(t *testing.T) {
	r := rng.NewXoshiro256SS(25)
	shapes := []struct {
		name string
		key  func(i, n int, width uint) uint64
	}{
		{"random", func(i, n int, w uint) uint64 { return r.Next() >> (64 - w) }},
		{"all-equal", func(i, n int, w uint) uint64 { return 1<<(w-1) | 1 }},
		// modulo partitioning: every key in a partition has the same low bits
		{"const-low-bits", func(i, n int, w uint) uint64 { return (r.Next()>>(64-w))&^7 | 5&(1<<w-1) }},
		{"sorted", func(i, n int, w uint) uint64 { return uint64(i) * ((1<<(w-1) - 1) / uint64(n)) }},
		{"reversed", func(i, n int, w uint) uint64 { return uint64(n-i) * ((1<<(w-1) - 1) / uint64(n)) }},
		// deltaPart.seal sorts runs with repeats, then combines them
		{"duplicates", func(i, n int, w uint) uint64 { return (r.Next() % 37) << (64 - w) >> (64 - w) }},
		// a long shared prefix under a few varying low bits
		{"long-prefix", func(i, n int, w uint) uint64 { return 1<<(w-1) | r.Next()>>(64-min(w-1, 5)) }},
	}
	for _, sh := range shapes {
		for w := uint(1); w <= 64; w++ {
			for _, n := range sortKVLengths {
				if n > 2049 && w%9 != 0 && w != 64 {
					continue // the largest lengths at a spread of widths keep the test fast
				}
				keys, counts := make([]uint64, n), make([]uint64, n)
				for i := range keys {
					keys[i], counts[i] = sh.key(i, n, w), r.Next()
				}
				t.Run(fmt.Sprintf("%s/w=%d/n=%d", sh.name, w, n), func(t *testing.T) {
					checkSortKV(t, keys, counts)
				})
			}
		}
	}
}

func TestSortKVAllocatesNothing(t *testing.T) {
	r := rng.NewXoshiro256SS(7)
	keys, counts := make([]uint64, 50000), make([]uint64, 50000)
	for i := range keys {
		keys[i] = r.Next() >> 20
	}
	if a := testing.AllocsPerRun(5, func() { sortKV(keys, counts) }); a != 0 {
		t.Fatalf("sortKV allocated %v times per run, want 0", a)
	}
}

// FuzzSortKV reads the input as little-endian keys (a short tail is one
// more key), keeps their low width bits, optionally folds them modulo mod
// to force repeats, and checks sortKV against the oracle.
func FuzzSortKV(f *testing.F) {
	f.Add([]byte{}, uint8(64), uint8(0))
	f.Add([]byte("\x01\x02\x03\x04\x05\x06\x07\x08\xff\xfe\xfd"), uint8(64), uint8(0))
	f.Add(make([]byte, 8*300), uint8(13), uint8(0))
	mixed := make([]byte, 8*200)
	for i := range mixed {
		mixed[i] = byte(i*131 + i>>3)
	}
	f.Add(mixed, uint8(2), uint8(0))
	f.Add(mixed, uint8(29), uint8(0))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox jumps over the lazy dog"), uint8(40), uint8(3))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopqrstuvwxyz0123456789"), uint8(7), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, width, mod uint8) {
		w := uint(width)%64 + 1
		var keys []uint64
		for len(data) > 0 {
			var b [8]byte
			data = data[copy(b[:], data):]
			k := binary.LittleEndian.Uint64(b[:]) << (64 - w) >> (64 - w)
			if mod > 1 {
				k %= uint64(mod)
			}
			keys = append(keys, k)
		}
		counts := make([]uint64, len(keys))
		for i := range counts {
			counts[i] = uint64(i)
		}
		checkSortKV(t, keys, counts)
	})
}

// BenchmarkSortKV sorts the largest partition of a P=2 table over 100k rows
// of a 30-variable binary random DAG (the bnlearn default workload's shape:
// about 64k keys whose low bit is constant), against sort.Sort on the same
// input.
func BenchmarkSortKV(b *testing.B) {
	d, err := bn.RandomDAG(30, 2, 0.25, 3, 1.0, 42).Sample(100000, 42, 2)
	if err != nil {
		b.Fatal(err)
	}
	pt, _, err := Build(d, Options{P: 2})
	if err != nil {
		b.Fatal(err)
	}
	var keys, counts []uint64
	for _, part := range pt.liveParts() {
		if part.Len() <= len(keys) {
			continue
		}
		keys, counts = keys[:0], counts[:0]
		part.Range(func(k, c uint64) bool {
			keys, counts = append(keys, k), append(counts, c)
			return true
		})
	}
	k, c := make([]uint64, len(keys)), make([]uint64, len(keys))
	for _, bc := range []struct {
		name string
		sort func(keys, counts []uint64)
	}{
		{"radix", sortKV},
		{"sort.Sort", func(keys, counts []uint64) { sort.Sort(kvSlice{keys: keys, counts: counts}) }},
	} {
		b.Run(fmt.Sprintf("%s/n=%d", bc.name, len(keys)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(k, keys)
				copy(c, counts)
				bc.sort(k, c)
			}
		})
	}
}
