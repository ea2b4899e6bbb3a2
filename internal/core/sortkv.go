package core

import "math/bits"

const (
	// radixBits is the widest digit sortKV splits on, used at the top of a
	// large partition: 2048 buckets take a 64k-key partition to buckets of
	// about 32 keys in one pass. Smaller ranges take fewer bits.
	radixBits = 11
	// radixCutoff is the range length at or below which sortKV stops
	// splitting and insertion-sorts; cutoffs from 12 to 48 time the same on
	// the learn workload's partitions.
	radixCutoff = 24
)

// radixScratch holds one level's bucket cursors. Levels run one after the
// other (a range is fully permuted before any bucket in it is sorted), so
// the whole recursion shares a single instance on sortKV's stack.
type radixScratch struct {
	next, end [1 << radixBits]int
}

// sortKV co-sorts a key column and its parallel count column ascending by
// key, in place, with an MSD ("American flag") radix sort: it splits on the
// top digit of the significant key bits (bits.Len64 of the OR of the keys),
// permutes each key/count pair into its bucket by cycle-following, and
// sorts each bucket the same way on the next digit, insertion-sorting small
// ones. It allocates nothing. Equal keys end up adjacent with their counts,
// in unspecified order; keys within a frozen partition are distinct, so
// there the result is unique.
func sortKV(keys, counts []uint64) {
	var or uint64
	for _, k := range keys {
		or |= k
	}
	var s radixScratch
	radixSortKV(keys, counts, bits.Len64(or), &s)
}

// radixSortKV sorts keys (and counts with them) whose values agree above
// bit width, i.e. differ only in their low width bits.
func radixSortKV(keys, counts []uint64, width int, s *radixScratch) {
	n := len(keys)
	for {
		if width == 0 {
			return // every key in the range is equal
		}
		if n <= radixCutoff {
			insertionSortKV(keys, counts)
			return
		}
		// Size the digit to the range: about n/8 buckets.
		d := min(radixBits, width, max(1, bits.Len(uint(n))-3))
		width -= d
		shift, mask := uint(width), uint64(1)<<d-1
		nb := 1 << d
		next, end := s.next[:nb], s.end[:nb]
		clear(end)
		for _, k := range keys {
			end[k>>shift&mask]++
		}
		if end[keys[0]>>shift&mask] == n {
			continue // one bucket: the digit is constant, split on the next
		}
		sum := 0
		for b, c := range end {
			next[b] = sum
			sum += c
			end[b] = sum
		}
		// Cycle-following permutation: take the pair at the head of bucket
		// b and swap it into the next free slot of its own bucket until a
		// pair that belongs in b comes back.
		for b := range next {
			for i := next[b]; i < end[b]; i = next[b] {
				k, c := keys[i], counts[i]
				for db := int(k >> shift & mask); db != b; db = int(k >> shift & mask) {
					j := next[db]
					next[db]++
					keys[j], k = k, keys[j]
					counts[j], c = c, counts[j]
				}
				keys[i], counts[i] = k, c
				next[b]++
			}
		}
		// The scratch is reused by the recursion, so find each bucket's end
		// by scanning for the digit to change.
		for lo := 0; lo < n; {
			db := keys[lo] >> shift & mask
			hi := lo + 1
			for hi < n && keys[hi]>>shift&mask == db {
				hi++
			}
			if hi-lo > 1 {
				radixSortKV(keys[lo:hi], counts[lo:hi], width, s)
			}
			lo = hi
		}
		return
	}
}

// insertionSortKV co-sorts a short range by key.
func insertionSortKV(keys, counts []uint64) {
	for i := 1; i < len(keys); i++ {
		k, c := keys[i], counts[i]
		j := i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j], counts[j] = keys[j-1], counts[j-1]
		}
		keys[j], counts[j] = k, c
	}
}
