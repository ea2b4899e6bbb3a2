// Package core implements the paper's two contributed primitives and their
// composition:
//
//   - wait-free potential-table construction (Algorithms 1 and 2) — Build;
//   - parallel marginalization (Algorithm 3) — PotentialTable.MarginalizeCtx;
//   - all-pairs mutual information for the drafting phase of Cheng et al.'s
//     structure-learning algorithm (Algorithm 4) — AllPairsMI.
//
// A PotentialTable represents the empirical joint distribution of the
// training data as P disjoint hash tables, one per key-space partition,
// exactly as produced by the wait-free construction. Counts are raw
// occurrence counts; normalization by m is deferred to the moment a
// marginal is consumed (footnote 2 of the paper).
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"waitfreebn/internal/encoding"
	"waitfreebn/internal/hashtable"
	"waitfreebn/internal/obs"
	"waitfreebn/internal/rng"
	"waitfreebn/internal/sched"
)

// PartitionKind selects how keys are mapped to owning partitions during
// construction (ablation A2). The paper uses modulo (Algorithm 1, line 9).
type PartitionKind int

const (
	// PartitionModulo assigns key to partition key % P (the paper's rule).
	PartitionModulo PartitionKind = iota
	// PartitionRange splits the key space into P contiguous ranges. With
	// mixed-radix keys this keeps high-order variables together, which can
	// skew partition sizes when the data is not uniform in those variables.
	PartitionRange
	// PartitionHash assigns key to partition mix64(key) % P, decoupling
	// ownership from key structure entirely.
	PartitionHash
)

// String returns the kind's human-readable name.
func (k PartitionKind) String() string {
	switch k {
	case PartitionModulo:
		return "modulo"
	case PartitionRange:
		return "range"
	case PartitionHash:
		return "hash"
	default:
		return "unknown"
	}
}

// partitioner returns the key→owner function for P partitions over the
// given key space.
func (k PartitionKind) partitioner(p int, keySpace uint64) func(uint64) int {
	switch k {
	case PartitionModulo:
		return func(key uint64) int { return int(key % uint64(p)) }
	case PartitionRange:
		width := (keySpace + uint64(p) - 1) / uint64(p)
		return func(key uint64) int { return int(key / width) }
	case PartitionHash:
		return func(key uint64) int { return int(rng.Mix64(key) % uint64(p)) }
	default:
		panic("core: unknown partition kind")
	}
}

// TableKind selects the per-partition count-table implementation
// (ablation A4).
type TableKind int

const (
	// TableOpenAddressing selects the open-addressing table (default).
	TableOpenAddressing TableKind = iota
	// TableChained selects the separate-chaining table.
	TableChained
	// TableGoMap selects Go's built-in map.
	TableGoMap
	// TableDense selects a flat direct-addressing array when the
	// partition's key lattice fits denseBudget cells (modulo partitioning
	// gives each partition an arithmetic progression of keys, range
	// partitioning a contiguous interval), falling back to open
	// addressing per partition otherwise.
	TableDense
)

// String returns the kind's human-readable name.
func (k TableKind) String() string {
	switch k {
	case TableOpenAddressing:
		return "open-addressing"
	case TableChained:
		return "chained"
	case TableGoMap:
		return "gomap"
	case TableDense:
		return "dense"
	default:
		return "unknown"
	}
}

func (k TableKind) new(hint int) hashtable.Counter {
	switch k {
	case TableOpenAddressing:
		return hashtable.New(hint)
	case TableChained:
		return hashtable.NewChained(hint)
	case TableGoMap:
		return hashtable.NewMapTable(hint)
	case TableDense:
		// Without partition geometry (see newPartTable) dense degrades to
		// its fallback.
		return hashtable.New(hint)
	default:
		panic("core: unknown table kind")
	}
}

// denseBudget caps the per-partition cell count of a TableDense partition:
// 2^22 cells = 32 MiB of counts per partition. Partitions whose key lattice
// exceeds it fall back to open addressing.
const denseBudget = 1 << 22

// densePartLattice returns the affine lattice {idx*div + off} of the keys
// partition i owns under the given partitioning of keySpace across p
// workers, and whether a dense table over it fits denseBudget. Hash
// partitioning scatters keys over the whole space, so every partition
// needs keySpace cells — dense only fits for tiny key spaces there.
func densePartLattice(part PartitionKind, p int, keySpace uint64, i int) (size int, div, off uint64, ok bool) {
	switch part {
	case PartitionModulo:
		div, off = uint64(p), uint64(i)
		if keySpace <= off {
			return 0, div, off, true
		}
		n := (keySpace-1-off)/div + 1
		return int(n), div, off, n <= denseBudget
	case PartitionRange:
		width := (keySpace + uint64(p) - 1) / uint64(p)
		off = uint64(i) * width
		if off >= keySpace {
			return 0, 1, off, true
		}
		n := keySpace - off
		if n > width {
			n = width
		}
		return int(n), 1, off, n <= denseBudget
	case PartitionHash:
		return int(keySpace), 1, 0, keySpace <= denseBudget
	default:
		panic("core: unknown partition kind")
	}
}

// newPartTable builds partition i's count table, giving TableDense the
// partition geometry it needs and applying its fallback.
func newPartTable(kind TableKind, part PartitionKind, hint, p int, keySpace uint64, i int) hashtable.Counter {
	if kind == TableDense {
		if size, div, off, ok := densePartLattice(part, p, keySpace, i); ok {
			return hashtable.NewDense(size, div, off)
		}
		return hashtable.New(hint)
	}
	return kind.new(hint)
}

// PotentialTable is the distributed potential-table representation: the
// empirical joint counts of the training data split across P single-owner
// partitions. It is immutable after construction and safe for concurrent
// readers. Freeze attaches a columnar snapshot (see frozen.go) that the
// read-side scans stream from instead of the partition hashtables.
type PotentialTable struct {
	codec *encoding.Codec
	// parts is published atomically so lock-free readers racing a
	// Rebalance see either the old or the new partition generation whole
	// — both hold the identical key→count mapping — never a torn slice
	// header. Each reader loads the pointer once per operation and walks
	// only the generation it captured.
	parts  atomic.Pointer[[]hashtable.Counter]
	m      uint64                      // total number of samples counted
	obs    *obs.Registry               // read-path metrics sink; nil = disabled
	frozen atomic.Pointer[frozenTable] // columnar snapshot; nil = live scans
	// structMu serializes the two operations that replace structural state
	// (Rebalance swapping parts and invalidating the snapshot, FreezeCtx
	// capturing parts and installing one). Without it a freeze racing a
	// rebalance could capture half-swapped partitions or re-install a
	// snapshot of the pre-rebalance layout over the invalidation. Readers
	// stay lock-free: they only follow the frozen pointer or the parts
	// generation they loaded.
	structMu sync.Mutex
}

// liveParts loads the current partition generation.
func (t *PotentialTable) liveParts() []hashtable.Counter {
	if ps := t.parts.Load(); ps != nil {
		return *ps
	}
	return nil
}

// NewPotentialTable assembles a table directly from parts; it is exported
// for tests and for builders in other packages (baseline strategies produce
// the same representation). m must equal the sum of all counts.
func NewPotentialTable(codec *encoding.Codec, parts []hashtable.Counter, m uint64) *PotentialTable {
	t := &PotentialTable{codec: codec, m: m}
	t.parts.Store(&parts)
	return t
}

// Codec returns the key codec the table was built with.
func (t *PotentialTable) Codec() *encoding.Codec { return t.codec }

// SetObs attaches a metrics registry to the table's read path (scan
// throughput, freeze stats, clamp events). nil disables recording; builds
// that carry Options.Obs attach it automatically.
func (t *PotentialTable) SetObs(r *obs.Registry) { t.obs = r }

// Partitions returns the number of partitions P.
func (t *PotentialTable) Partitions() int {
	parts := t.liveParts()
	if len(parts) == 0 {
		if ft := t.frozen.Load(); ft != nil {
			return len(ft.parts)
		}
	}
	return len(parts)
}

// NumSamples returns m, the number of observations counted into the table.
func (t *PotentialTable) NumSamples() uint64 { return t.m }

// Len returns the number of distinct keys across all partitions.
func (t *PotentialTable) Len() int {
	if ft := t.frozen.Load(); ft != nil {
		return ft.numEntries()
	}
	total := 0
	for _, p := range t.liveParts() {
		total += p.Len()
	}
	return total
}

// Get returns the count recorded for key, searching every partition.
// Lookup is O(P) in the worst case (binary search per partition on a frozen
// table); bulk consumers should use Range or MarginalizeCtx instead.
func (t *PotentialTable) Get(key uint64) uint64 {
	if ft := t.frozen.Load(); ft != nil {
		return ft.get(key)
	}
	for _, p := range t.liveParts() {
		if c := p.Get(key); c != 0 {
			return c
		}
	}
	return 0
}

// Total returns the sum of all counts; it equals NumSamples for a table
// built from a dataset.
func (t *PotentialTable) Total() uint64 {
	if ft := t.frozen.Load(); ft != nil {
		var total uint64
		for p := range ft.parts {
			for _, c := range ft.parts[p].counts {
				total += c
			}
		}
		return total
	}
	var total uint64
	for _, p := range t.liveParts() {
		total += p.Total()
	}
	return total
}

// PartitionSizes returns the number of distinct keys in each partition —
// the balance metric discussed in Section IV-C.
func (t *PotentialTable) PartitionSizes() []int {
	if ft := t.frozen.Load(); ft != nil {
		sizes := make([]int, len(ft.parts))
		for i := range sizes {
			sizes[i] = len(ft.parts[i].keys)
		}
		return sizes
	}
	parts := t.liveParts()
	sizes := make([]int, len(parts))
	for i, p := range parts {
		sizes[i] = p.Len()
	}
	return sizes
}

// Range calls fn for every (key, count) pair across all partitions in
// unspecified order. Returning false stops the iteration. On a frozen table
// the iteration streams the columnar snapshot, so Range works even on a
// detached snapshot table (Builder.SnapshotCtx) that carries no live
// partitions at all.
func (t *PotentialTable) Range(fn func(key, count uint64) bool) {
	if ft := t.frozen.Load(); ft != nil {
		for p := range ft.parts {
			for i, key := range ft.parts[p].keys {
				if !fn(key, ft.parts[p].counts[i]) {
					return
				}
			}
		}
		return
	}
	for _, p := range t.liveParts() {
		stopped := false
		p.Range(func(key, count uint64) bool {
			if !fn(key, count) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// Equal reports whether two tables represent the same key→count mapping,
// regardless of partition count or strategy.
func (t *PotentialTable) Equal(other *PotentialTable) bool {
	if t.Len() != other.Len() || t.m != other.m {
		return false
	}
	equal := true
	t.Range(func(key, count uint64) bool {
		if other.Get(key) != count {
			equal = false
			return false
		}
		return true
	})
	return equal
}

// Rebalance redistributes entries into parts partitions of near-equal
// entry counts. Partition-by-key-range matters only during construction;
// marginalization is indifferent to which partition holds a key
// (Section IV-C), so rebalancing preserves all query results while
// equalizing per-worker marginalization work. The table is rebuilt with
// open-addressing partitions.
func (t *PotentialTable) Rebalance(parts int) {
	if parts <= 0 {
		panic(fmt.Sprintf("core: Rebalance with parts = %d", parts))
	}
	t.structMu.Lock()
	defer t.structMu.Unlock()
	total := t.Len()
	target := (total + parts - 1) / parts
	if target == 0 {
		target = 1
	}
	newParts := make([]hashtable.Counter, parts)
	for i := range newParts {
		newParts[i] = hashtable.New(target)
	}
	idx, inCurrent := 0, 0
	t.Range(func(key, count uint64) bool {
		if inCurrent == target && idx < parts-1 {
			idx++
			inCurrent = 0
		}
		newParts[idx].Add(key, count)
		inCurrent++
		return true
	})
	t.parts.Store(&newParts)
	// The snapshot mirrors the replaced partitions; drop it so scans fall
	// back to the live tables until the caller freezes again.
	t.frozen.Store(nil)
}

// PartitionMass returns each partition's total key mass (sum of counts) —
// the occupancy histogram rebalancing decisions and the skew diagnostics
// read. On a frozen table it sums the columnar segments; on a live table it
// asks each partition, which is exact while writers are quiescent.
func (t *PotentialTable) PartitionMass() []uint64 {
	if ft := t.frozen.Load(); ft != nil {
		mass := make([]uint64, len(ft.parts))
		for p := range mass {
			for _, c := range ft.parts[p].counts {
				mass[p] += c
			}
		}
		return mass
	}
	parts := t.liveParts()
	mass := make([]uint64, len(parts))
	for i, p := range parts {
		mass[i] = p.Total()
	}
	return mass
}

// maxImbalance returns the ratio of the largest to the smallest partition
// entry count (1.0 = perfectly balanced). Used by tests and diagnostics.
func (t *PotentialTable) maxImbalance() float64 {
	sizes := t.PartitionSizes()
	min, max := sizes[0], sizes[0]
	for _, s := range sizes {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if min == 0 {
		if max == 0 {
			return 1
		}
		return float64(max)
	}
	return float64(max) / float64(min)
}

// partitionAssignment distributes the table's partitions across p workers
// cyclically, for read-side parallel scans.
func (t *PotentialTable) partitionAssignment(p int) [][]int {
	return sched.CyclicAssign(len(t.liveParts()), p)
}
