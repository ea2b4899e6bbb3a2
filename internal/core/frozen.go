package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"waitfreebn/internal/hashtable"
	"waitfreebn/internal/sched"
)

// scanBlockSize is the batch size of the block-based scan kernels: entries
// are delivered to consumers in dense runs of up to this many (key, count)
// pairs. 1024 entries = two 8 KiB streams, small enough that a worker's
// batch plus its accumulation tile stay cache-resident, large enough to
// amortize kernel dispatch and cancellation checks to noise.
const scanBlockSize = 1024

// frozenScanBlockSize is the delivery granularity of the sorted snapshot
// scan. Sorted kernels classify each variable per block by its stride
// quotients (see allPairsFused), and a finer block spans a narrower key
// range, pinning more high-stride variables constant; 256 entries keeps the
// classification overhead near one operation per entry while roughly one
// more variable per halving collapses out of the pair loop.
const frozenScanBlockSize = 256

// frozenPart is one partition's dense sorted columnar block: parallel
// key/count columns sorted by key. Blocks are the unit of cross-epoch
// sharing — an incremental re-freeze (Builder.SnapshotCtx under
// FreezeIncremental) aliases the blocks of partitions untouched since the
// previous snapshot verbatim into the new epoch's frozenTable, so a clean
// partition's memory is owned jointly by every epoch that references it and
// is reclaimed only when the last of them drains. Blocks are immutable
// after construction, which is what makes the aliasing safe.
type frozenPart struct {
	keys   []uint64 // partition's keys, sorted ascending
	counts []uint64 // counts[i] is the count recorded for keys[i]
	// born is the freeze epoch that materialized this block (0 when the
	// snapshot was taken outside a Builder lineage). A block aliased from a
	// prior epoch keeps its original stamp, so born < the table's epoch
	// identifies reused blocks.
	born uint64
}

// frozenTable is an immutable columnar snapshot of the partition hashtables:
// all entries in dense structure-of-arrays form, one sorted block per
// partition. Scans become sequential streaming reads that can be split by
// global index range into even chunks, eliminating both per-entry closure
// dispatch through hashtable Range and partition-count limits on read
// parallelism. Published via an atomic pointer, it is safe for any number
// of concurrent readers.
type frozenTable struct {
	parts []frozenPart
	off   []int // partition p holds global entry ranks [off[p], off[p+1])
	// epoch is the Builder snapshot ordinal this table was frozen at
	// (monotonic per builder lineage; 0 for tables frozen via FreezeCtx
	// directly). The epoch stamps MarginalCache entries.
	epoch uint64
}

// numEntries returns the total entry count across all partitions.
func (ft *frozenTable) numEntries() int { return ft.off[len(ft.off)-1] }

// get returns the count for key, binary-searching each partition's sorted
// block: O(P log n/P) instead of the live path's O(P) probe sequences.
func (ft *frozenTable) get(key uint64) uint64 {
	for p := range ft.parts {
		seg := ft.parts[p].keys
		i := sort.Search(len(seg), func(i int) bool { return seg[i] >= key })
		if i < len(seg) && seg[i] == key {
			return ft.parts[p].counts[i]
		}
	}
	return 0
}

// scan streams the snapshot to block(w, keys, counts, true) with p workers,
// each owning an even global index range regardless of how skewed the
// original partitions were. Blocks never cross a partition boundary: keys
// are sorted within a partition, and delivering only sorted blocks is what
// lets sorted kernels (allPairsFused) collapse constant-digit work. Workers
// observe ctx once per block.
func (ft *frozenTable) scan(ctx context.Context, p int, block func(w int, keys, counts []uint64, sorted bool)) error {
	spans := sched.BlockPartition(ft.numEntries(), p)
	return sched.RunCtx(ctx, p, func(ctx context.Context, w int) error {
		done := ctx.Done()
		var cause error
		cur := 0 // partition the emit closure slices from
		emit := func(c sched.Span) bool {
			select {
			case <-done:
				cause = context.Cause(ctx)
				return false
			default:
			}
			lo, hi := c.Lo-ft.off[cur], c.Hi-ft.off[cur]
			block(w, ft.parts[cur].keys[lo:hi], ft.parts[cur].counts[lo:hi], true)
			return true
		}
		s := spans[w]
		for pi := range ft.parts {
			if cause != nil {
				break
			}
			seg := sched.Span{Lo: max(s.Lo, ft.off[pi]), Hi: min(s.Hi, ft.off[pi+1])}
			if seg.Lo < seg.Hi {
				cur = pi
				seg.Chunks(frozenScanBlockSize, emit)
			}
		}
		return cause
	})
}

// kvSlice co-sorts a partition's key and count columns by key.
type kvSlice struct{ keys, counts []uint64 }

func (s kvSlice) Len() int           { return len(s.keys) }
func (s kvSlice) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s kvSlice) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.counts[i], s.counts[j] = s.counts[j], s.counts[i]
}

// FreezeStats summarizes one Freeze (or incremental re-freeze) operation.
type FreezeStats struct {
	Entries    int           // distinct keys captured in the snapshot
	Partitions int           // partitions captured
	Duration   time.Duration // wall clock of the freeze (0 if already frozen)

	// Incremental re-freeze accounting. A full freeze reports every
	// partition under DrainedPartitions/DrainedKeys; an incremental one
	// splits the partitions across the three paths.
	Incremental       bool // produced by the incremental merge path
	ReusedPartitions  int  // clean partitions aliased verbatim from the prior epoch
	MergedPartitions  int  // dirty partitions produced by sorted-run merge
	DrainedPartitions int  // partitions drained+sorted from the hashtables
	MergedRuns        int  // delta runs consumed by the merges
	DrainedKeys       int  // keys that went through the drain+sort path
	MergedKeys        int  // delta keys that went through the merge kernel
}

// Frozen reports whether the table currently carries a frozen snapshot.
func (t *PotentialTable) Frozen() bool { return t.frozen.Load() != nil }

// FreezeEpoch returns the snapshot's freeze-epoch stamp: the Builder
// snapshot ordinal for tables produced by Builder.SnapshotCtx, 0 when the
// table is not frozen or was frozen outside a builder lineage. The stamp is
// what keys epoch-versioned consumers (MarginalCache entries) to exactly one
// epoch.
func (t *PotentialTable) FreezeEpoch() uint64 {
	if ft := t.frozen.Load(); ft != nil {
		return ft.epoch
	}
	return 0
}

// Freeze captures a frozen columnar snapshot of the table using p workers
// (p <= 0 selects GOMAXPROCS) and routes all subsequent scans through it.
// See FreezeCtx.
//
// Deprecated: use FreezeCtx.
func (t *PotentialTable) Freeze(p int) FreezeStats {
	st, err := t.FreezeCtx(context.Background(), p)
	mustScan(err)
	return st
}

// FreezeCtx drains every partition's hashtable into the dense sorted
// columnar layout and publishes it atomically. Freezing is a read-side
// operation: it must only run once construction has completed (after the
// build barrier, when each partition has a quiescent single writer), which
// is exactly the wait-free contract's hand-off point. The snapshot is
// invalidated by Rebalance. Freezing an already-frozen table is a no-op
// that returns the existing snapshot's stats.
func (t *PotentialTable) FreezeCtx(ctx context.Context, p int) (FreezeStats, error) {
	// structMu serializes the freeze against Rebalance: the partitions
	// captured below and the snapshot installed at the end must belong to
	// the same structural generation (see PotentialTable.structMu).
	t.structMu.Lock()
	defer t.structMu.Unlock()
	if ft := t.frozen.Load(); ft != nil {
		return FreezeStats{Entries: ft.numEntries(), Partitions: len(ft.parts)}, nil
	}
	start := time.Now()
	parts := t.liveParts()
	if p <= 0 {
		p = sched.DefaultP()
	}
	if p > len(parts) {
		p = len(parts)
	}

	ft, err := freezeParts(ctx, parts, p, 0)
	if err != nil {
		return FreezeStats{}, err
	}

	// First snapshot wins if two goroutines race to freeze; both are
	// equivalent captures of the same quiescent partitions.
	t.frozen.CompareAndSwap(nil, ft)
	total := ft.numEntries()
	st := FreezeStats{
		Entries: total, Partitions: len(parts), Duration: time.Since(start),
		DrainedPartitions: len(parts), DrainedKeys: total,
	}
	if r := t.obs; r != nil {
		r.Help(metricFreezeSeconds, "wall clock of PotentialTable.Freeze")
		r.Histogram(metricFreezeSeconds).Observe(st.Duration)
		r.Help(metricFrozenEntries, "entries captured in the current frozen snapshot")
		r.Gauge(metricFrozenEntries).Set(float64(st.Entries))
	}
	return st, nil
}

// freezeParts drains every partition into a fresh frozenTable with p
// workers, stamping each block born=epoch. All blocks share one flat
// backing allocation (capacity-clamped sub-slices), preserving the dense
// streaming layout of a cold freeze.
func freezeParts(ctx context.Context, parts []hashtable.Counter, p int, epoch uint64) (*frozenTable, error) {
	off := make([]int, len(parts)+1)
	for i, part := range parts {
		off[i+1] = off[i] + part.Len()
	}
	total := off[len(parts)]
	flatKeys := make([]uint64, total)
	flatCounts := make([]uint64, total)
	ft := &frozenTable{parts: make([]frozenPart, len(parts)), off: off, epoch: epoch}
	for i := range parts {
		lo, hi := off[i], off[i+1]
		ft.parts[i] = frozenPart{
			keys:   flatKeys[lo:hi:hi],
			counts: flatCounts[lo:hi:hi],
			born:   epoch,
		}
	}

	assign := sched.CyclicAssign(len(parts), p)
	err := sched.RunCtx(ctx, p, func(ctx context.Context, w int) error {
		done := ctx.Done()
		for _, pi := range assign[w] {
			select {
			case <-done:
				return context.Cause(ctx)
			default:
			}
			if err := drainSorted(parts[pi], ft.parts[pi].keys, ft.parts[pi].counts, pi); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ft, nil
}

// drainSorted drains one quiescent partition into the keys/counts columns
// (which must have length part.Len()) and co-sorts them by key — the cold
// freeze path for one partition.
func drainSorted(part hashtable.Counter, keys, counts []uint64, pi int) error {
	n := 0
	part.Range(func(key, count uint64) bool {
		keys[n], counts[n] = key, count
		n++
		return true
	})
	if n != len(keys) {
		return fmt.Errorf("core: partition %d yielded %d entries, expected %d (table mutated during Freeze?)", pi, n, len(keys))
	}
	sort.Sort(kvSlice{keys: keys, counts: counts})
	return nil
}

// scanBlocksCtx is the shared read-side loop of Algorithm 3 and its fused
// variants, in block form: p workers stream disjoint slices of the table,
// delivering entries to block(w, keys, counts, sorted) in dense batches of
// at most scanBlockSize. On a frozen table the batches are direct sub-slices
// of the columnar snapshot split by index range, each sorted ascending
// (sorted = true); on a live table each worker buffers its partitions' Range
// output — hash order — into a scratch block first (sorted = false), which
// amortizes the per-entry closure dispatch either way. Workers observe ctx
// once per block, and a panicking consumer surfaces as a *sched.WorkerError
// with all workers joined.
func (t *PotentialTable) scanBlocksCtx(ctx context.Context, p int, block func(w int, keys, counts []uint64, sorted bool)) error {
	ft := t.frozen.Load()
	r := t.obs
	var start time.Time
	if r != nil {
		start = time.Now()
	}
	var err error
	var entries int
	if ft != nil {
		err = ft.scan(ctx, p, block)
		entries = ft.numEntries()
	} else {
		err = t.scanLiveBlocks(ctx, p, block)
		entries = t.Len()
	}
	if r != nil && err == nil {
		path := "live"
		if ft != nil {
			path = "frozen"
		}
		r.Help(metricScanEntries, "table entries streamed by read-side scans, by path")
		r.Counter(metricScanEntries, "path", path).Add(uint64(entries))
		r.Help(metricScanSeconds, "wall clock of read-side scans, by path")
		r.Histogram(metricScanSeconds, "path", path).Observe(time.Since(start))
		r.Help(metricScanPasses, "completed read-side table scan passes, by path")
		r.Counter(metricScanPasses, "path", path).Inc()
	}
	return err
}

// liveScanScratch recycles the per-worker (keys, counts) gather blocks of
// scanLiveBlocks across scans, so a live-path query costs no per-scan
// scratch allocation in steady state.
var liveScanScratch = sync.Pool{New: func() any {
	return &liveScratch{
		keys:   make([]uint64, 0, scanBlockSize),
		counts: make([]uint64, 0, scanBlockSize),
	}
}}

type liveScratch struct{ keys, counts []uint64 }

// scanLiveBlocks is the live-table arm of scanBlocksCtx: partitions are
// assigned to workers cyclically and each worker's Range output is gathered
// into per-worker scratch blocks before dispatch.
func (t *PotentialTable) scanLiveBlocks(ctx context.Context, p int, block func(w int, keys, counts []uint64, sorted bool)) error {
	// Capture one partition generation: the assignment and the walk below
	// must agree on the partition count even if a Rebalance lands mid-scan.
	parts := t.liveParts()
	assign := sched.CyclicAssign(len(parts), p)
	return sched.RunCtx(ctx, p, func(ctx context.Context, w int) error {
		done := ctx.Done()
		var cause error
		scratch := liveScanScratch.Get().(*liveScratch)
		defer liveScanScratch.Put(scratch)
		keys := scratch.keys[:0]
		counts := scratch.counts[:0]
		for _, part := range assign[w] {
			parts[part].Range(func(key, count uint64) bool {
				keys = append(keys, key)
				counts = append(counts, count)
				if len(keys) == scanBlockSize {
					block(w, keys, counts, false)
					keys, counts = keys[:0], counts[:0]
					select {
					case <-done:
						cause = context.Cause(ctx)
						return false
					default:
					}
				}
				return true
			})
			if cause != nil {
				return cause
			}
		}
		if len(keys) > 0 {
			block(w, keys, counts, false)
		}
		return nil
	})
}
