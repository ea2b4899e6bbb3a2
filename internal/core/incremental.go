package core

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"time"

	"waitfreebn/internal/encoding"
	"waitfreebn/internal/hashtable"
	"waitfreebn/internal/sched"
)

// Builder is the incremental form of the wait-free construction primitive:
// training data arrives in blocks (e.g. chunks of a file too large to hold
// in memory) and each AddBlock runs the two-stage protocol over just that
// block, accumulating into the same partition tables. The final table is
// identical to a one-shot Build over the concatenated blocks.
//
// A Builder retains its P partition tables and P×(P-1) queues across
// blocks, so per-block overhead is two barrier episodes, not re-allocation.
// Builder methods must be called from a single goroutine; the parallelism
// is internal.
type Builder struct {
	codec  *encoding.Codec
	opts   Options
	parts  []hashtable.Counter
	queues queueMatrix
	// home is the static key→partition mapping over NumPartitions homes;
	// homes[h] is the worker currently owning home partition h (cyclic
	// h mod P until Rebalance), and remapped caches whether homes
	// deviates from the one-partition-per-worker identity. parts stays
	// indexed by home across rebalances, so remapping moves ownership
	// without moving entries.
	home     func(uint64) int
	homes    []int
	remapped bool
	split    *splitState // hot-key splitting state; nil when disabled
	barrier  *sched.Barrier
	stats    Stats
	// Incremental re-freeze lineage (Options.Refreeze == FreezeIncremental):
	// delta[h] is home partition h's mutation log since the last snapshot,
	// prev the last published epoch's columnar table (clean partitions of
	// the next epoch alias its blocks), snapEpoch the monotonic snapshot
	// ordinal stamped into each epoch.
	delta     []*deltaPart
	prev      *frozenTable
	snapEpoch uint64
	done      bool
	// failed poisons the builder after a block that errored or was
	// cancelled mid-protocol: the barrier may be aborted and the queues
	// and tables partially updated, so no consistent continuation exists.
	failed error
}

// NewBuilder prepares an incremental builder for data with the codec's
// variable layout. Options follow the same defaults as Build; the ring
// capacity default sizes for blocks of up to blockHint rows (0 = 64k).
func NewBuilder(codec *encoding.Codec, blockHint int, opts Options) *Builder {
	if blockHint <= 0 {
		blockHint = 1 << 16
	}
	opts, hintCapped := opts.withDefaults(blockHint, codec.KeySpace())
	b := &Builder{
		codec:    codec,
		opts:     opts,
		parts:    make([]hashtable.Counter, opts.NumPartitions),
		home:     opts.Partition.partitioner(opts.NumPartitions, codec.KeySpace()),
		homes:    cyclicHomes(opts.NumPartitions, opts.P),
		remapped: opts.NumPartitions != opts.P,
		barrier:  sched.NewBarrier(opts.P),
	}
	if opts.HotSplit && opts.P > 1 && opts.WriteBatch > 1 {
		b.split = newSplitState(opts.P, opts.HotThreshold)
	}
	for i := range b.parts {
		b.parts[i] = newPartTable(opts.Table, opts.Partition, opts.TableHint, opts.NumPartitions, codec.KeySpace(), i)
	}
	if opts.Refreeze == FreezeIncremental {
		// Decorate each partition with a delta recorder. Logs start in the
		// overflowed state: the first snapshot drains everything regardless,
		// so capturing before it would be pure overhead.
		b.delta = make([]*deltaPart, len(b.parts))
		for i := range b.parts {
			b.delta[i] = &deltaPart{dirty: true, over: true}
			b.parts[i] = &recCounter{Counter: b.parts[i], d: b.delta[i]}
		}
	}
	b.queues = newQueueMatrix(opts.P, opts.Queue, opts.RingCapacity, opts.NoSpill)
	b.stats.P = opts.P
	b.stats.WriteBatch = opts.WriteBatch
	b.stats.TableHint = opts.TableHint
	b.stats.TableHintCapped = hintCapped
	return b
}

// AddBlock counts a block of rows (each a state string of the codec's
// arity) into the table using the two-stage wait-free protocol.
//
// Deprecated: use AddBlockCtx.
func (b *Builder) AddBlock(rows [][]uint8) error {
	return b.AddBlockCtx(context.Background(), rows)
}

// AddBlockCtx is AddBlock under the fault-tolerant execution contract:
// cancellation and worker panics surface as errors with all workers joined,
// after which the builder is poisoned (see addKeys).
func (b *Builder) AddBlockCtx(ctx context.Context, rows [][]uint8) error {
	return b.addKeys(ctx, len(rows), func(lo, hi int, dst []uint64) { b.codec.EncodeRows(rows[lo:hi], dst) })
}

// AddKeys counts a block of pre-encoded keys.
//
// Deprecated: use AddKeysCtx.
func (b *Builder) AddKeys(keys []uint64) error {
	return b.AddKeysCtx(context.Background(), keys)
}

// AddKeysCtx is AddKeys under the fault-tolerant execution contract.
func (b *Builder) AddKeysCtx(ctx context.Context, keys []uint64) error {
	return b.addKeys(ctx, len(keys), func(lo, hi int, dst []uint64) { copy(dst, keys[lo:hi]) })
}

func (b *Builder) addKeys(ctx context.Context, m int, block blockSource) error {
	if b.done {
		return fmt.Errorf("core: Builder used after Finalize")
	}
	if b.failed != nil {
		return fmt.Errorf("core: Builder poisoned by earlier failed block: %w", b.failed)
	}
	p := b.opts.P
	ws := make([]workerStats, p)
	if err := runTwoStage(ctx, p, twoStage{
		m:          m,
		block:      block,
		parts:      b.parts,
		queues:     b.queues,
		home:       b.home,
		homes:      b.homes,
		remapped:   b.remapped,
		split:      b.split,
		barrier:    b.barrier,
		ringCap:    b.opts.RingCapacity,
		writeBatch: b.opts.WriteBatch,
		keyBits:    keyFieldBits(b.codec.KeySpace()),
	}, ws); err != nil {
		// The block died mid-protocol: the barrier may be poisoned, some
		// queues may hold undrained keys, and the tables hold a partial
		// count. None of that can be rolled back, so poison the builder.
		b.failed = err
		return err
	}
	var s1, s2, bw time.Duration
	for w := range ws {
		b.stats.LocalKeys += ws[w].local
		b.stats.ForeignKeys += ws[w].foreign
		b.stats.Stage2Pops += ws[w].pops
		b.stats.BatchFlushes += ws[w].flushes
		b.stats.ForeignDupes += ws[w].dupes
		b.stats.SplitKeys += ws[w].split
		b.stats.SplitMerges += ws[w].merges
		// Stage times accumulate the per-block critical path: the sum over
		// blocks of the slowest worker, i.e. the wall clock spent in each
		// stage across the whole stream.
		if ws[w].stage1 > s1 {
			s1 = ws[w].stage1
		}
		if ws[w].stage2 > s2 {
			s2 = ws[w].stage2
		}
		if ws[w].barrier > bw {
			bw = ws[w].barrier
		}
	}
	b.stats.Stage1Time += s1
	b.stats.Stage2Time += s2
	b.stats.BarrierWait += bw
	if r := b.opts.Obs; r != nil {
		r.Histogram(metricStageHist, "stage", "1").Observe(s1)
		r.Histogram(metricStageHist, "stage", "2").Observe(s2)
		r.Histogram(metricBarrierHist).Observe(bw)
	}
	return nil
}

// Err returns the error that poisoned the builder, or nil if every block
// so far succeeded.
func (b *Builder) Err() error { return b.failed }

// ImportTable seeds the builder with the counts of an existing table — the
// recovery primitive: a restart loads the last checkpointed epoch table,
// imports it, and replays only the WAL tail, as if every original row had
// been streamed through AddBlock. Each key is routed to its owning partition
// (serialized tables carry no partition assignment), so subsequent blocks
// merge into the same entries and a later Snapshot/Finalize is bit-identical
// to an uninterrupted build over the full row stream.
//
// The table's rows count as local keys: no inter-worker hand-off happened,
// and Samples() grows by t.NumSamples(). The table's codec must have the
// same variable cardinalities as the builder's.
func (b *Builder) ImportTable(t *PotentialTable) error {
	if b.done {
		return fmt.Errorf("core: Builder used after Finalize")
	}
	if b.failed != nil {
		return fmt.Errorf("core: Builder poisoned by earlier failed block: %w", b.failed)
	}
	want, got := b.codec.Cardinalities(), t.codec.Cardinalities()
	if len(want) != len(got) {
		return fmt.Errorf("core: ImportTable codec mismatch: %d variables, builder has %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("core: ImportTable codec mismatch: variable %d cardinality %d, builder has %d", i, got[i], want[i])
		}
	}
	// Gather each partition's (key, count) pairs first, then insert them in
	// bit-reversed buffer order rather than streaming t.Range straight into
	// Add. Iterating one open-addressing table into another correlates
	// insertion order with destination home slots (both address by the same
	// mixer, and the smaller table's mask is a suffix of the larger's), so
	// keys arrive in ascending-home sweeps that pile linear-probe runs up
	// into quadratic territory near the load threshold — a 40x slowdown at
	// checkpoint-recovery scale. Visiting the buffer in van-der-Corput
	// (bit-reversed index) order scatters consecutive homes across the whole
	// table for O(n) extra work; the resulting key→count mapping is
	// order-independent either way. Partitions are single-owner, so they
	// load in parallel, each pre-sized to its final occupancy.
	// Keys bucket by home partition, not by current owner: parts is indexed
	// by home, and a Rebalance between import and the next block must find
	// every key in parts[home(key)].
	// An import's mutation mass rivals the table itself, so a later merge
	// re-freeze could never beat a drain: abandon the delta logs up front
	// (dirty stays exact; only the delta detail is dropped).
	for _, dp := range b.delta {
		dp.forceFull()
	}
	imp := make([]importBuf, len(b.parts))
	t.Range(func(key, count uint64) bool {
		h := b.home(key)
		imp[h].keys = append(imp[h].keys, key)
		imp[h].counts = append(imp[h].counts, count)
		return true
	})
	var wg sync.WaitGroup
	for h := range b.parts {
		if len(imp[h].keys) == 0 {
			continue
		}
		wg.Add(1)
		go func(dst hashtable.Counter, buf importBuf) {
			defer wg.Done()
			if r, ok := dst.(interface{ Reserve(n int) }); ok {
				r.Reserve(dst.Len() + len(buf.keys))
			}
			n := uint64(len(buf.keys))
			logn := uint(bits.Len64(n - 1))
			for j := uint64(0); j < uint64(1)<<logn; j++ {
				if i := bits.Reverse64(j) >> (64 - logn); i < n {
					dst.Add(buf.keys[i], buf.counts[i])
				}
			}
		}(b.parts[h], imp[h])
	}
	wg.Wait()
	b.stats.LocalKeys += t.NumSamples()
	return nil
}

// importBuf is one partition's ImportTable staging area: parallel key/count
// slices in source-iteration order, visited bit-reversed at insert time.
type importBuf struct {
	keys   []uint64
	counts []uint64
}

// SnapshotCtx captures an immutable frozen-columnar PotentialTable of
// everything counted so far WITHOUT finalizing the builder: the quiescent
// partition hashtables are drained into a detached columnar snapshot
// (carrying no reference to the live partitions), so the builder can keep
// accumulating blocks for the next epoch while readers scan this one. This
// is the epoch-producing primitive the serving layer's
// build → freeze → publish → retire cycle runs on.
//
// Between AddBlock calls every queue is drained and every partition has a
// quiescent single writer — the wait-free contract's hand-off point — which
// is exactly when SnapshotCtx must run: the builder and the snapshot must
// not be used concurrently from different goroutines without external
// serialization (the same single-goroutine rule as every Builder method).
// The snapshot is equal to Finalize's table at this point in the stream.
func (b *Builder) SnapshotCtx(ctx context.Context, p int) (*PotentialTable, FreezeStats, error) {
	if b.done {
		return nil, FreezeStats{}, fmt.Errorf("core: Builder used after Finalize")
	}
	if b.failed != nil {
		return nil, FreezeStats{}, fmt.Errorf("core: Builder poisoned by earlier failed block: %w", b.failed)
	}
	if b.opts.Refreeze == FreezeIncremental {
		return b.snapshotIncrementalCtx(ctx, p)
	}
	// Freeze through a scratch table over the live partitions, then detach:
	// the returned table holds only the columnar copy, so later AddBlock
	// mutations of b.parts cannot be observed through it.
	scratch := NewPotentialTable(b.codec, b.parts, b.Samples())
	scratch.SetObs(b.opts.Obs)
	st, err := scratch.FreezeCtx(ctx, p)
	if err != nil {
		return nil, FreezeStats{}, err
	}
	// Stamp the epoch ordinal: full-mode snapshots participate in the same
	// monotonic lineage (epoch-versioned caches key on it), they just never
	// reuse blocks. The snapshot has not escaped yet, so the write is
	// race-free.
	b.snapEpoch++
	scratch.frozen.Load().epoch = b.snapEpoch
	out := &PotentialTable{codec: b.codec, m: scratch.m}
	out.SetObs(b.opts.Obs)
	out.frozen.Store(scratch.frozen.Load())
	return out, st, nil
}

// Finalize returns the accumulated potential table and construction stats.
// The builder cannot be used afterwards.
func (b *Builder) Finalize() (*PotentialTable, Stats) {
	b.done = true
	b.stats.SpilledKeys = b.queues.spilledKeys()
	b.stats.DestQueueWords = b.queues.destWords()
	pt := NewPotentialTable(b.codec, b.parts, b.stats.LocalKeys+b.stats.Stage2Pops+b.stats.SplitMerges)
	pt.SetObs(b.opts.Obs)
	b.stats.DistinctKeys = pt.Len()
	if r := b.opts.Obs; r != nil {
		r.Counter(metricBuilds).Inc()
		r.Counter(metricLocalKeys).Add(b.stats.LocalKeys)
		r.Counter(metricForeignKeys).Add(b.stats.ForeignKeys)
		r.Counter(metricStage2Pops).Add(b.stats.Stage2Pops)
		r.Gauge(metricTableHint).Set(float64(b.stats.TableHint))
		if b.stats.TableHintCapped {
			r.Counter(metricTableHintCapped).Inc()
		}
		publishQueueMetrics(r, b.stats, b.queues)
		publishPartitionMetrics(r, b.parts)
	}
	return pt, b.stats
}

// Samples returns how many rows have been counted so far.
func (b *Builder) Samples() uint64 {
	return b.stats.LocalKeys + b.stats.Stage2Pops + pendingForeign(b) + b.stats.SplitKeys
}

func pendingForeign(b *Builder) uint64 {
	// Between blocks all queues are drained, so foreign == pops; this
	// accounts for foreign keys stranded in queues by a failed block.
	// (Split keys are accounted separately: SplitKeys, all of which are
	// merged between blocks, with the unmerged remainder of a failed block
	// likewise counted as accepted-but-stranded.)
	return b.stats.ForeignKeys - b.stats.Stage2Pops
}

// RebalanceStats reports one Builder.Rebalance decision.
type RebalanceStats struct {
	// Moved is how many home partitions were re-assigned to a different
	// owner (0 = the mapping was already optimal under LPT).
	Moved int `json:"moved"`
	// Before and After are the max/mean per-owner key mass (1.0 = flat)
	// under the old and new mapping, computed from the occupancy
	// histogram the partition tables already maintain.
	Before float64 `json:"before"`
	After  float64 `json:"after"`
}

// Rebalance re-maps the heaviest home partitions across owners using the
// per-partition occupancy histogram (total key mass per table), so that
// subsequent blocks spread the stage-1/stage-2 write work of a skewed key
// distribution more evenly. It uses deterministic LPT bin packing: homes
// in descending mass order each go to the least-loaded worker, with index
// ties broken low-first — under uniform mass this reproduces the cyclic
// initial deal, so Rebalance on balanced data is a no-op.
//
// Real balancing needs Options.NumPartitions > P: with exactly one home
// per worker LPT can only permute owners, so every worker ends up with one
// home and the imbalance is unchanged. With k×P homes the heaviest homes
// spread across owners and After can genuinely drop below Before.
//
// No table entry moves: partitions stay indexed by home, only homes[h]
// changes. Like every Builder method it must run between blocks (the
// quiescent hand-off point); the serve Manager calls it between epochs.
func (b *Builder) Rebalance() RebalanceStats {
	st := RebalanceStats{Before: 1, After: 1}
	p, nparts := b.opts.P, len(b.parts)
	if b.done || b.failed != nil || p <= 1 {
		return st
	}
	mass := make([]uint64, nparts)
	var total uint64
	for h, part := range b.parts {
		mass[h] = part.Total()
		total += mass[h]
	}
	if total == 0 {
		return st
	}
	st.Before = ownerImbalance(mass, b.homes, p)

	order := make([]int, nparts)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, c := order[i], order[j]
		if mass[a] != mass[c] {
			return mass[a] > mass[c]
		}
		return a < c
	})
	load := make([]uint64, p)
	homes := make([]int, nparts)
	for _, h := range order {
		w := 0
		for cand := 1; cand < p; cand++ {
			if load[cand] < load[w] {
				w = cand
			}
		}
		homes[h] = w
		load[w] += mass[h]
	}
	for h := range homes {
		if homes[h] != b.homes[h] {
			st.Moved++
		}
	}
	if st.Moved > 0 {
		b.homes = homes
		b.remapped = nparts != p
		for h, o := range homes {
			if o != h {
				b.remapped = true
				break
			}
		}
	}
	st.After = ownerImbalance(mass, b.homes, p)
	return st
}

// OwnerImbalance returns the max/mean key mass across owners under the
// current home→owner mapping (1.0 = flat), the load-balance diagnostic the
// serve layer publishes after each rebalance.
func (b *Builder) OwnerImbalance() float64 {
	p := b.opts.P
	if p <= 1 {
		return 1
	}
	mass := make([]uint64, len(b.parts))
	for h, part := range b.parts {
		mass[h] = part.Total()
	}
	return ownerImbalance(mass, b.homes, p)
}

// ownerImbalance folds per-home mass through a home→owner mapping onto p
// owners and returns max/mean per-owner load (1.0 when empty or flat).
func ownerImbalance(mass []uint64, homes []int, p int) float64 {
	load := make([]uint64, p)
	var total, max uint64
	for h, m := range mass {
		load[homes[h]] += m
	}
	for _, l := range load {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	return float64(max) * float64(len(load)) / float64(total)
}
