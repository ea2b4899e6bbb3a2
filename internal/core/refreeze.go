package core

import (
	"context"
	"fmt"
	"time"

	"waitfreebn/internal/faultinject"
	"waitfreebn/internal/hashtable"
	"waitfreebn/internal/obs"
	"waitfreebn/internal/sched"
)

// FreezeMode selects how Builder.SnapshotCtx materializes each epoch's
// columnar snapshot.
type FreezeMode int

const (
	// FreezeFull drains and sorts every partition on every snapshot — the
	// original behavior, cost proportional to table size.
	FreezeFull FreezeMode = iota
	// FreezeIncremental records per-partition delta runs between snapshots
	// and re-freezes by aliasing untouched partitions from the previous
	// epoch verbatim and merging dirty ones against their delta runs — cost
	// proportional to what changed, bit-identical to a cold full freeze.
	FreezeIncremental
)

// String returns the flag spelling of the mode ("full", "incremental").
func (m FreezeMode) String() string {
	switch m {
	case FreezeIncremental:
		return "incremental"
	default:
		return "full"
	}
}

// ParseFreezeMode parses the -refreeze flag spellings.
func ParseFreezeMode(s string) (FreezeMode, error) {
	switch s {
	case "full", "":
		return FreezeFull, nil
	case "incremental":
		return FreezeIncremental, nil
	}
	return FreezeFull, fmt.Errorf("core: unknown refreeze mode %q (want full or incremental)", s)
}

// Delta capture sizing. deltaRunSeal is the unsealed buffer length at which
// a delta run is sorted, duplicate-combined, and sealed: 16k entries = two
// 128 KiB columns, sorted in one L2-resident pass. deltaBudgetMin floors the
// per-partition overflow budget so small partitions still absorb a few runs
// before falling back to a drain.
const (
	deltaRunSeal   = 1 << 14
	deltaBudgetMin = 4096
)

// deltaRun is one sealed per-partition delta batch: keys sorted ascending,
// duplicates combined, deltas[i] the total count added for keys[i].
type deltaRun struct {
	keys   []uint64
	deltas []uint64
}

// deltaPart is one home partition's mutation log since the last snapshot.
// The two-stage protocol gives every partition a single writer per phase
// with a barrier between phases, so the log needs no synchronization: the
// same happens-before edges that order the hashtable writes order these.
// The snapshot (builder goroutine, after workers join) is the only other
// reader.
type deltaPart struct {
	cur   deltaRun   // unsealed append buffer
	runs  []deltaRun // sealed sorted runs
	total int        // keys across sealed runs
	dirty bool       // any mutation since the last snapshot
	// over marks the log overflowed (or deliberately abandoned): the
	// partition must be re-frozen by drain+sort. Recording stops — dirty
	// tracking stays exact, only the delta detail is lost.
	over   bool
	budget int // sealed-key count at which the log overflows
}

func (d *deltaPart) record(key, delta uint64) {
	d.dirty = true
	if d.over {
		return
	}
	d.cur.keys = append(d.cur.keys, key)
	d.cur.deltas = append(d.cur.deltas, delta)
	if len(d.cur.keys) >= deltaRunSeal {
		d.seal()
	}
}

func (d *deltaPart) recordBatch(keys []uint64) {
	if len(keys) == 0 {
		return
	}
	d.dirty = true
	if d.over {
		return
	}
	d.cur.keys = append(d.cur.keys, keys...)
	for range keys {
		d.cur.deltas = append(d.cur.deltas, 1)
	}
	if len(d.cur.keys) >= deltaRunSeal {
		d.seal()
	}
}

// seal sorts and duplicate-combines the unsealed buffer into a finished
// run. The sealed arrays are handed to the run (append allocates fresh
// buffers for the next batch), so sealed runs are immutable.
func (d *deltaPart) seal() {
	n := len(d.cur.keys)
	if n == 0 || d.over {
		return
	}
	sortKV(d.cur.keys, d.cur.deltas)
	out := 0
	for i := 0; i < n; i++ {
		if out > 0 && d.cur.keys[i] == d.cur.keys[out-1] {
			d.cur.deltas[out-1] += d.cur.deltas[i]
		} else {
			d.cur.keys[out] = d.cur.keys[i]
			d.cur.deltas[out] = d.cur.deltas[i]
			out++
		}
	}
	d.runs = append(d.runs, deltaRun{keys: d.cur.keys[:out], deltas: d.cur.deltas[:out]})
	d.total += out
	d.cur = deltaRun{}
	if d.budget > 0 && d.total > d.budget {
		d.overflow()
	}
}

// overflow abandons the log: more delta keys than the budget means a merge
// would cost as much as a drain, so stop paying for capture.
func (d *deltaPart) overflow() {
	d.over = true
	d.runs = nil
	d.cur = deltaRun{}
	d.total = 0
}

// forceFull marks the partition dirty and abandons its log — used by bulk
// paths (ImportTable) whose mutation mass rivals the table itself.
func (d *deltaPart) forceFull() {
	d.dirty = true
	d.overflow()
}

// reset re-arms the log after a successful snapshot.
func (d *deltaPart) reset(budget int) {
	*d = deltaPart{budget: budget}
}

// recCounter decorates a partition's hashtable.Counter, mirroring every
// mutation into the partition's delta log. Reads forward to the embedded
// counter untouched; the single-writer-per-partition-per-phase discipline
// that makes the counter safe makes the log safe too.
type recCounter struct {
	hashtable.Counter
	d *deltaPart
}

func (c *recCounter) Inc(key uint64) {
	c.Counter.Inc(key)
	c.d.record(key, 1)
}

func (c *recCounter) Add(key, delta uint64) {
	c.Counter.Add(key, delta)
	c.d.record(key, delta)
}

func (c *recCounter) AddBatch(keys []uint64) {
	c.Counter.AddBatch(keys)
	c.d.recordBatch(keys)
}

// Reserve forwards capacity hints to the inner table (ImportTable asserts
// for it).
func (c *recCounter) Reserve(n int) {
	if r, ok := c.Counter.(interface{ Reserve(n int) }); ok {
		r.Reserve(n)
	}
}

// unwrapCounter strips the delta-recording decorator for diagnostics that
// type-assert the concrete table (probe stats, growth counters).
func unwrapCounter(part hashtable.Counter) hashtable.Counter {
	if rc, ok := part.(*recCounter); ok {
		return rc.Counter
	}
	return part
}

// Per-partition re-freeze paths.
const (
	pathReuse = iota // clean: alias the previous epoch's block verbatim
	pathMerge        // dirty, log intact: merge prior block with delta runs
	pathDrain        // dirty, log overflowed (or no prior epoch): drain+sort
)

// snapshotIncrementalCtx is the FreezeIncremental arm of Builder.SnapshotCtx:
// it produces a detached frozen-columnar table bit-identical to a cold full
// freeze of the live partitions, reusing the previous epoch's clean blocks
// and merging dirty ones against their delta logs. On error the builder's
// snapshot lineage (prev, epoch, delta logs) is left untouched, so the
// caller can roll back or retry without a widened failure surface.
func (b *Builder) snapshotIncrementalCtx(ctx context.Context, p int) (*PotentialTable, FreezeStats, error) {
	start := time.Now()
	if p <= 0 {
		p = sched.DefaultP()
	}
	if p > len(b.parts) {
		p = len(b.parts)
	}
	prev := b.prev
	epoch := b.snapEpoch + 1
	aligned := prev != nil && len(prev.parts) == len(b.parts)

	// Decide each partition's path up front. Sealing the tail run here (not
	// in the workers) keeps the log mutation on the builder goroutine; seal
	// may trip the overflow budget, demoting the partition to a drain.
	paths := make([]uint8, len(b.parts))
	for h := range b.parts {
		dp := b.delta[h]
		switch {
		case aligned && !dp.dirty:
			paths[h] = pathReuse
		case aligned && !dp.over:
			dp.seal()
			if dp.over {
				paths[h] = pathDrain
			} else {
				paths[h] = pathMerge
			}
		default:
			paths[h] = pathDrain
		}
	}

	// Expected layout is known before materialization: every path must
	// reproduce the live partition exactly, so offsets come from the live
	// lengths and double as the merge kernel's output invariant.
	off := make([]int, len(b.parts)+1)
	for h := range b.parts {
		off[h+1] = off[h] + b.parts[h].Len()
	}
	ft := &frozenTable{parts: make([]frozenPart, len(b.parts)), off: off, epoch: epoch}

	type refreezeWorker struct {
		mergedRuns  int
		mergedKeys  int
		drainedKeys int
	}
	ws := make([]refreezeWorker, p)
	assign := sched.CyclicAssign(len(b.parts), p)
	err := sched.RunCtx(ctx, p, func(ctx context.Context, w int) error {
		st := &ws[w]
		done := ctx.Done()
		for _, h := range assign[w] {
			select {
			case <-done:
				return context.Cause(ctx)
			default:
			}
			switch paths[h] {
			case pathReuse:
				// Alias the previous epoch's block verbatim: both epochs
				// own it jointly; immutability makes the sharing safe.
				ft.parts[h] = prev.parts[h]
			case pathMerge:
				if err := faultinject.Active().MaybeErr(faultinject.RefreezeMergeFail, w, uint64(h)+1); err != nil {
					return err
				}
				dp := b.delta[h]
				merged := mergeFrozenRuns(prev.parts[h], dp.runs, epoch)
				if len(merged.keys) != off[h+1]-off[h] {
					return fmt.Errorf("core: incremental re-freeze of partition %d merged to %d keys, live table has %d (delta capture hole)", h, len(merged.keys), off[h+1]-off[h])
				}
				ft.parts[h] = merged
				st.mergedRuns += len(dp.runs)
				st.mergedKeys += dp.total
			case pathDrain:
				n := off[h+1] - off[h]
				fp := frozenPart{keys: make([]uint64, n), counts: make([]uint64, n), born: epoch}
				if err := drainSorted(b.parts[h], fp.keys, fp.counts, h); err != nil {
					return err
				}
				ft.parts[h] = fp
				st.drainedKeys += n
			}
		}
		return nil
	})
	if err != nil {
		return nil, FreezeStats{}, err
	}

	stats := FreezeStats{
		Entries:     ft.numEntries(),
		Partitions:  len(b.parts),
		Incremental: true,
	}
	for h := range paths {
		switch paths[h] {
		case pathReuse:
			stats.ReusedPartitions++
		case pathMerge:
			stats.MergedPartitions++
		case pathDrain:
			stats.DrainedPartitions++
		}
	}
	for w := range ws {
		stats.MergedRuns += ws[w].mergedRuns
		stats.MergedKeys += ws[w].mergedKeys
		stats.DrainedKeys += ws[w].drainedKeys
	}

	out := &PotentialTable{codec: b.codec, m: b.Samples()}
	out.SetObs(b.opts.Obs)
	out.frozen.Store(ft)

	// Success: advance the lineage and re-arm the logs. Budgets scale with
	// the partition's frozen size — merging more delta keys than ~2x the
	// block is no cheaper than draining it.
	b.prev = ft
	b.snapEpoch = epoch
	for h := range b.delta {
		b.delta[h].reset(max(deltaBudgetMin, 2*len(ft.parts[h].keys)))
	}

	stats.Duration = time.Since(start)
	publishRefreezeMetrics(b.opts.Obs, stats)
	return out, stats, nil
}

// mergeFrozenRuns produces a dirty partition's new block by a k-way sorted
// merge of the previous epoch's block with the sealed delta runs: equal keys
// sum, keys absent from the prior block are inserted.
func mergeFrozenRuns(prev frozenPart, runs []deltaRun, epoch uint64) frozenPart {
	srcs := make([]deltaRun, 0, len(runs)+1)
	srcs = append(srcs, deltaRun{keys: prev.keys, deltas: prev.counts})
	srcs = append(srcs, runs...)
	upper := 0
	for _, s := range srcs {
		upper += len(s.keys)
	}
	outKeys := make([]uint64, 0, upper)
	outCounts := make([]uint64, 0, upper)
	heads := make([]int, len(srcs))
	for {
		// Linear min-scan over the run heads: the fan-in is small (prior
		// block + a handful of sealed runs), so a heap would cost more in
		// branches than it saves in comparisons.
		best := -1
		var bestKey uint64
		for i := range srcs {
			if heads[i] >= len(srcs[i].keys) {
				continue
			}
			if k := srcs[i].keys[heads[i]]; best < 0 || k < bestKey {
				best, bestKey = i, k
			}
		}
		if best < 0 {
			break
		}
		var count uint64
		for i := range srcs {
			if heads[i] < len(srcs[i].keys) && srcs[i].keys[heads[i]] == bestKey {
				count += srcs[i].deltas[heads[i]]
				heads[i]++
			}
		}
		outKeys = append(outKeys, bestKey)
		outCounts = append(outCounts, count)
	}
	return frozenPart{keys: outKeys, counts: outCounts, born: epoch}
}

// publishRefreezeMetrics records one incremental re-freeze into the
// registry (README "Observability" documents the names).
func publishRefreezeMetrics(r *obs.Registry, stats FreezeStats) {
	if r == nil {
		return
	}
	r.Help(metricFreezeSeconds, "wall clock of PotentialTable.Freeze")
	r.Histogram(metricFreezeSeconds).Observe(stats.Duration)
	r.Help(metricFrozenEntries, "entries captured in the current frozen snapshot")
	r.Gauge(metricFrozenEntries).Set(float64(stats.Entries))
	r.Help(metricRefreezeReused, "partitions aliased verbatim from the prior epoch by incremental re-freezes")
	r.Counter(metricRefreezeReused).Add(uint64(stats.ReusedPartitions))
	r.Help(metricRefreezeMergedRuns, "sealed delta runs consumed by incremental re-freeze merges")
	r.Counter(metricRefreezeMergedRuns).Add(uint64(stats.MergedRuns))
	r.Help(metricRefreezeDrainedKeys, "keys that took the drain+sort path during incremental re-freezes")
	r.Counter(metricRefreezeDrainedKeys).Add(uint64(stats.DrainedKeys))
	r.Help(metricRefreezeMergedKeys, "delta keys that took the merge path during incremental re-freezes")
	r.Counter(metricRefreezeMergedKeys).Add(uint64(stats.MergedKeys))
}
