package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"waitfreebn/internal/dataset"
	"waitfreebn/internal/encoding"
	"waitfreebn/internal/faultinject"
	"waitfreebn/internal/hashtable"
	"waitfreebn/internal/obs"
	"waitfreebn/internal/rng"
	"waitfreebn/internal/sched"
	"waitfreebn/internal/spsc"
)

// Options configures the wait-free table construction primitive. The zero
// value selects the paper's configuration at P = GOMAXPROCS: modulo
// partitioning, unbounded chunked queues, open-addressing tables.
type Options struct {
	// P is the number of cores (workers). 0 means GOMAXPROCS.
	P int
	// NumPartitions is the number of home partitions the key space is
	// split into. 0 (and anything below P) means P — one partition per
	// worker, the paper's configuration. Values above P give the
	// rebalancer real granularity: with only P partitions an LPT
	// re-assignment is a pure permutation of owners (each worker gets
	// exactly one partition back), so imbalance cannot improve; with
	// NumPartitions = k×P the heaviest homes can spread across owners.
	// Initially homes are dealt cyclically (home h → worker h mod P),
	// which reproduces the identity mapping when NumPartitions == P.
	NumPartitions int
	// Partition selects the key→owner mapping (ablation A2).
	Partition PartitionKind
	// Queue selects the inter-core queue implementation (ablation A1).
	Queue spsc.Kind
	// RingCapacity sizes each queue when Queue == spsc.KindRing. 0 sizes
	// each ring to hold a worker's entire block (m/P rounded up), which
	// can never overflow.
	RingCapacity int
	// NoSpill disables graceful degradation for bounded ring queues. By
	// default a full ring spills overflow keys into an unbounded chunked
	// side queue (counted in Stats.SpilledKeys) and the build completes;
	// with NoSpill a full ring fails the build with an overflow error —
	// the strict mode the ablation benches measure.
	NoSpill bool
	// Table selects the per-partition count table (ablation A4).
	Table TableKind
	// TableHint pre-sizes each partition table. 0 applies a heuristic
	// based on m and the key space. Hints above maxTableHint are capped;
	// the applied hint and the cap event are reported in Stats.
	TableHint int
	// WriteBatch sizes the per-worker per-destination write-combining
	// buffers of the batched write path: foreign keys accumulate in a
	// core-private buffer, duplicates are combined into (key, delta)
	// words, and full buffers flush with one PushBatch — one atomic
	// publish per batch instead of one per key. 0 selects the default
	// (defaultWriteBatch); 1 publishes every foreign key on its own;
	// values above maxWriteBatch are clamped. Every size produces a
	// bit-identical table.
	WriteBatch int
	// HotSplit enables skew-adaptive hot-key splitting on the batched
	// write path: keys whose write-combined delta crosses HotThreshold in
	// a single flush are promoted to core-private delta counters that
	// bypass the SPSC queues entirely and are merged into the owner's
	// table after the existing build barrier (the natural phase boundary,
	// Doppel-style). Every split structure stays single-writer-per-phase,
	// so wait-freedom is untouched, and the merged table is bit-identical
	// to a non-split build. Effective only when P > 1 and WriteBatch > 1.
	HotSplit bool
	// HotThreshold is the per-flush combined delta at which a key is
	// promoted to split counting (0 = defaultHotThreshold; minimum 2). A
	// flush of WriteBatch foreign keys where one key contributes >=
	// HotThreshold occurrences is the online skew signal — no extra
	// bookkeeping beyond the delta words the batched path already builds.
	HotThreshold int
	// Obs receives construction metrics (per-worker stage timings, queue
	// traffic, partition occupancy). nil disables instrumentation; the
	// primitives aggregate per worker in plain locals and publish once per
	// build, so the disabled cost is a handful of nil checks per build.
	Obs *obs.Registry
	// Refreeze selects how Builder.SnapshotCtx materializes each epoch:
	// FreezeFull drains every partition, FreezeIncremental records delta
	// runs between snapshots and re-freezes only what changed (bit-identical
	// either way). Incremental mode decorates each partition table with a
	// delta recorder, so it costs a few stores per mutation; full mode adds
	// nothing. Only Builder snapshots consult it — one-shot Build ignores it.
	Refreeze FreezeMode
}

// maxTableHint caps the per-partition up-front allocation; tables grow on
// demand past it. A capped hint is recorded in Stats.TableHintCapped.
const maxTableHint = 1 << 24

// Batched-write-path sizing. defaultWriteBatch is the per-destination
// write-combining buffer: 64 keys = 512 bytes, one streamed cache-line
// growth at a time, small enough that P buffers stay resident per worker.
// encodeBlockRows is how many rows stage 1 encodes per EncodeRows/EncodeFlat
// call; drainBatch is the stage-2 PopBatch chunk. maxDeltaBits bounds the
// delta field packed into a queued word's high bits (see combineDeltas).
const (
	defaultWriteBatch = 64
	maxWriteBatch     = 4096
	encodeBlockRows   = 1024
	drainBatch        = 512
	maxDeltaBits      = 16
)

// Hot-key splitting sizing. defaultHotThreshold is the combined per-flush
// delta that marks a key hot: 8 of a 64-key buffer means one key carries
// 12.5% of a worker's foreign traffic to that destination. hotCacheSlots is
// the per-worker direct-mapped promoted-key filter probed once per foreign
// key (4 KiB, cache-resident); splitTableCap bounds each core-private delta
// table so a pathological key stream cannot grow P² tables without bound —
// keys beyond the cap simply keep flowing through the queues, which is
// always correct.
const (
	defaultHotThreshold = 8
	hotCacheSlots       = 512
	splitTableCap       = 4096
)

// withDefaults resolves zero fields and reports whether the table hint was
// truncated by maxTableHint.
func (o Options) withDefaults(m int, keySpace uint64) (Options, bool) {
	if o.P <= 0 {
		o.P = sched.DefaultP()
	}
	if o.NumPartitions < o.P {
		o.NumPartitions = o.P
	}
	if o.WriteBatch <= 0 {
		o.WriteBatch = defaultWriteBatch
	} else if o.WriteBatch > maxWriteBatch {
		o.WriteBatch = maxWriteBatch
	}
	if o.HotThreshold <= 0 {
		o.HotThreshold = defaultHotThreshold
	} else if o.HotThreshold < 2 {
		o.HotThreshold = 2
	}
	if o.RingCapacity <= 0 {
		o.RingCapacity = (m + o.P - 1) / o.P
		if o.RingCapacity == 0 {
			o.RingCapacity = 1
		}
	}
	capped := false
	if o.TableHint <= 0 {
		// Expected distinct keys is at most min(m, keySpace); assume they
		// spread evenly over partitions and pad by 2× to absorb skew.
		distinct := uint64(m)
		if keySpace < distinct {
			distinct = keySpace
		}
		hint := distinct / uint64(o.NumPartitions) * 2
		if hint > maxTableHint {
			hint = maxTableHint
			capped = true
		}
		o.TableHint = int(hint)
	} else if o.TableHint > maxTableHint {
		o.TableHint = maxTableHint
		capped = true
	}
	return o, capped
}

// Stats reports what the construction primitive did, for instrumentation
// and for the contention-shape comparisons in EXPERIMENTS.md.
type Stats struct {
	P         int    // workers used
	LocalKeys uint64 // stage-1 keys updated directly in the owner's table
	// ForeignKeys counts the logical keys routed through queues.
	// Duplicates are combined into (key, delta) words before queueing, so
	// fewer words travel; ForeignKeys still counts keys (the
	// pre-aggregation count), and Stage2Pops counts the key mass drained
	// (sum of deltas) — the two remain exactly equal on success.
	ForeignKeys  uint64
	Stage2Pops   uint64 // key mass drained in stage 2 (== ForeignKeys on success)
	DistinctKeys int    // table entries after construction

	// WriteBatch is the per-destination buffer size actually applied.
	// BatchFlushes counts write-combining buffer flushes (PushBatch
	// calls); ForeignDupes counts duplicate foreign keys combined into
	// deltas before queueing.
	WriteBatch   int
	BatchFlushes uint64
	ForeignDupes uint64

	// SplitKeys counts the key mass hot-key splitting diverted from the
	// queues into core-private delta tables in stage 1; SplitMerges counts
	// the mass merged back into the owner tables after the barrier. The
	// two are exactly equal on success — the split analogue of the
	// Stage2Pops == ForeignKeys invariant, which itself is untouched
	// because split keys are never counted as foreign. Both are 0 unless
	// Options.HotSplit is effective.
	SplitKeys   uint64
	SplitMerges uint64

	// SpilledKeys counts queued elements that overflowed a bounded ring
	// and were routed through the unbounded spill side queue instead —
	// the graceful-degradation signal that RingCapacity is undersized for
	// the workload. On the batched path the unit is post-aggregation
	// (key, delta) words, since those are what occupy ring slots. Always
	// 0 for unbounded queues or with Options.NoSpill.
	SpilledKeys uint64

	// Stage1Time and Stage2Time are the slowest worker's wall-clock in
	// each stage (the critical path). The paper's analysis predicts
	// stage 1 = O(m·n/P) and stage 2 = O(m/P); these expose the split.
	Stage1Time time.Duration
	Stage2Time time.Duration
	// BarrierWait is the longest any worker spent in the inter-stage
	// barrier — the load-imbalance bound (a worker waits exactly as long
	// as the slowest straggler outlasts it).
	BarrierWait time.Duration

	// TableHint is the per-partition pre-size actually applied after
	// defaulting, and TableHintCapped reports whether it was truncated at
	// the allocation cap — previously a silent event bench runs could not
	// see.
	TableHint       int
	TableHintCapped bool

	// DestQueueWords[j] is the total number of words pushed into worker
	// j's column of the queue matrix — the per-owner queue-traffic
	// histogram. Under key skew one owner's column dominates; hot-key
	// splitting collapses exactly that column, which is the 1-CPU-visible
	// proxy for the contention the split removes (see EXPERIMENTS.md).
	DestQueueWords []uint64
}

// queueMatrix holds the P×(P-1) queues of Algorithm 1: q[i][j] carries keys
// produced by core i and owned by core j (q[i][i] is unused and nil).
type queueMatrix [][]spsc.Queue

// newQueueMatrix allocates the queues. Bounded rings are wrapped in
// spillover queues unless noSpill asks for strict overflow-fails semantics.
func newQueueMatrix(p int, kind spsc.Kind, ringCap int, noSpill bool) queueMatrix {
	q := make(queueMatrix, p)
	for i := range q {
		q[i] = make([]spsc.Queue, p)
		for j := range q[i] {
			if i == j {
				continue
			}
			if kind == spsc.KindRing && !noSpill {
				q[i][j] = spsc.NewSpillover(ringCap)
			} else {
				q[i][j] = spsc.New(kind, ringCap)
			}
		}
	}
	return q
}

// spilledKeys sums the spill counters across a quiesced queue matrix.
func (q queueMatrix) spilledKeys() uint64 {
	var total uint64
	for i := range q {
		for j := range q[i] {
			if s, ok := q[i][j].(*spsc.Spillover); ok {
				total += s.Spilled()
			}
		}
	}
	return total
}

// destWords sums the push counters of each destination's queue column
// across a quiesced matrix — Stats.DestQueueWords. Counters are cumulative
// over a queue's lifetime, so for an incremental Builder this is the total
// across all blocks.
func (q queueMatrix) destWords() []uint64 {
	out := make([]uint64, len(q))
	for i := range q {
		for j := range q[i] {
			if q[i][j] == nil {
				continue
			}
			out[j] += q[i][j].Pushed()
		}
	}
	return out
}

// Build runs the wait-free table construction primitive over data:
// stage 1 (Algorithm 1) classifies and routes keys, one barrier, stage 2
// (Algorithm 2) drains foreign keys. Every worker writes only its own
// partition table and the tails of its own queues, so no operation ever
// waits on another worker.
//
// Build fails only on configuration errors (e.g. a bounded ring queue that
// overflows under Options.NoSpill); the default options cannot fail.
//
// Deprecated: use BuildCtx. The context-first surface is the canonical API;
// this shim exists for callers that predate it and simply passes
// context.Background().
func Build(data *dataset.Dataset, opts Options) (*PotentialTable, Stats, error) {
	return BuildCtx(context.Background(), data, opts)
}

// BuildCtx is Build under the fault-tolerant execution contract: workers
// observe ctx cancellation at chunk boundaries and return context.Canceled
// (or DeadlineExceeded) in bounded time with every worker goroutine joined,
// and a panicking worker surfaces as a *sched.WorkerError instead of
// crashing the process while its peers spin in the barrier.
func BuildCtx(ctx context.Context, data *dataset.Dataset, opts Options) (*PotentialTable, Stats, error) {
	codec, err := data.Codec()
	if err != nil {
		return nil, Stats{}, fmt.Errorf("core: %w", err)
	}
	return buildCtx(ctx, blockFromDataset(data, codec), codec, data.NumSamples(), opts)
}

// KeySource yields the key of sample i. Build encodes rows on the fly
// (the O(m·n/P) encode cost is part of stage 1, as in the paper);
// BuildKeys also accepts pre-encoded key streams for benches that isolate
// table-update cost from encode cost.
type KeySource func(i int) uint64

// blockSource fills dst[:hi-lo] with the keys of samples [lo, hi). Workers
// pull keys in encodeBlockRows-sized blocks so the encode runs column-major
// over a slab (encoding.EncodeRows/EncodeFlat) instead of row by row.
type blockSource func(lo, hi int, dst []uint64)

func blockFromDataset(data *dataset.Dataset, codec *encoding.Codec) blockSource {
	return func(lo, hi int, dst []uint64) {
		codec.EncodeFlat(data.RowsFlat(lo, hi), dst)
	}
}

func blockFromKeySource(source KeySource) blockSource {
	return func(lo, hi int, dst []uint64) {
		for i := lo; i < hi; i++ {
			dst[i-lo] = source(i)
		}
	}
}

// KeySourceFromSlice adapts a pre-encoded key slice.
func KeySourceFromSlice(keys []uint64) KeySource {
	return func(i int) uint64 { return keys[i] }
}

// workerStats accumulates one worker's contribution to Stats; workers
// write only their own slot, so no synchronization beyond the final join
// is needed. The trailing pad keeps adjacent slots of the ws slice on
// separate cache-line pairs: the counters are hot stores in the stage-1
// exit paths and the per-block accumulation loops, and without the pad
// slots for workers w and w+1 share a line, turning those private writes
// into cross-core invalidation traffic (classic false sharing — same cure
// as the pads between spsc.Ring's head and tail). 10×8 counter/duration
// bytes + 48 pad = 128, two lines, which also keeps the adjacent-line
// prefetcher from coupling neighbours.
type workerStats struct {
	local, foreign, pops uint64
	flushes, dupes       uint64
	split, merges        uint64
	stage1, stage2       time.Duration
	barrier              time.Duration
	_                    [48]byte
}

// cancelCheckStride is how many keys a worker processes between context
// checks — the "chunk boundary" of the cancellation contract. Small enough
// that cancellation lands promptly, large enough that the per-key cost of
// the countdown is lost in the encode+hash work.
const cancelCheckStride = 8192

// twoStage bundles the shared state of one two-stage construction episode;
// BuildKeysCtx runs one over a full key stream, Builder.addKeys one per
// incremental block. block feeds the workers their keys; keyBits is
// bits.Len64(keySpace-1), the width of the key field in a queued delta word.
type twoStage struct {
	m      int
	block  blockSource
	parts  []hashtable.Counter
	queues queueMatrix
	// home is the static key→partition mapping; homes[h] is the worker
	// that currently owns home partition h, and remapped caches whether
	// homes deviates from the one-partition-per-worker identity (always
	// true when len(homes) > P, else only after a Rebalance) so the
	// unremapped fast paths stay branch-per-block cheap. Partition tables
	// are always indexed by home, so rebalancing moves ownership without
	// moving a single table entry.
	home       func(uint64) int
	homes      []int
	remapped   bool
	split      *splitState
	barrier    *sched.Barrier
	ringCap    int
	writeBatch int
	keyBits    uint
}

// splitState is the hot-key splitting machinery shared by the workers of
// one build (or persisted across an incremental Builder's blocks, so keys
// stay promoted between blocks). Each worker touches only its own row of
// tabs and its own cache during stage 1, and only column w of tabs after
// the barrier — single writer per phase, with the barrier providing the
// hand-off, exactly like the queue matrix.
type splitState struct {
	threshold uint64
	// tabs[src][dst] is the core-private delta table where producer src
	// accumulates promoted keys owned by dst, lazily allocated on first
	// promotion; dst merges and Resets it in stage 2.
	tabs [][]*hashtable.Table
	// caches[w] is worker w's direct-mapped promoted-key filter: slot
	// rng.Mix64(key)&(hotCacheSlots-1) holds a promoted key or the ^0
	// sentinel. A stale or colliding entry is harmless — any key routed
	// through a split table is merged with its full delta after the
	// barrier, so the filter only steers traffic, never correctness.
	caches [][]uint64
}

func newSplitState(p, threshold int) *splitState {
	s := &splitState{
		threshold: uint64(threshold),
		tabs:      make([][]*hashtable.Table, p),
		caches:    make([][]uint64, p),
	}
	for w := 0; w < p; w++ {
		s.tabs[w] = make([]*hashtable.Table, p)
		cache := make([]uint64, hotCacheSlots)
		for i := range cache {
			cache[i] = ^uint64(0)
		}
		s.caches[w] = cache
	}
	return s
}

// cyclicHomes is the initial home→owner mapping: home partition h is owned
// by worker h mod p until a Rebalance remaps it. With nparts == p this is
// the identity; with more partitions than workers the deal stays cyclic so
// uniform data still spreads flat.
func cyclicHomes(nparts, p int) []int {
	homes := make([]int, nparts)
	for i := range homes {
		homes[i] = i % p
	}
	return homes
}

// keyFieldBits returns the number of bits a key of the given space can
// occupy — the low field of a batched queue word; the remaining high bits
// (capped at maxDeltaBits) carry the pre-aggregated delta.
func keyFieldBits(keySpace uint64) uint {
	return uint(bits.Len64(keySpace - 1))
}

// overflowErr is the bounded-queue failure a full ring surfaces under
// Options.NoSpill.
func (ts twoStage) overflowErr(w, dst int) error {
	return fmt.Errorf("core: queue %d→%d overflow (ring capacity %d); use spsc.KindChunked, a larger RingCapacity, or drop Options.NoSpill", w, dst, ts.ringCap)
}

// combineDeltas turns a sorted-in-place buffer of foreign keys into
// self-contained queue words key | (delta-1)<<keyBits, combining duplicate
// keys into one word (runs longer than maxDelta emit several words). The
// words overwrite a prefix of buf; the second return is how many keys were
// combined away (len(buf) - len(words)). A word always decodes to
// (key, delta) on its own, so the spillover queue's non-FIFO reordering
// across ring and side queue cannot corrupt the count — addition commutes.
func combineDeltas(buf []uint64, keyBits uint, maxDelta uint64) ([]uint64, uint64) {
	slices.Sort(buf)
	out := 0
	for i := 0; i < len(buf); {
		key := buf[i]
		j := i + 1
		for j < len(buf) && buf[j] == key {
			j++
		}
		run := uint64(j - i)
		i = j
		for run > 0 {
			d := run
			if d > maxDelta {
				d = maxDelta
			}
			buf[out] = key | (d-1)<<keyBits
			out++
			run -= d
		}
	}
	return buf[:out], uint64(len(buf) - out)
}

// runTwoStage executes stage 1 → barrier → stage 2 on p workers under the
// RunCtx contract. Per-worker stats land in ws (valid even on error, up to
// the point each worker reached). Any failure — context cancellation,
// queue overflow, injected fault, worker panic — aborts the barrier and
// cancels the peers, and runTwoStage returns only after every worker
// goroutine has exited.
//
// Wait-freedom holds at every WriteBatch: every buffer is core-private and
// the only cross-core structures remain the SPSC queues.
func runTwoStage(ctx context.Context, p int, ts twoStage, ws []workerStats) error {
	spans := sched.BlockPartition(ts.m, p)
	return sched.RunCtx(ctx, p, func(ctx context.Context, w int) error {
		return ts.runWorker(ctx, p, w, spans[w], ws)
	})
}

// runWorker is the block-oriented worker body. Stage 1 pulls keys
// in encodeBlockRows blocks (column-major encode), classifies them into
// core-private per-destination buffers of writeBatch keys, combines
// duplicates into delta words at flush, and publishes each flush with one
// PushBatch; owned keys batch into the partition table via AddBatch. At
// P=1 the classification disappears entirely: whole encode blocks feed
// AddBatch. Stage 2 drains with PopBatch and applies Add(key, delta).
//
// With hot-key splitting active, each flush additionally promotes keys
// whose combined delta reaches the threshold, and subsequent occurrences
// of a promoted key increment a core-private delta table instead of
// entering the buffers at all; the owner folds those tables in after the
// barrier. Split keys are not foreign keys — they skip both the foreign
// counter and the queue-push fault point, so the fault sequence under
// splitting simply has fewer events, never reordered ones.
//
// Queue-push faults fire per logical key at buffer-append time, indexed by
// (worker, running foreign count), so a chaos seed fails the same builds at
// every WriteBatch.
func (ts twoStage) runWorker(ctx context.Context, p, w int, span sched.Span, ws []workerStats) error {
	plan := faultinject.Active() // hoisted: nil = disabled fast path
	done := ctx.Done()
	deltaBits := 64 - ts.keyBits
	if deltaBits > maxDeltaBits {
		deltaBits = maxDeltaBits
	}
	maxDelta := uint64(1) << deltaBits
	keyMask := uint64(1)<<ts.keyBits - 1

	// ---- Stage 1 (Algorithm 1), batched. Writes: parts[w], tails of
	// queues[w][*], and (when splitting) row w of the split tables; every
	// buffer below is private to this worker.
	t0 := time.Now()
	table := ts.parts[w]
	outs := ts.queues[w]
	var local, foreign, flushes, dupes, split uint64
	var failure error
	plan.MaybePanic(faultinject.PanicStage1, w, 0)

	var splitTabs []*hashtable.Table
	var cache []uint64
	if ts.split != nil && p > 1 {
		splitTabs = ts.split.tabs[w]
		cache = ts.split.caches[w]
	}

	keys := make([]uint64, encodeBlockRows)
	var bufs [][]uint64
	var own []uint64    // owned-key batch when ownership is unremapped
	var ownh [][]uint64 // per-home owned-key batches when remapped
	if p > 1 {
		bufs = make([][]uint64, p)
		for d := range bufs {
			if d != w {
				bufs[d] = make([]uint64, 0, ts.writeBatch)
			}
		}
	}
	// Owned keys must land in their home partition even at P=1 once more
	// homes than workers exist (dense lattice tables and the occupancy
	// histogram are per-home), so the per-home buffers key off remapped,
	// not the worker count.
	if ts.remapped {
		ownh = make([][]uint64, len(ts.homes))
		for h, o := range ts.homes {
			if o == w {
				ownh[h] = make([]uint64, 0, encodeBlockRows)
			}
		}
	} else if p > 1 {
		own = make([]uint64, 0, encodeBlockRows)
	}
	flush := func(dst int) bool {
		b := bufs[dst]
		if len(b) == 0 {
			return true
		}
		words, combined := combineDeltas(b, ts.keyBits, maxDelta)
		flushes++
		dupes += combined
		if cache != nil {
			// Promotion: a key that combined to >= threshold occurrences
			// within one flush is hot — install it in the filter so its
			// future occurrences bypass the queues. This flush's words
			// still travel the queue; only the filter changes.
			for _, word := range words {
				if word>>ts.keyBits+1 < ts.split.threshold {
					continue
				}
				key := word & keyMask
				tab := splitTabs[dst]
				if tab == nil {
					tab = hashtable.New(ts.writeBatch)
					splitTabs[dst] = tab
				}
				if tab.Len() >= splitTableCap && tab.Get(key) == 0 {
					continue
				}
				cache[rng.Mix64(key)&(hotCacheSlots-1)] = key
			}
		}
		if acc := outs[dst].PushBatch(words); acc != len(words) {
			return false
		}
		bufs[dst] = b[:0]
		return true
	}
	check := cancelCheckStride
outer:
	for lo := span.Lo; lo < span.Hi; lo += encodeBlockRows {
		hi := lo + encodeBlockRows
		if hi > span.Hi {
			hi = span.Hi
		}
		block := keys[:hi-lo]
		ts.block(lo, hi, block)
		if p == 1 && !ts.remapped {
			// Everything is owned by the one partition: feed whole encode
			// blocks to the table.
			table.AddBatch(block)
			local += uint64(len(block))
		} else {
			for _, key := range block {
				h := ts.home(key)
				dst := ts.homes[h]
				if dst == w {
					if ownh != nil {
						b := append(ownh[h], key)
						if len(b) == cap(b) {
							ts.parts[h].AddBatch(b)
							b = b[:0]
						}
						ownh[h] = b
					} else {
						own = append(own, key)
						if len(own) == cap(own) {
							table.AddBatch(own)
							own = own[:0]
						}
					}
					local++
					continue
				}
				if cache != nil && cache[rng.Mix64(key)&(hotCacheSlots-1)] == key {
					tab := splitTabs[dst]
					if tab == nil {
						// Possible after a rebalance moved a promoted
						// key's owner; allocate on first use.
						tab = hashtable.New(ts.writeBatch)
						splitTabs[dst] = tab
					}
					tab.Inc(key)
					split++
					continue
				}
				if plan.Fire(faultinject.QueuePushFail, w, foreign) {
					failure = ts.overflowErr(w, dst)
					break outer
				}
				bufs[dst] = append(bufs[dst], key)
				foreign++
				if len(bufs[dst]) == ts.writeBatch && !flush(dst) {
					failure = ts.overflowErr(w, dst)
					break outer
				}
			}
		}
		if check -= hi - lo; check <= 0 {
			check = cancelCheckStride
			select {
			case <-done:
				ws[w].local, ws[w].foreign = local, foreign
				ws[w].flushes, ws[w].dupes = flushes, dupes
				ws[w].split = split
				ws[w].stage1 = time.Since(t0)
				return context.Cause(ctx)
			default:
			}
		}
	}
	if failure == nil && (p > 1 || ts.remapped) {
		if len(own) > 0 {
			table.AddBatch(own)
		}
		for h, b := range ownh {
			if len(b) > 0 {
				ts.parts[h].AddBatch(b)
			}
		}
		for d := 0; d < p; d++ {
			if d != w && !flush(d) {
				failure = ts.overflowErr(w, d)
				break
			}
		}
	}
	ws[w].local, ws[w].foreign = local, foreign
	ws[w].flushes, ws[w].dupes = flushes, dupes
	ws[w].split = split
	ws[w].stage1 = time.Since(t0)
	if failure != nil {
		ts.barrier.Abort(failure)
		return failure
	}

	// ---- The single synchronization step between the stages.
	plan.MaybeStall(w, 0)
	bd, berr := ts.barrier.WaitTimedCtx(ctx)
	ws[w].barrier = bd
	if berr != nil {
		return berr
	}
	plan.MaybePanic(faultinject.PanicStage2, w, 0)

	// ---- Stage 2 (Algorithm 2), batched: drain delta words addressed to
	// w and apply their key mass, then fold in the split tables the other
	// workers accumulated for w. Reads: heads of queues[*][w], column w of
	// the split tables (quiescent — their writers are past the barrier);
	// writes: the partitions w owns.
	t1 := time.Now()
	var pops uint64
	drain := make([]uint64, drainBatch)
	check = cancelCheckStride
	for src := 0; src < p; src++ {
		if src == w {
			continue
		}
		q := ts.queues[src][w]
		for {
			n := q.PopBatch(drain)
			if n == 0 {
				break
			}
			for _, word := range drain[:n] {
				delta := word>>ts.keyBits + 1
				key := word & keyMask
				if ts.remapped {
					ts.parts[ts.home(key)].Add(key, delta)
				} else {
					table.Add(key, delta)
				}
				pops += delta
			}
			if check -= n; check <= 0 {
				check = cancelCheckStride
				select {
				case <-done:
					ws[w].pops = pops
					ws[w].stage2 = time.Since(t1)
					return context.Cause(ctx)
				default:
				}
			}
		}
	}
	if ts.split != nil {
		var merged uint64
		for src := 0; src < p; src++ {
			if src == w {
				continue
			}
			tab := ts.split.tabs[src][w]
			if tab == nil || tab.Len() == 0 {
				continue
			}
			tab.Range(func(key, count uint64) bool {
				if ts.remapped {
					ts.parts[ts.home(key)].Add(key, count)
				} else {
					table.Add(key, count)
				}
				merged += count
				return true
			})
			// Reset, not discard: the table's capacity (and the producer's
			// filter entries) persist to the next block, so a key promoted
			// once stays split for the life of the builder.
			tab.Reset()
		}
		ws[w].merges = merged
	}
	ws[w].pops = pops
	ws[w].stage2 = time.Since(t1)
	return nil
}

// BuildKeys is Build over an arbitrary key stream of length m.
//
// Deprecated: use BuildKeysCtx.
func BuildKeys(source KeySource, codec *encoding.Codec, m int, opts Options) (*PotentialTable, Stats, error) {
	return BuildKeysCtx(context.Background(), source, codec, m, opts)
}

// BuildKeysCtx is BuildKeys under the fault-tolerant execution contract
// (see BuildCtx).
func BuildKeysCtx(ctx context.Context, source KeySource, codec *encoding.Codec, m int, opts Options) (*PotentialTable, Stats, error) {
	return buildCtx(ctx, blockFromKeySource(source), codec, m, opts)
}

// buildCtx is the shared construction entry point: BuildCtx feeds it
// dataset-backed sources (block = column-major slab encode), BuildKeysCtx
// arbitrary key streams (block = per-key gather).
func buildCtx(ctx context.Context, block blockSource, codec *encoding.Codec, m int, opts Options) (*PotentialTable, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, context.Cause(ctx)
	}
	opts, hintCapped := opts.withDefaults(m, codec.KeySpace())
	if faultinject.Active().Fire(faultinject.TableGrowPressure, 0, 0) {
		opts.TableHint = 1 // force repeated on-demand growth
	}
	p, nparts := opts.P, opts.NumPartitions

	parts := make([]hashtable.Counter, nparts)
	for i := range parts {
		parts[i] = newPartTable(opts.Table, opts.Partition, opts.TableHint, nparts, codec.KeySpace(), i)
	}
	queues := newQueueMatrix(p, opts.Queue, opts.RingCapacity, opts.NoSpill)
	home := opts.Partition.partitioner(nparts, codec.KeySpace())
	homes := cyclicHomes(nparts, p)
	barrier := sched.NewBarrier(p)
	var split *splitState
	if opts.HotSplit && p > 1 && opts.WriteBatch > 1 {
		split = newSplitState(p, opts.HotThreshold)
	}

	ws := make([]workerStats, p)
	if err := runTwoStage(ctx, p, twoStage{
		m:          m,
		block:      block,
		parts:      parts,
		queues:     queues,
		home:       home,
		homes:      homes,
		remapped:   nparts != p,
		split:      split,
		barrier:    barrier,
		ringCap:    opts.RingCapacity,
		writeBatch: opts.WriteBatch,
		keyBits:    keyFieldBits(codec.KeySpace()),
	}, ws); err != nil {
		return nil, Stats{}, err
	}

	var st Stats
	st.P = p
	st.WriteBatch = opts.WriteBatch
	st.TableHint = opts.TableHint
	st.TableHintCapped = hintCapped
	st.SpilledKeys = queues.spilledKeys()
	for w := range ws {
		st.LocalKeys += ws[w].local
		st.ForeignKeys += ws[w].foreign
		st.Stage2Pops += ws[w].pops
		st.BatchFlushes += ws[w].flushes
		st.ForeignDupes += ws[w].dupes
		st.SplitKeys += ws[w].split
		st.SplitMerges += ws[w].merges
		if ws[w].stage1 > st.Stage1Time {
			st.Stage1Time = ws[w].stage1
		}
		if ws[w].stage2 > st.Stage2Time {
			st.Stage2Time = ws[w].stage2
		}
		if ws[w].barrier > st.BarrierWait {
			st.BarrierWait = ws[w].barrier
		}
	}
	st.DestQueueWords = queues.destWords()
	pt := NewPotentialTable(codec, parts, st.LocalKeys+st.Stage2Pops+st.SplitMerges)
	pt.SetObs(opts.Obs)
	st.DistinctKeys = pt.Len()
	publishBuildMetrics(opts.Obs, st, ws, queues, parts)
	return pt, st, nil
}

// BuildSequential constructs the same potential table with a single thread
// and a single partition — the T(1) reference all speedup numbers are
// measured against, and the correctness oracle for every parallel strategy.
func BuildSequential(data *dataset.Dataset) (*PotentialTable, error) {
	codec, err := data.Codec()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m := data.NumSamples()
	hint := uint64(m)
	if codec.KeySpace() < hint {
		hint = codec.KeySpace()
	}
	if hint > 1<<24 {
		hint = 1 << 24
	}
	table := hashtable.New(int(hint))
	for i := 0; i < m; i++ {
		table.Inc(codec.Encode(data.Row(i)))
	}
	return NewPotentialTable(codec, []hashtable.Counter{table}, uint64(m)), nil
}
