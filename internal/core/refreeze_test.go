package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"waitfreebn/internal/encoding"
	"waitfreebn/internal/spsc"
)

// refreezeKeys returns m deterministic pseudo-random keys < space, suitable
// for feeding AddKeysCtx directly.
func refreezeKeys(m int, space uint64, seed uint64) []uint64 {
	keys := make([]uint64, m)
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = x % space
	}
	return keys
}

// localizedKeys returns m keys confined to a contiguous fraction of the key
// space starting at offset frac·shift — the skewed ingest shape that leaves
// most range-partitioned partitions untouched.
func localizedKeys(m int, space uint64, frac float64, shift int, seed uint64) []uint64 {
	window := uint64(float64(space) * frac)
	if window == 0 {
		window = 1
	}
	base := (uint64(shift) * window) % (space - window + 1)
	keys := refreezeKeys(m, window, seed)
	for i := range keys {
		keys[i] += base
	}
	return keys
}

// assertTablesBitIdentical fails unless the two tables hold exactly the
// same key→count mapping and sample count.
func assertTablesBitIdentical(t *testing.T, got, want *PotentialTable, label string) {
	t.Helper()
	if got.NumSamples() != want.NumSamples() {
		t.Fatalf("%s: samples %d, want %d", label, got.NumSamples(), want.NumSamples())
	}
	if !got.Equal(want) {
		t.Fatalf("%s: tables differ", label)
	}
}

// TestIncrementalSnapshotBitIdentical drives parallel full-mode and
// incremental-mode builders through identical multi-epoch ingest streams
// across P × queue-kind combinations and asserts every epoch's snapshot is
// bit-identical, including epochs with localized deltas (merge path), broad
// deltas, and no delta at all (pure reuse).
func TestIncrementalSnapshotBitIdentical(t *testing.T) {
	queues := []spsc.Kind{spsc.KindChunked, spsc.KindRing, spsc.KindMutex}
	for _, p := range []int{1, 4, 8} {
		for _, q := range queues {
			t.Run(fmt.Sprintf("P=%d/queue=%v", p, q), func(t *testing.T) {
				codec, err := encoding.NewUniformCodec(8, 3)
				if err != nil {
					t.Fatal(err)
				}
				space := codec.KeySpace()
				mk := func(mode FreezeMode) *Builder {
					return NewBuilder(codec, 0, Options{
						P: p, NumPartitions: 4 * p, Partition: PartitionRange,
						Queue: q, Refreeze: mode,
					})
				}
				inc, full := mk(FreezeIncremental), mk(FreezeFull)
				ctx := context.Background()

				feeds := [][]uint64{
					refreezeKeys(30000, space, 1),          // epoch 1: cold, all drain
					localizedKeys(1500, space, 0.05, 0, 2), // epoch 2: narrow delta, mostly merge
					nil,                                    // epoch 3: nothing new, pure reuse
					localizedKeys(1500, space, 0.05, 3, 4), // epoch 4: different window
					refreezeKeys(4000, space, 5),           // epoch 5: broad delta
				}
				for ep, keys := range feeds {
					if keys != nil {
						if err := inc.AddKeysCtx(ctx, keys); err != nil {
							t.Fatal(err)
						}
						if err := full.AddKeysCtx(ctx, keys); err != nil {
							t.Fatal(err)
						}
					}
					got, ist, err := inc.SnapshotCtx(ctx, p)
					if err != nil {
						t.Fatal(err)
					}
					want, _, err := full.SnapshotCtx(ctx, p)
					if err != nil {
						t.Fatal(err)
					}
					assertTablesBitIdentical(t, got, want, fmt.Sprintf("epoch %d", ep+1))
					if !ist.Incremental {
						t.Fatalf("epoch %d: stats not marked incremental", ep+1)
					}
					if got.FreezeEpoch() != uint64(ep+1) {
						t.Fatalf("epoch %d: FreezeEpoch = %d", ep+1, got.FreezeEpoch())
					}
					if ep == 0 && ist.DrainedPartitions != 4*p {
						t.Fatalf("cold epoch drained %d partitions, want %d", ist.DrainedPartitions, 4*p)
					}
					if keys == nil && ist.ReusedPartitions != 4*p {
						t.Fatalf("idle epoch reused %d partitions, want %d", ist.ReusedPartitions, 4*p)
					}
				}
			})
		}
	}
}

// TestIncrementalSnapshotReusesCleanBlocks asserts the structural claims of
// the merge path on a localized delta: most partitions alias the prior
// epoch's blocks (same backing arrays), dirty ones are fresh, and the
// drained-key accounting shows the ≥2× reduction the acceptance criteria
// gate on.
func TestIncrementalSnapshotReusesCleanBlocks(t *testing.T) {
	codec, err := encoding.NewUniformCodec(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	space := codec.KeySpace()
	b := NewBuilder(codec, 0, Options{
		P: 4, NumPartitions: 16, Partition: PartitionRange, Refreeze: FreezeIncremental,
	})
	ctx := context.Background()
	if err := b.AddKeysCtx(ctx, refreezeKeys(40000, space, 7)); err != nil {
		t.Fatal(err)
	}
	t1, st1, err := b.SnapshotCtx(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st1.DrainedKeys != t1.Len() {
		t.Fatalf("cold snapshot drained %d keys, table has %d", st1.DrainedKeys, t1.Len())
	}

	if err := b.AddKeysCtx(ctx, localizedKeys(2000, space, 0.05, 0, 8)); err != nil {
		t.Fatal(err)
	}
	t2, st2, err := b.SnapshotCtx(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ReusedPartitions == 0 || st2.MergedPartitions == 0 {
		t.Fatalf("localized delta: reused=%d merged=%d, want both > 0 (%+v)", st2.ReusedPartitions, st2.MergedPartitions, st2)
	}
	if st2.DrainedPartitions != 0 {
		t.Fatalf("localized delta drained %d partitions", st2.DrainedPartitions)
	}
	// The acceptance gate's 1-CPU proxy: a full re-freeze re-drains every
	// key; the incremental one touches only the delta.
	if full := t2.Len(); st2.DrainedKeys+st2.MergedKeys > full/2 {
		t.Fatalf("incremental refreeze touched %d+%d keys of %d — not a 2x reduction",
			st2.DrainedKeys, st2.MergedKeys, full)
	}

	ft1, ft2 := t1.frozen.Load(), t2.frozen.Load()
	sharedBlocks := 0
	for h := range ft2.parts {
		if len(ft2.parts[h].keys) == 0 || len(ft1.parts[h].keys) == 0 {
			continue
		}
		if &ft2.parts[h].keys[0] == &ft1.parts[h].keys[0] {
			sharedBlocks++
			if ft2.parts[h].born != ft1.parts[h].born {
				t.Fatalf("aliased block %d changed born stamp", h)
			}
		} else if ft2.parts[h].born != ft2.epoch {
			t.Fatalf("re-materialized block %d born %d, epoch %d", h, ft2.parts[h].born, ft2.epoch)
		}
	}
	if sharedBlocks != st2.ReusedPartitions {
		t.Fatalf("found %d aliased blocks, stats say %d reused", sharedBlocks, st2.ReusedPartitions)
	}
}

// TestIncrementalSnapshotOverflowFallsBack drives one partition's delta log
// past its budget and asserts the snapshot degrades that partition to the
// drain path while staying bit-identical.
func TestIncrementalSnapshotOverflowFallsBack(t *testing.T) {
	// A key space large enough that a flood's per-partition distinct-key
	// mass clears the overflow budget (max(4096, 2x frozen block)).
	codec, err := encoding.NewUniformCodec(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	space := codec.KeySpace()
	mk := func(mode FreezeMode) *Builder {
		return NewBuilder(codec, 0, Options{
			P: 2, NumPartitions: 8, Partition: PartitionRange, Refreeze: mode,
		})
	}
	inc, full := mk(FreezeIncremental), mk(FreezeFull)
	ctx := context.Background()
	seedKeys := refreezeKeys(5000, space, 11)
	for _, b := range []*Builder{inc, full} {
		if err := b.AddKeysCtx(ctx, seedKeys); err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.SnapshotCtx(ctx, 2); err != nil {
			t.Fatal(err)
		}
	}
	// A delta far larger than the table: every touched partition's log
	// blows its budget (2× frozen size), forcing drains.
	flood := refreezeKeys(300000, space, 12)
	for _, b := range []*Builder{inc, full} {
		if err := b.AddKeysCtx(ctx, flood); err != nil {
			t.Fatal(err)
		}
	}
	got, st, err := inc.SnapshotCtx(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := full.SnapshotCtx(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesBitIdentical(t, got, want, "overflow epoch")
	if st.DrainedPartitions == 0 {
		t.Fatalf("flood delta produced no drains: %+v", st)
	}
	// The lineage recovers: a subsequent small delta merges again.
	if err := inc.AddKeysCtx(ctx, localizedKeys(500, space, 0.05, 1, 13)); err != nil {
		t.Fatal(err)
	}
	if err := full.AddKeysCtx(ctx, localizedKeys(500, space, 0.05, 1, 13)); err != nil {
		t.Fatal(err)
	}
	got2, st2, err := inc.SnapshotCtx(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	want2, _, err := full.SnapshotCtx(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesBitIdentical(t, got2, want2, "post-overflow epoch")
	if st2.ReusedPartitions == 0 {
		t.Fatalf("lineage did not recover reuse after overflow: %+v", st2)
	}
}

// TestIncrementalSnapshotAfterImportTable asserts ImportTable (the recovery
// bulk path) degrades cleanly: the next snapshot drains, is bit-identical,
// and the lineage then resumes merging.
func TestIncrementalSnapshotAfterImportTable(t *testing.T) {
	codec, err := encoding.NewUniformCodec(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	space := codec.KeySpace()
	ctx := context.Background()

	seed := NewBuilder(codec, 0, Options{P: 2})
	if err := seed.AddKeysCtx(ctx, refreezeKeys(20000, space, 21)); err != nil {
		t.Fatal(err)
	}
	checkpoint, _ := seed.Finalize()

	mk := func(mode FreezeMode) *Builder {
		return NewBuilder(codec, 0, Options{
			P: 2, NumPartitions: 8, Partition: PartitionRange, Refreeze: mode,
		})
	}
	inc, full := mk(FreezeIncremental), mk(FreezeFull)
	for _, b := range []*Builder{inc, full} {
		// Establish a prior epoch, then import on top of it.
		if err := b.AddKeysCtx(ctx, refreezeKeys(1000, space, 22)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.SnapshotCtx(ctx, 2); err != nil {
			t.Fatal(err)
		}
		if err := b.ImportTable(checkpoint); err != nil {
			t.Fatal(err)
		}
	}
	got, st, err := inc.SnapshotCtx(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := full.SnapshotCtx(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesBitIdentical(t, got, want, "post-import epoch")
	if st.MergedPartitions != 0 {
		t.Fatalf("import epoch took the merge path: %+v", st)
	}

	for _, b := range []*Builder{inc, full} {
		if err := b.AddKeysCtx(ctx, localizedKeys(800, space, 0.05, 2, 23)); err != nil {
			t.Fatal(err)
		}
	}
	got2, st2, err := inc.SnapshotCtx(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	want2, _, err := full.SnapshotCtx(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesBitIdentical(t, got2, want2, "post-import merge epoch")
	if st2.ReusedPartitions == 0 {
		t.Fatalf("lineage did not resume reuse after import: %+v", st2)
	}
}

// TestCrossEpochAliasRaceHammer is the -race hammer for cross-epoch block
// sharing: a retired epoch's clean shared partitions must stay readable
// through the live epoch while the retired Snapshot's own table pointer is
// severed, and dirty partitions must be fully severed (fresh arrays).
func TestCrossEpochAliasRaceHammer(t *testing.T) {
	codec, err := encoding.NewUniformCodec(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	space := codec.KeySpace()
	b := NewBuilder(codec, 0, Options{
		P: 4, NumPartitions: 16, Partition: PartitionRange, Refreeze: FreezeIncremental,
	})
	ctx := context.Background()
	if err := b.AddKeysCtx(ctx, refreezeKeys(30000, space, 31)); err != nil {
		t.Fatal(err)
	}
	pt1, _, err := b.SnapshotCtx(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Reference answers captured from epoch 1 before any sharing exists.
	probes := refreezeKeys(512, space, 32)
	want1 := make([]uint64, len(probes))
	for i, k := range probes {
		want1[i] = pt1.Get(k)
	}

	e1 := NewSnapshot(1, pt1, nil)
	if err := b.AddKeysCtx(ctx, localizedKeys(1500, space, 0.05, 0, 33)); err != nil {
		t.Fatal(err)
	}
	pt2, st2, err := b.SnapshotCtx(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ReusedPartitions == 0 {
		t.Fatalf("no shared blocks to hammer: %+v", st2)
	}
	e2 := NewSnapshot(2, pt2, nil)

	var wg sync.WaitGroup
	start := make(chan struct{})
	// Readers hammer the live epoch (whose clean partitions alias epoch 1's
	// blocks) while epoch 1 retires and drains concurrently.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			<-start
			for iter := 0; iter < 200; iter++ {
				if !e2.Acquire() {
					t.Error("live epoch refused Acquire")
					return
				}
				tab := e2.Table()
				for i, k := range probes {
					got := tab.Get(k)
					// Epoch 2's counts are ≥ epoch 1's everywhere (counts
					// only grow), and equal outside the delta window.
					if got < want1[i] {
						t.Errorf("probe %d shrank: %d < %d", i, got, want1[i])
						e2.Release()
						return
					}
				}
				if _, err := tab.MarginalizeCtx(context.Background(), []int{seed % 8}, 2); err != nil {
					t.Error(err)
				}
				e2.Release()
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		e1.Retire()
	}()
	close(start)
	wg.Wait()

	if !e1.Released() {
		t.Fatal("retired epoch 1 still holds references")
	}
	// The severed-pointer tripwire: the retired epoch's table is gone...
	func() {
		defer func() {
			if recover() == nil {
				t.Error("retired epoch's Table() did not panic")
			}
		}()
		e1.Table()
	}()
	// ...but the live epoch still reads bit-identical answers through the
	// blocks the two epochs shared.
	if !e2.Acquire() {
		t.Fatal("live epoch drained unexpectedly")
	}
	tab := e2.Table()
	ft1, ft2 := pt1.frozen.Load(), pt2.frozen.Load()
	shared := 0
	for h := range ft2.parts {
		if len(ft2.parts[h].keys) > 0 && len(ft1.parts[h].keys) > 0 &&
			&ft2.parts[h].keys[0] == &ft1.parts[h].keys[0] {
			shared++
		}
	}
	if shared != st2.ReusedPartitions {
		t.Fatalf("%d blocks still aliased, want %d", shared, st2.ReusedPartitions)
	}
	for i, k := range probes {
		if got := tab.Get(k); got < want1[i] {
			t.Fatalf("post-retire probe %d shrank", i)
		}
	}
	e2.Release()
	e2.Retire()
}

// TestMarginalCacheEpochInvalidation asserts cache entries stamped at one
// freeze epoch miss (and are evicted) when the same cache serves the next
// epoch's table, and that results are bit-identical to uncached calls.
func TestMarginalCacheEpochInvalidation(t *testing.T) {
	codec, err := encoding.NewUniformCodec(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	space := codec.KeySpace()
	b := NewBuilder(codec, 0, Options{
		P: 2, NumPartitions: 8, Partition: PartitionRange, Refreeze: FreezeIncremental,
	})
	ctx := context.Background()
	if err := b.AddKeysCtx(ctx, refreezeKeys(20000, space, 41)); err != nil {
		t.Fatal(err)
	}
	pt1, _, err := b.SnapshotCtx(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewMarginalCache(1<<16, nil)
	varsets := [][]int{{0, 1}, {2, 3}, {1, 4}}
	m1, err := pt1.MarginalizeManyCachedCtx(ctx, varsets, 2, cache)
	if err != nil {
		t.Fatal(err)
	}
	// Warm: same epoch hits.
	if _, err := pt1.MarginalizeManyCachedCtx(ctx, varsets, 2, cache); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != uint64(len(varsets)) {
		t.Fatalf("warm lookup hits = %d, want %d (%v)", st.Hits, len(varsets), st)
	}

	if err := b.AddKeysCtx(ctx, localizedKeys(1000, space, 0.08, 0, 42)); err != nil {
		t.Fatal(err)
	}
	pt2, _, err := b.SnapshotCtx(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := pt2.MarginalizeManyCachedCtx(ctx, varsets, 2, cache)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.EpochEvictions != uint64(len(varsets)) {
		t.Fatalf("epoch evictions = %d, want %d (%v)", st.EpochEvictions, len(varsets), st)
	}
	// Fresh results match uncached computation on the new epoch, not the
	// stale epoch-1 entries.
	ref, err := pt2.MarginalizeManyCtx(ctx, varsets, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		for c := range ref[i].Counts {
			if m2[i].Counts[c] != ref[i].Counts[c] {
				t.Fatalf("varset %d cell %d: cached %d, direct %d", i, c, m2[i].Counts[c], ref[i].Counts[c])
			}
		}
		if m2[i].M == m1[i].M {
			t.Fatalf("varset %d: epoch-2 marginal has epoch-1 sample count", i)
		}
	}
}

// TestFullModeSnapshotsStampEpochs asserts full-mode builder snapshots join
// the same monotonic epoch lineage (the serve marginal cache keys on it).
func TestFullModeSnapshotsStampEpochs(t *testing.T) {
	codec, err := encoding.NewUniformCodec(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(codec, 0, Options{P: 2})
	ctx := context.Background()
	for want := uint64(1); want <= 3; want++ {
		if err := b.AddKeysCtx(ctx, refreezeKeys(1000, codec.KeySpace(), want)); err != nil {
			t.Fatal(err)
		}
		pt, _, err := b.SnapshotCtx(ctx, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := pt.FreezeEpoch(); got != want {
			t.Fatalf("full-mode snapshot %d has epoch %d", want, got)
		}
	}
}
