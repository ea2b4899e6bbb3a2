package core

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"waitfreebn/internal/dataset"
	"waitfreebn/internal/faultinject"
	"waitfreebn/internal/spsc"
)

// The hot-split suite pins the skew-adaptive write path's contract: the
// merged table is bit-identical to the non-split build (and the sequential
// oracle) for every configuration, the split accounting balances
// (SplitMerges == SplitKeys) without disturbing the foreign-key identity,
// and fault plans keep their meaning on both write paths.

func zipfData(t testing.TB, m, n, r int, seed uint64, skew float64) *dataset.Dataset {
	t.Helper()
	d := dataset.NewUniformCard(m, n, r)
	d.ZipfRows(seed, skew, 4)
	return d
}

func assertSplitInvariant(t *testing.T, st Stats) {
	t.Helper()
	if st.SplitMerges != st.SplitKeys {
		t.Fatalf("split invariant violated: SplitMerges=%d != SplitKeys=%d", st.SplitMerges, st.SplitKeys)
	}
}

func TestHotSplitBitIdenticalAcrossConfigs(t *testing.T) {
	for _, skew := range []float64{1.2, 2.0} {
		d := zipfData(t, 20000, 8, 3, 17, skew)
		ref, err := BuildSequential(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4, 8} {
			for _, q := range []spsc.Kind{spsc.KindChunked, spsc.KindRing, spsc.KindMutex} {
				pt, st, err := BuildCtx(context.Background(), d, Options{P: p, Queue: q, HotSplit: true})
				if err != nil {
					t.Fatalf("skew=%.1f P=%d queue=%v: %v", skew, p, q, err)
				}
				if !pt.Equal(ref) {
					t.Fatalf("skew=%.1f P=%d queue=%v: hot-split table differs from oracle", skew, p, q)
				}
				assertStatsInvariant(t, st)
				assertSplitInvariant(t, st)
				// The hot ranks of a skew-2.0 stream must actually trip the
				// promotion threshold once there is cross-worker traffic.
				if skew >= 2.0 && p >= 4 && st.SplitKeys == 0 {
					t.Fatalf("skew=%.1f P=%d queue=%v: no key was promoted", skew, p, q)
				}
				if p == 1 && st.SplitKeys != 0 {
					t.Fatalf("P=1 promoted %d keys; splitting needs foreign traffic", st.SplitKeys)
				}
			}
		}
	}
}

func TestHotSplitNumPartitionsMatchesSequential(t *testing.T) {
	d := zipfData(t, 20000, 8, 3, 23, 1.5)
	ref, err := BuildSequential(d)
	if err != nil {
		t.Fatal(err)
	}
	// Partition counts above P (including a deliberately non-multiple one)
	// exercise the cyclic home deal and the remapped worker paths — at P=1
	// too, where the whole-block fast path must yield to per-home routing;
	// hot-split must compose with all of it.
	for _, p := range []int{1, 4} {
		for _, nparts := range []int{0, 8, 13, 32} {
			for _, hs := range []bool{false, true} {
				pt, st, err := BuildCtx(context.Background(), d,
					Options{P: p, NumPartitions: nparts, HotSplit: hs})
				if err != nil {
					t.Fatalf("P=%d nparts=%d hot-split=%v: %v", p, nparts, hs, err)
				}
				if !pt.Equal(ref) {
					t.Fatalf("P=%d nparts=%d hot-split=%v: table differs from oracle", p, nparts, hs)
				}
				assertStatsInvariant(t, st)
				assertSplitInvariant(t, st)
				want := nparts
				if want < p {
					want = p
				}
				if got := pt.Partitions(); got != want {
					t.Fatalf("P=%d nparts=%d: table has %d partitions, want %d", p, nparts, got, want)
				}
				// Keys must actually live in their home partition (dense
				// lattice tables and the rebalancer's histogram depend on
				// it), not merely sum correctly across partitions.
				if want > 1 {
					var occupied int
					for _, m := range pt.PartitionMass() {
						if m > 0 {
							occupied++
						}
					}
					if occupied < 2 {
						t.Fatalf("P=%d nparts=%d: all mass in one partition — home routing bypassed", p, nparts)
					}
				}
			}
		}
	}
	// The dense direct-addressing table restricts each partition to its
	// modulo lattice, so misrouted keys are structurally impossible to
	// store — the strictest check that per-home routing holds at every
	// worker count.
	for _, p := range []int{1, 4} {
		pt, _, err := BuildCtx(context.Background(), d,
			Options{P: p, NumPartitions: 8, Table: TableDense})
		if err != nil {
			t.Fatalf("dense P=%d nparts=8: %v", p, err)
		}
		if !pt.Equal(ref) {
			t.Fatalf("dense P=%d nparts=8: table differs from oracle", p)
		}
	}
}

// TestChaosHotSplitPanicEquivalence pins that panic-style faults are
// path-independent: stage panics fire at per-worker occurrence zero, before
// any classification happens, so a plan containing only panic points must
// make the split and non-split builds fail identically — or succeed with
// bit-identical tables.
func TestChaosHotSplitPanicEquivalence(t *testing.T) {
	d := zipfData(t, 20000, 8, 3, 19, 1.5)
	base := runtime.NumGoroutine()
	for _, seed := range chaosSeeds(t) {
		type outcome struct {
			pt  *PotentialTable
			st  Stats
			err error
		}
		var outs [2]outcome
		for i, hs := range []bool{false, true} {
			plan := faultinject.NewPlan(seed).
				WithRate(faultinject.PanicStage1, 0.1).
				WithRate(faultinject.PanicStage2, 0.1)
			restore := faultinject.Activate(plan)
			outs[i].pt, outs[i].st, outs[i].err = BuildCtx(context.Background(), d, Options{P: 4, HotSplit: hs})
			restore()
		}
		plain, split := outs[0], outs[1]
		if (plain.err == nil) != (split.err == nil) {
			t.Fatalf("seed %d: non-split err %v, hot-split err %v — panic plans diverged", seed, plain.err, split.err)
		}
		if plain.err == nil {
			if !split.pt.Equal(plain.pt) {
				t.Fatalf("seed %d: hot-split table differs from non-split under the same plan", seed)
			}
			assertStatsInvariant(t, plain.st)
			assertStatsInvariant(t, split.st)
			assertSplitInvariant(t, split.st)
		}
		requireNoGoroutineLeak(t, base)
	}
}

// TestChaosHotSplitQueuePushFailContained covers the fault point splitting
// deliberately changes: promoted keys skip the queue-push fault (fewer
// events, never reordered), so the split build's fault sequence is a
// subsequence of the non-split one and exact equivalence cannot be asserted.
// What must hold instead: each injected failure surfaces as a clean
// classified error with no leaked goroutine, and a build the plan misses is
// still bit-identical with balanced accounting.
func TestChaosHotSplitQueuePushFailContained(t *testing.T) {
	d := zipfData(t, 20000, 8, 3, 29, 1.5)
	ref, err := BuildSequential(d)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for _, seed := range chaosSeeds(t) {
		plan := faultinject.NewPlan(seed).WithRate(faultinject.QueuePushFail, 0.0005)
		restore := faultinject.Activate(plan)
		pt, st, err := BuildCtx(context.Background(), d, Options{P: 4, HotSplit: true})
		restore()
		if err != nil {
			if !containsOverflow(err.Error()) {
				t.Fatalf("seed %d: injected push failure surfaced as %v, want overflow error", seed, err)
			}
		} else {
			if !pt.Equal(ref) {
				t.Fatalf("seed %d: surviving hot-split build differs from oracle", seed)
			}
			assertStatsInvariant(t, st)
			assertSplitInvariant(t, st)
		}
		requireNoGoroutineLeak(t, base)
	}
}

func containsOverflow(s string) bool {
	for i := 0; i+8 <= len(s); i++ {
		if s[i:i+8] == "overflow" {
			return true
		}
	}
	return false
}

// TestBuilderRebalanceNeedsPartitionGranularity documents why NumPartitions
// exists: with one home per worker, LPT can only permute owners — each
// worker ends up holding exactly one home again — so the imbalance cannot
// move and Rebalance must report itself a no-op.
func TestBuilderRebalanceNeedsPartitionGranularity(t *testing.T) {
	d := zipfData(t, 20000, 8, 3, 31, 2.0)
	codec, err := d.Codec()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(codec, 0, Options{P: 4})
	if err := b.AddBlockCtx(context.Background(), datasetRows(d)); err != nil {
		t.Fatal(err)
	}
	st := b.Rebalance()
	if st.After != st.Before {
		t.Fatalf("P-partition rebalance changed imbalance %.3f → %.3f; with one home per worker it must be a permutation", st.Before, st.After)
	}
}

// TestBuilderRebalanceSpreadsSkewedMass is the tentpole's balancing claim:
// with more homes than workers and a skewed stream, Rebalance re-homes
// partitions, genuinely lowers the per-owner imbalance, and later blocks
// keep producing a table bit-identical to the sequential oracle.
func TestBuilderRebalanceSpreadsSkewedMass(t *testing.T) {
	d := zipfData(t, 30000, 8, 3, 37, 2.0)
	codec, err := d.Codec()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BuildSequential(d)
	if err != nil {
		t.Fatal(err)
	}
	rows := datasetRows(d)
	for _, hs := range []bool{false, true} {
		b := NewBuilder(codec, 0, Options{P: 4, NumPartitions: 32, HotSplit: hs})
		if err := b.AddBlockCtx(context.Background(), rows[:len(rows)/2]); err != nil {
			t.Fatal(err)
		}
		st := b.Rebalance()
		if st.Moved == 0 {
			t.Fatalf("hot-split=%v: skew-2.0 mass moved no partitions (before=%.3f)", hs, st.Before)
		}
		if st.After >= st.Before {
			t.Fatalf("hot-split=%v: rebalance did not improve imbalance: %.3f → %.3f", hs, st.Before, st.After)
		}
		if got := b.OwnerImbalance(); got != st.After {
			t.Fatalf("hot-split=%v: OwnerImbalance() = %.3f, rebalance reported %.3f", hs, got, st.After)
		}
		if err := b.AddBlockCtx(context.Background(), rows[len(rows)/2:]); err != nil {
			t.Fatal(err)
		}
		pt, bst := b.Finalize()
		if !pt.Equal(ref) {
			t.Fatalf("hot-split=%v: post-rebalance table differs from oracle", hs)
		}
		assertStatsInvariant(t, bst)
		assertSplitInvariant(t, bst)
	}
}

func datasetRows(d *dataset.Dataset) [][]uint8 {
	rows := make([][]uint8, d.NumSamples())
	for i := range rows {
		rows[i] = d.Row(i)
	}
	return rows
}

// TestRebalanceRacingFreeze drives PotentialTable.Rebalance against
// concurrent FreezeCtx calls and snapshot readers under -race: both
// serialize on the table's structural lock, so no interleaving may corrupt
// content or trip the race detector.
func TestRebalanceRacingFreeze(t *testing.T) {
	d := zipfData(t, 20000, 8, 3, 41, 1.5)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BuildSequential(d)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(3)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				pt.Rebalance(2 + (g+i)%7)
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := pt.FreezeCtx(ctx, 2); err != nil {
					t.Errorf("FreezeCtx: %v", err)
					return
				}
			}
		}()
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pt.Get(uint64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if !pt.Equal(ref) {
		t.Fatal("table content corrupted by Rebalance/Freeze race")
	}
}
