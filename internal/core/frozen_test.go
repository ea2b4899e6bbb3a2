package core

import (
	"context"
	"errors"
	"sort"
	"testing"

	"waitfreebn/internal/dataset"
	"waitfreebn/internal/obs"
)

// mixedData builds a dataset over mixed cardinalities so frozen-vs-live
// equivalence is exercised off the uniform fast path.
func mixedData(t testing.TB, m int, cards []int, seed uint64) *dataset.Dataset {
	t.Helper()
	d := dataset.New(m, cards)
	d.UniformIndependent(seed, 4)
	return d
}

func TestFreezeStatsAndIdempotency(t *testing.T) {
	d := uniformData(t, 20000, 8, 3, 30)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Frozen() {
		t.Fatal("table frozen before Freeze")
	}
	st := pt.Freeze(4)
	if !pt.Frozen() {
		t.Fatal("table not frozen after Freeze")
	}
	if st.Entries != pt.Len() {
		t.Fatalf("FreezeStats.Entries = %d, want %d", st.Entries, pt.Len())
	}
	if st.Partitions != pt.Partitions() {
		t.Fatalf("FreezeStats.Partitions = %d, want %d", st.Partitions, pt.Partitions())
	}
	again := pt.Freeze(1)
	if again.Entries != st.Entries || again.Duration != 0 {
		t.Fatalf("second Freeze not a no-op: %+v", again)
	}
}

func TestFrozenSnapshotSortedPerPartition(t *testing.T) {
	d := uniformData(t, 30000, 10, 2, 31)
	pt, _, err := Build(d, Options{P: 5})
	if err != nil {
		t.Fatal(err)
	}
	pt.Freeze(3)
	ft := pt.frozen.Load()
	if ft == nil {
		t.Fatal("no snapshot")
	}
	if len(ft.parts) != pt.Partitions() {
		t.Fatalf("snapshot has %d blocks for %d partitions", len(ft.parts), pt.Partitions())
	}
	for p := range ft.parts {
		seg := ft.parts[p].keys
		if !sort.SliceIsSorted(seg, func(i, j int) bool { return seg[i] < seg[j] }) {
			t.Fatalf("partition %d segment not sorted", p)
		}
	}
}

func TestFrozenGetMatchesLive(t *testing.T) {
	d := uniformData(t, 10000, 8, 3, 32)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	type kv struct{ k, c uint64 }
	var entries []kv
	pt.Range(func(key, count uint64) bool {
		entries = append(entries, kv{key, count})
		return true
	})
	pt.Freeze(0)
	for _, e := range entries {
		if got := pt.Get(e.k); got != e.c {
			t.Fatalf("frozen Get(%d) = %d, want %d", e.k, got, e.c)
		}
	}
	// A key that was never observed must read as zero on both paths.
	probe := uint64(0)
	seen := map[uint64]bool{}
	for _, e := range entries {
		seen[e.k] = true
	}
	for seen[probe] {
		probe++
	}
	if got := pt.Get(probe); got != 0 {
		t.Fatalf("frozen Get(absent %d) = %d, want 0", probe, got)
	}
}

// TestFrozenScansBitIdenticalToLive is the tentpole equivalence test: every
// read-path primitive must produce bit-identical output from the frozen
// snapshot and the live hashtables, at every worker count including
// p > partitions (where the live path clamps and the frozen path does not).
func TestFrozenScansBitIdenticalToLive(t *testing.T) {
	cases := []struct {
		name string
		data *dataset.Dataset
		p    int
	}{
		{"uniform", uniformData(t, 25000, 7, 3, 33), 4},
		{"mixed", mixedData(t, 25000, []int{2, 5, 3, 1, 4, 2, 7}, 34), 3},
	}
	varsets := [][]int{{0}, {2, 4}, {5, 1, 3}, {6, 0}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live, _, err := Build(tc.data, Options{P: tc.p})
			if err != nil {
				t.Fatal(err)
			}
			frozen, _, err := Build(tc.data, Options{P: tc.p})
			if err != nil {
				t.Fatal(err)
			}
			frozen.Freeze(0)

			for _, p := range []int{1, 3, 8, 2 * tc.p, 64} {
				for _, vars := range varsets {
					a := marg(t, live, vars, p)
					b := marg(t, frozen, vars, p)
					for c := range a.Counts {
						if a.Counts[c] != b.Counts[c] {
							t.Fatalf("p=%d vars=%v cell %d: live %d != frozen %d", p, vars, c, a.Counts[c], b.Counts[c])
						}
					}
				}
				a := margPair(t, live, 1, 4, p)
				b := margPair(t, frozen, 1, 4, p)
				for c := range a.Counts {
					if a.Counts[c] != b.Counts[c] {
						t.Fatalf("p=%d pair cell %d: live %d != frozen %d", p, c, a.Counts[c], b.Counts[c])
					}
				}
				am := margMany(t, live, varsets, p)
				bm := margMany(t, frozen, varsets, p)
				for k := range am {
					for c := range am[k].Counts {
						if am[k].Counts[c] != bm[k].Counts[c] {
							t.Fatalf("p=%d many[%d] cell %d: live %d != frozen %d", p, k, c, am[k].Counts[c], bm[k].Counts[c])
						}
					}
				}
				for _, schedule := range []MISchedule{MIFused, MIPairParallel, MIPairDynamic, MIPartitionParallel} {
					ma := live.AllPairsMI(p, schedule)
					mb := frozen.AllPairsMI(p, schedule)
					ma.ForEachPair(func(i, j int, v float64) {
						if w := mb.At(i, j); w != v {
							t.Fatalf("p=%d %v MI(%d,%d): live %v != frozen %v", p, schedule, i, j, v, w)
						}
					})
				}
			}
		})
	}
}

func TestRebalanceInvalidatesSnapshot(t *testing.T) {
	d := uniformData(t, 10000, 6, 3, 35)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref := marg(t, pt, []int{1, 3}, 4)
	pt.Freeze(0)
	pt.Rebalance(7)
	if pt.Frozen() {
		t.Fatal("snapshot survived Rebalance")
	}
	mg := marg(t, pt, []int{1, 3}, 4)
	for c := range ref.Counts {
		if mg.Counts[c] != ref.Counts[c] {
			t.Fatalf("cell %d after rebalance: %d != %d", c, mg.Counts[c], ref.Counts[c])
		}
	}
	// Re-freezing after a rebalance captures the new partitions.
	st := pt.Freeze(0)
	if st.Partitions != 7 {
		t.Fatalf("re-freeze saw %d partitions, want 7", st.Partitions)
	}
	mg = marg(t, pt, []int{1, 3}, 4)
	for c := range ref.Counts {
		if mg.Counts[c] != ref.Counts[c] {
			t.Fatalf("cell %d after re-freeze: %d != %d", c, mg.Counts[c], ref.Counts[c])
		}
	}
}

func TestFrozenScanCancel(t *testing.T) {
	d := uniformData(t, 50000, 10, 2, 36)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	pt.Freeze(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pt.MarginalizeCtx(ctx, []int{0, 1}, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("frozen Marginalize err = %v, want Canceled", err)
	}
	if _, err := pt.AllPairsMICtx(ctx, 4, MIFused); !errors.Is(err, context.Canceled) {
		t.Fatalf("frozen fused MI err = %v, want Canceled", err)
	}
	if _, err := pt.AllPairsMICtx(ctx, 4, MIPairDynamic); !errors.Is(err, context.Canceled) {
		t.Fatalf("frozen dynamic MI err = %v, want Canceled", err)
	}
}

func TestFreezeCtxCancel(t *testing.T) {
	d := uniformData(t, 20000, 8, 2, 37)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pt.FreezeCtx(ctx, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("FreezeCtx err = %v, want Canceled", err)
	}
	if pt.Frozen() {
		t.Fatal("cancelled FreezeCtx left a snapshot behind")
	}
}

// TestScanClampSurfaced checks the satellite contract: asking a live table
// for more workers than partitions bumps core_scan_clamped_total, and a
// frozen table never clamps.
func TestScanClampSurfaced(t *testing.T) {
	d := uniformData(t, 5000, 6, 2, 38)
	r := obs.NewRegistry()
	pt, _, err := Build(d, Options{P: 2, Obs: r})
	if err != nil {
		t.Fatal(err)
	}
	clamped := func() uint64 {
		return r.Snapshot().Counters[metricScanClamped]
	}
	marg(t, pt, []int{0, 1}, 16)
	if got := clamped(); got != 1 {
		t.Fatalf("clamp counter after live over-subscribed scan = %v, want 1", got)
	}
	pt.AllPairsMI(16, MIFused)
	if got := clamped(); got != 2 {
		t.Fatalf("clamp counter after live fused MI = %v, want 2", got)
	}
	pt.Freeze(0)
	marg(t, pt, []int{0, 1}, 16)
	pt.AllPairsMI(16, MIFused)
	if got := clamped(); got != 2 {
		t.Fatalf("clamp counter moved on frozen scans: %v, want 2", got)
	}
}

func TestFreezeObsMetrics(t *testing.T) {
	d := uniformData(t, 5000, 6, 2, 39)
	r := obs.NewRegistry()
	pt, _, err := Build(d, Options{P: 2, Obs: r})
	if err != nil {
		t.Fatal(err)
	}
	pt.Freeze(0)
	marg(t, pt, []int{0, 1}, 2)
	s := r.Snapshot()
	if got := s.Gauges[metricFrozenEntries]; got != float64(pt.Len()) {
		t.Fatalf("%s = %v, want %d", metricFrozenEntries, got, pt.Len())
	}
	if got := s.Counters[metricScanEntries+`{path="frozen"}`]; got != uint64(pt.Len()) {
		t.Fatalf(`%s{path="frozen"} = %d, want %d`, metricScanEntries, got, pt.Len())
	}
}
