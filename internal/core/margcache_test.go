package core

import (
	"context"
	"errors"
	"testing"

	"waitfreebn/internal/obs"
)

func marginalsEqual(t *testing.T, a, b *Marginal, label string) {
	t.Helper()
	if len(a.Vars) != len(b.Vars) {
		t.Fatalf("%s: arity %d != %d", label, len(a.Vars), len(b.Vars))
	}
	for i := range a.Vars {
		if a.Vars[i] != b.Vars[i] || a.Card[i] != b.Card[i] {
			t.Fatalf("%s: axis %d differs: %v/%v vs %v/%v", label, i, a.Vars, a.Card, b.Vars, b.Card)
		}
	}
	if a.M != b.M || len(a.Counts) != len(b.Counts) {
		t.Fatalf("%s: shape/M differs", label)
	}
	for c := range a.Counts {
		if a.Counts[c] != b.Counts[c] {
			t.Fatalf("%s: cell %d: %d != %d", label, c, a.Counts[c], b.Counts[c])
		}
	}
}

func TestReorderRoundTrip(t *testing.T) {
	d := uniformData(t, 8000, 5, 3, 90)
	pt, _, err := Build(d, Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	orders := [][]int{{2, 0, 4}, {4, 2, 0}, {0, 2, 4}, {0, 4, 2}}
	for _, order := range orders {
		want := marg(t, pt, order, 2)
		base := marg(t, pt, []int{0, 2, 4}, 2)
		got := base.Reorder(order)
		marginalsEqual(t, got, want, "reorder")
	}
	// Identity reorder returns the receiver untouched.
	base := marg(t, pt, []int{1, 3}, 2)
	if base.Reorder([]int{1, 3}) != base {
		t.Error("identity Reorder did not return the receiver")
	}
}

func TestReorderPanicsOnNonPermutation(t *testing.T) {
	mg := &Marginal{Vars: []int{0, 1}, Card: []int{2, 2}, Counts: make([]uint64, 4)}
	for name, vars := range map[string][]int{
		"wrong arity": {0},
		"foreign var": {0, 5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			mg.Reorder(vars)
		}()
	}
}

func TestMarginalizeManyCachedMatchesUncached(t *testing.T) {
	d := uniformData(t, 20000, 8, 3, 91)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Mixed orders, duplicates under different orders, and repeats.
	varsets := [][]int{
		{1, 3, 5}, {5, 3, 1}, {0, 7}, {7, 0}, {2}, {1, 3, 5}, {4, 2, 6},
	}
	want := margMany(t, pt, varsets, 4)
	for _, cache := range []*MarginalCache{nil, NewMarginalCache(1<<16, nil)} {
		got := margManyCached(t, pt, varsets, 4, cache)
		for k := range varsets {
			marginalsEqual(t, got[k], want[k], "cached vs direct")
		}
		// A second pass must serve everything from the cache and still agree.
		got2 := margManyCached(t, pt, varsets, 4, cache)
		for k := range varsets {
			marginalsEqual(t, got2[k], want[k], "second pass")
		}
	}
}

func TestMarginalCacheHitMissCounters(t *testing.T) {
	d := uniformData(t, 5000, 6, 2, 92)
	pt, _, err := Build(d, Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cache := NewMarginalCache(1<<16, reg)
	margManyCached(t, pt, [][]int{{0, 1}, {2, 3}}, 2, cache)
	st := cache.Stats()
	if st.Hits != 0 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("after cold pass: %+v", st)
	}
	// {1, 0} is the same canonical set as {0, 1}: a hit in another order.
	margManyCached(t, pt, [][]int{{1, 0}, {4, 5}}, 2, cache)
	st = cache.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Entries != 3 {
		t.Fatalf("after warm pass: %+v", st)
	}
	if st.HitRate() <= 0 || st.HitRate() >= 1 {
		t.Errorf("hit rate %v out of range", st.HitRate())
	}
	if reg.Counter(metricCacheHits).Value() != 1 || reg.Counter(metricCacheMisses).Value() != 3 {
		t.Errorf("obs counters: hits=%d misses=%d",
			reg.Counter(metricCacheHits).Value(), reg.Counter(metricCacheMisses).Value())
	}
	if st.String() == "" {
		t.Error("empty Stats string")
	}
}

func TestMarginalCacheEvictsWithinBudget(t *testing.T) {
	d := uniformData(t, 5000, 10, 3, 93)
	pt, _, err := Build(d, Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Budget of 30 cells holds at most three 9-cell pair marginals.
	cache := NewMarginalCache(30, nil)
	for i := 0; i < 9; i++ {
		margManyCached(t, pt, [][]int{{i, i + 1}}, 2, cache)
	}
	st := cache.Stats()
	if st.Cells > 30 {
		t.Errorf("cache over budget: %+v", st)
	}
	if st.Evictions == 0 {
		t.Errorf("no evictions despite pressure: %+v", st)
	}
	// An entry bigger than the whole budget is computed but never cached.
	before := cache.Stats().Entries
	margManyCached(t, pt, [][]int{{0, 1, 2, 3}}, 2, cache) // 81 cells > 30
	if got := cache.Stats(); got.Cells > 30 || got.Entries > before+0 {
		t.Errorf("oversized entry was cached: %+v", got)
	}
}

var errCacheMismatch = errors.New("cached marginal differs from direct computation")

func TestMarginalizeManyCachedConcurrent(t *testing.T) {
	d := uniformData(t, 10000, 6, 2, 94)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewMarginalCache(1<<12, nil)
	want := marg(t, pt, []int{1, 4}, 1)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				vs := [][]int{{1, 4}, {4, 1}, {g % 6, (g + 1) % 6, (g + 2) % 6}}
				if vs[2][0] == vs[2][1] || vs[2][1] == vs[2][2] || vs[2][0] == vs[2][2] {
					vs = vs[:2]
				}
				ms, err := pt.MarginalizeManyCachedCtx(context.Background(), vs, 2, cache)
				if err != nil {
					done <- err
					return
				}
				for c := range want.Counts {
					if ms[0].Counts[c] != want.Counts[c] {
						done <- errCacheMismatch
						return
					}
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
