package core

import (
	"context"
	"testing"

	"waitfreebn/internal/dataset"
)

// marg, margPair, margMany and margManyCached run the scan entry points
// under a background context and fail the test on error.
func marg(tb testing.TB, pt *PotentialTable, vars []int, p int) *Marginal {
	tb.Helper()
	mg, err := pt.MarginalizeCtx(context.Background(), vars, p)
	if err != nil {
		tb.Fatal(err)
	}
	return mg
}

func margPair(tb testing.TB, pt *PotentialTable, i, j, p int) *Marginal {
	tb.Helper()
	mg, err := pt.MarginalizePairCtx(context.Background(), i, j, p)
	if err != nil {
		tb.Fatal(err)
	}
	return mg
}

func margMany(tb testing.TB, pt *PotentialTable, varsets [][]int, p int) []*Marginal {
	tb.Helper()
	out, err := pt.MarginalizeManyCtx(context.Background(), varsets, p)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

func margManyCached(tb testing.TB, pt *PotentialTable, varsets [][]int, p int, cache *MarginalCache) []*Marginal {
	tb.Helper()
	out, err := pt.MarginalizeManyCachedCtx(context.Background(), varsets, p, cache)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// bruteMarginal computes the marginal over vars directly from the dataset.
func bruteMarginal(d *dataset.Dataset, vars []int) map[string]uint64 {
	out := map[string]uint64{}
	for i := 0; i < d.NumSamples(); i++ {
		key := make([]byte, len(vars))
		for k, v := range vars {
			key[k] = d.Get(i, v)
		}
		out[string(key)]++
	}
	return out
}

func TestMarginalizeMatchesBruteForce(t *testing.T) {
	d := uniformData(t, 10000, 6, 3, 20)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, vars := range [][]int{{0}, {5}, {1, 3}, {0, 2, 4}, {5, 1}} {
		mg := marg(t, pt, vars, 4)
		if mg.M != 10000 {
			t.Fatalf("vars %v: M = %d", vars, mg.M)
		}
		if mg.Total() != 10000 {
			t.Fatalf("vars %v: Total = %d", vars, mg.Total())
		}
		brute := bruteMarginal(d, vars)
		states := make([]uint8, len(vars))
		var check func(k int)
		check = func(k int) {
			if k == len(vars) {
				want := brute[string(states)]
				if got := mg.Count(states...); got != want {
					t.Fatalf("vars %v states %v: count %d, want %d", vars, states, got, want)
				}
				return
			}
			for s := 0; s < d.Cardinality(vars[k]); s++ {
				states[k] = uint8(s)
				check(k + 1)
			}
		}
		check(0)
	}
}

func TestMarginalizeIndependentOfWorkerCount(t *testing.T) {
	d := uniformData(t, 8000, 8, 2, 21)
	pt, _, err := Build(d, Options{P: 8})
	if err != nil {
		t.Fatal(err)
	}
	ref := marg(t, pt, []int{2, 6}, 1)
	for _, p := range []int{2, 3, 8, 16} {
		mg := marg(t, pt, []int{2, 6}, p)
		for c := range ref.Counts {
			if mg.Counts[c] != ref.Counts[c] {
				t.Fatalf("p=%d cell %d: %d != %d", p, c, mg.Counts[c], ref.Counts[c])
			}
		}
	}
}

func TestMarginalizePairMatchesGeneral(t *testing.T) {
	d := uniformData(t, 5000, 6, 3, 22)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 6; j++ {
			a := marg(t, pt, []int{i, j}, 4)
			b := margPair(t, pt, i, j, 4)
			if len(a.Counts) != len(b.Counts) {
				t.Fatalf("(%d,%d): cell counts differ", i, j)
			}
			for c := range a.Counts {
				if a.Counts[c] != b.Counts[c] {
					t.Fatalf("(%d,%d) cell %d: %d != %d", i, j, c, a.Counts[c], b.Counts[c])
				}
			}
		}
	}
}

func TestMarginalProb(t *testing.T) {
	d := dataset.NewUniformCard(4, 2, 2)
	// Rows: (0,0), (0,0), (1,0), (1,1)
	d.Set(2, 0, 1)
	d.Set(3, 0, 1)
	d.Set(3, 1, 1)
	pt, _, err := Build(d, Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	mg := marg(t, pt, []int{0}, 2)
	if got := mg.Prob(0); got != 0.5 {
		t.Errorf("P(x0=0) = %v, want 0.5", got)
	}
	if got := mg.Count(1); got != 2 {
		t.Errorf("Count(x0=1) = %d, want 2", got)
	}
}

func TestMarginalProbZeroM(t *testing.T) {
	mg := &Marginal{Vars: []int{0}, Card: []int{2}, Counts: make([]uint64, 2), M: 0}
	if got := mg.Prob(0); got != 0 {
		t.Errorf("Prob on empty marginal = %v", got)
	}
}

func TestMarginalPanics(t *testing.T) {
	mg := &Marginal{Vars: []int{0, 1}, Card: []int{2, 2}, Counts: make([]uint64, 4), M: 4}
	for name, fn := range map[string]func(){
		"wrong arity":   func() { mg.Count(1) },
		"state range":   func() { mg.Count(1, 2) },
		"SumOver range": func() { mg.SumOver(2) },
		"SumOver -1":    func() { mg.SumOver(-1) },
		"SumOut range":  func() { mg.SumOut(2) },
		"SumOut -1":     func() { mg.SumOut(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSumOverMatchesDirectMarginal(t *testing.T) {
	d := uniformData(t, 6000, 5, 3, 23)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	joint := margPair(t, pt, 1, 3, 4)
	mx := joint.SumOver(0)
	my := joint.SumOver(1)
	dx := marg(t, pt, []int{1}, 4)
	dy := marg(t, pt, []int{3}, 4)
	for s := 0; s < 3; s++ {
		if mx.Counts[s] != dx.Counts[s] {
			t.Errorf("SumOver(0) state %d: %d != %d", s, mx.Counts[s], dx.Counts[s])
		}
		if my.Counts[s] != dy.Counts[s] {
			t.Errorf("SumOver(1) state %d: %d != %d", s, my.Counts[s], dy.Counts[s])
		}
	}
	if mx.Vars[0] != 1 || my.Vars[0] != 3 {
		t.Errorf("SumOver kept wrong vars: %v, %v", mx.Vars, my.Vars)
	}
}

func TestSumOverThreeVariableMarginal(t *testing.T) {
	d := uniformData(t, 6000, 5, 2, 24)
	pt, _, err := Build(d, Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	m3 := marg(t, pt, []int{0, 2, 4}, 2)
	for keep, v := range []int{0, 2, 4} {
		got := m3.SumOver(keep)
		want := marg(t, pt, []int{v}, 2)
		for s := range got.Counts {
			if got.Counts[s] != want.Counts[s] {
				t.Errorf("SumOver(%d) state %d: %d != %d", keep, s, got.Counts[s], want.Counts[s])
			}
		}
	}
}

func TestRebalancePreservesContent(t *testing.T) {
	d := dataset.NewUniformCard(20000, 8, 3)
	d.Zipf(25, 2.0, 4) // skew → unbalanced partitions under modulo
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := BuildSequential(d)
	before := marg(t, pt, []int{1, 4}, 4)

	pt.Rebalance(4)
	if !pt.Equal(ref) {
		t.Fatal("Rebalance changed table content")
	}
	after := marg(t, pt, []int{1, 4}, 4)
	for c := range before.Counts {
		if before.Counts[c] != after.Counts[c] {
			t.Fatalf("cell %d changed: %d != %d", c, before.Counts[c], after.Counts[c])
		}
	}
	// Balance: partitions must differ by at most a factor ~1 plus slack.
	if imb := pt.maxImbalance(); imb > 1.5 {
		t.Errorf("imbalance after Rebalance = %.2f", imb)
	}
}

func TestRebalanceToDifferentPartitionCount(t *testing.T) {
	d := uniformData(t, 5000, 6, 2, 26)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := BuildSequential(d)
	for _, parts := range []int{1, 2, 8} {
		pt.Rebalance(parts)
		if pt.Partitions() != parts {
			t.Fatalf("Partitions = %d, want %d", pt.Partitions(), parts)
		}
		if !pt.Equal(ref) {
			t.Fatalf("Rebalance(%d) changed content", parts)
		}
	}
}

func TestRebalancePanicsOnBadCount(t *testing.T) {
	d := uniformData(t, 100, 4, 2, 27)
	pt, _, _ := Build(d, Options{P: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("Rebalance(0) did not panic")
		}
	}()
	pt.Rebalance(0)
}

func TestPotentialTableRangeEarlyStop(t *testing.T) {
	d := uniformData(t, 1000, 6, 2, 28)
	pt, _, _ := Build(d, Options{P: 4})
	visits := 0
	pt.Range(func(key, count uint64) bool {
		visits++
		return visits < 3
	})
	if visits != 3 {
		t.Errorf("Range visited %d entries, want 3", visits)
	}
}
