package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"waitfreebn/internal/dataset"
)

func TestMarginalizeManyMatchesSingles(t *testing.T) {
	d := uniformData(t, 10000, 7, 3, 80)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	varsets := [][]int{{0}, {1, 3}, {6, 2, 4}, {5}, {0, 6}}
	many := margMany(t, pt, varsets, 4)
	if len(many) != len(varsets) {
		t.Fatalf("got %d marginals", len(many))
	}
	for k, vars := range varsets {
		single := marg(t, pt, vars, 4)
		if len(many[k].Counts) != len(single.Counts) {
			t.Fatalf("set %d: cell counts differ", k)
		}
		for c := range single.Counts {
			if many[k].Counts[c] != single.Counts[c] {
				t.Fatalf("set %d cell %d: %d != %d", k, c, many[k].Counts[c], single.Counts[c])
			}
		}
		if many[k].M != single.M {
			t.Fatalf("set %d: M %d != %d", k, many[k].M, single.M)
		}
	}
}

func TestMarginalizeManyEmpty(t *testing.T) {
	d := uniformData(t, 100, 3, 2, 81)
	pt, _, _ := Build(d, Options{P: 2})
	if got := margMany(t, pt, nil, 2); got != nil {
		t.Fatalf("expected nil for empty request, got %v", got)
	}
}

func TestMarginalizeManyIndependentOfWorkers(t *testing.T) {
	d := uniformData(t, 5000, 6, 2, 82)
	pt, _, err := Build(d, Options{P: 8})
	if err != nil {
		t.Fatal(err)
	}
	varsets := [][]int{{0, 1}, {2, 3}, {4, 5}}
	ref := margMany(t, pt, varsets, 1)
	for _, p := range []int{2, 4, 16} {
		got := margMany(t, pt, varsets, p)
		for k := range varsets {
			for c := range ref[k].Counts {
				if got[k].Counts[c] != ref[k].Counts[c] {
					t.Fatalf("p=%d set %d cell %d differs", p, k, c)
				}
			}
		}
	}
}

func TestMarginalizeManyDuplicateSubsets(t *testing.T) {
	d := uniformData(t, 3000, 4, 2, 83)
	pt, _, _ := Build(d, Options{P: 2})
	many := margMany(t, pt, [][]int{{1, 2}, {1, 2}}, 2)
	for c := range many[0].Counts {
		if many[0].Counts[c] != many[1].Counts[c] {
			t.Fatal("duplicate subsets produced different marginals")
		}
	}
}

// TestMarginalizeManyMatchesPerKeyCell checks the block kernel against the
// per-key SubsetDecoder.Cell decode, cell for cell: on a live table (blocks
// in hash order, unsorted) and a frozen one (sorted blocks, where constant
// digits are folded into a base offset), at P=1 and P=2. The cardinalities
// mix powers of two (shift-and-mask columns), others (reciprocal columns)
// and a unit variable, and the draws are skewed so entries repeat.
func TestMarginalizeManyMatchesPerKeyCell(t *testing.T) {
	card := []int{2, 3, 4, 5, 2, 8, 3, 2, 17, 2, 1, 4}
	d := dataset.New(20000, card)
	rng := rand.New(rand.NewSource(84))
	for i := 0; i < d.NumSamples(); i++ {
		for j, r := range card {
			d.Set(i, j, uint8(min(rng.Intn(r), rng.Intn(r))))
		}
	}
	live, _, err := Build(d, Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	frozen, _, err := Build(d, Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	frozen.Freeze(2)
	varsets := [][]int{{0}, {11, 3}, {1, 8, 2}, {10}, {9, 7, 5, 0}, {4, 6, 10, 1}, {8, 9}, {11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}}
	for _, pt := range []*PotentialTable{live, frozen} {
		for _, p := range []int{1, 2} {
			got := margMany(t, pt, varsets, p)
			for k, vars := range varsets {
				dec := pt.Codec().SubsetDecoder(vars)
				want := make([]uint64, dec.Cells())
				pt.Range(func(key, count uint64) bool {
					want[dec.Cell(key)] += count
					return true
				})
				for c := range want {
					if got[k].Counts[c] != want[c] {
						t.Fatalf("frozen=%v p=%d varset %v cell %d: %d, per-key Cell %d",
							pt.Frozen(), p, vars, c, got[k].Counts[c], want[c])
					}
				}
			}
		}
	}
}

func BenchmarkMarginalizeManyVsSingles(b *testing.B) {
	d := dataNoT(200000, 12, 2)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		b.Fatal(err)
	}
	varsets := make([][]int, 0, 11)
	for j := 1; j < 12; j++ {
		varsets = append(varsets, []int{0, j})
	}
	ctx := context.Background()
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pt.MarginalizeManyCtx(ctx, varsets, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("singles", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, vs := range varsets {
				if _, err := pt.MarginalizeCtx(ctx, vs, 4); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkMarginalizeMany times one fused scan of a frozen 100k×30 table
// for a thickening-shaped batch: 16 varsets of 3-8 variables. At r=2 every
// digit takes CellBlock's shift-and-mask path; at r=3 none does. ns/entry
// is the wall time per table entry for the whole batch.
func BenchmarkMarginalizeMany(b *testing.B) {
	for _, r := range []int{2, 3} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			const n = 30
			pt, _, err := Build(dataNoT(100000, n, r), Options{P: 2})
			if err != nil {
				b.Fatal(err)
			}
			pt.Freeze(1)
			rng := rand.New(rand.NewSource(7))
			varsets := make([][]int, 16)
			for k := range varsets {
				varsets[k] = rng.Perm(n)[:3+k%6]
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pt.MarginalizeManyCtx(ctx, varsets, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pt.Len()), "ns/entry")
		})
	}
}

// dataNoT builds a dataset without a testing.TB, for benchmarks.
func dataNoT(m, n, r int) *dataset.Dataset {
	d := dataset.NewUniformCard(m, n, r)
	d.UniformIndependent(1, 4)
	return d
}
