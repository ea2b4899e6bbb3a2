package core_test

import (
	"context"
	"fmt"

	"waitfreebn/internal/core"
	"waitfreebn/internal/dataset"
	"waitfreebn/internal/stats"
)

// tinyDataset builds a fixed 8-sample dataset over three binary variables
// where x2 copies x0 and x1 is independent.
func tinyDataset() *dataset.Dataset {
	rows := [][]uint8{
		{0, 0, 0}, {0, 1, 0}, {0, 0, 0}, {0, 1, 0},
		{1, 0, 1}, {1, 1, 1}, {1, 0, 1}, {1, 1, 1},
	}
	d := dataset.NewUniformCard(len(rows), 3, 2)
	for i, row := range rows {
		for j, s := range row {
			d.Set(i, j, s)
		}
	}
	return d
}

// ExampleBuild shows the wait-free construction primitive end to end:
// the dataset becomes a potential table partitioned across 2 workers.
func ExampleBuild() {
	table, st, err := core.Build(tinyDataset(), core.Options{P: 2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("samples: %d\n", table.NumSamples())
	fmt.Printf("distinct state strings: %d\n", table.Len())
	fmt.Printf("all keys accounted for: %v\n", st.LocalKeys+st.ForeignKeys == 8)
	// Output:
	// samples: 8
	// distinct state strings: 4
	// all keys accounted for: true
}

// ExamplePotentialTable_MarginalizeCtx computes P(x0) with Algorithm 3.
func ExamplePotentialTable_MarginalizeCtx() {
	table, _, err := core.Build(tinyDataset(), core.Options{P: 2})
	if err != nil {
		panic(err)
	}
	mg, err := table.MarginalizeCtx(context.Background(), []int{0}, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("P(x0=0) = %.2f\n", mg.Prob(0))
	fmt.Printf("P(x0=1) = %.2f\n", mg.Prob(1))
	// Output:
	// P(x0=0) = 0.50
	// P(x0=1) = 0.50
}

// ExamplePotentialTable_AllPairsMI runs the drafting sweep (Algorithm 4):
// the copied pair lights up at 1 bit, the independent pairs at 0.
func ExamplePotentialTable_AllPairsMI() {
	table, _, err := core.Build(tinyDataset(), core.Options{P: 2})
	if err != nil {
		panic(err)
	}
	mi := table.AllPairsMI(2, core.MIFused)
	mi.ForEachPair(func(i, j int, v float64) {
		fmt.Printf("I(x%d;x%d) = %.1f\n", i, j, v)
	})
	// Output:
	// I(x0;x1) = 0.0
	// I(x0;x2) = 1.0
	// I(x1;x2) = 0.0
}

// ExamplePotentialTable_MarginalizePairCtx derives a mutual information
// value from the pairwise joint, the way Algorithm 4 composes the
// primitives.
func ExamplePotentialTable_MarginalizePairCtx() {
	table, _, err := core.Build(tinyDataset(), core.Options{P: 2})
	if err != nil {
		panic(err)
	}
	joint, err := table.MarginalizePairCtx(context.Background(), 0, 2, 2)
	if err != nil {
		panic(err)
	}
	mi := stats.MutualInfoCounts(joint.Counts, joint.Card[0], joint.Card[1])
	fmt.Printf("I(x0;x2) = %.1f bits\n", mi)
	// Output:
	// I(x0;x2) = 1.0 bits
}
