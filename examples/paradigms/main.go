// The two structure-learning paradigms of the paper's Section III, head to
// head on the same wait-free potential table: Cheng et al.'s
// constraint-based three-phase algorithm (what the paper parallelizes)
// versus score-based greedy hill climbing with BIC (the competing family).
//
// Both consume the identical table built once by the wait-free primitive —
// the primitives are paradigm-agnostic pre-processing, which is exactly the
// paper's pitch for them.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"waitfreebn/internal/bn"
	"waitfreebn/internal/core"
	"waitfreebn/internal/graph"
	"waitfreebn/internal/search"
	"waitfreebn/internal/structure"
)

func main() {
	ctx := context.Background()
	truth := bn.Asia()
	const m = 400_000
	train, err := truth.Sample(m, 31337, 4)
	if err != nil {
		log.Fatal(err)
	}
	test, err := truth.Sample(50_000, 31338, 4)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	pt, st, err := core.BuildCtx(ctx, train, core.Options{P: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shared potential table: %d samples → %d distinct keys in %v (%d queue transfers)\n\n",
		m, pt.Len(), time.Since(start).Round(time.Millisecond), st.ForeignKeys)

	// --- Paradigm 1: constraint satisfaction (Cheng et al.) ---
	t0 := time.Now()
	cb, err := structure.LearnFromTable(pt, structure.Config{P: 4, Test: structure.TestG, Alpha: 0.01})
	if err != nil {
		log.Fatal(err)
	}
	cbTime := time.Since(t0)
	cbDAG, err := cb.PDAG.ToDAG()
	if err != nil {
		log.Fatal(err)
	}

	// --- Paradigm 2: score-based search (BIC hill climbing) ---
	t1 := time.Now()
	hc, err := search.HillClimbCtx(ctx, pt, search.Config{P: 4})
	if err != nil {
		log.Fatal(err)
	}
	hcTime := time.Since(t1)

	// --- Scoreboard ---
	evaluate := func(name string, dag *graph.DAG, sk structure.SkeletonMetrics, elapsed time.Duration) {
		fitted, err := bn.FitCPTs(name, dag, train, 1, 4)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s edges=%d  precision=%.2f recall=%.2f F1=%.2f  heldout-LL=%.4f  BIC=%.0f  time=%v\n",
			name, dag.NumEdges(), sk.Precision, sk.Recall, sk.F1,
			fitted.MeanLogLikelihood(test, 4), fitted.BIC(train, 4), elapsed.Round(time.Millisecond))
	}
	fmt.Printf("%-18s edges=%d  (ground truth)  heldout-LL=%.4f\n",
		"true network", truth.DAG().NumEdges(), truth.MeanLogLikelihood(test, 4))
	evaluate("constraint (cheng)", cbDAG,
		structure.CompareSkeleton(cb.Graph, truth.DAG()), cbTime)
	evaluate("score (hillclimb)", hc.DAG,
		structure.CompareSkeleton(hc.DAG.Skeleton(), truth.DAG()), hcTime)

	fmt.Printf("\nconstraint-based: %d CI tests | hill climbing: %d moves, %d family evaluations\n",
		cb.CITests, hc.Iterations, hc.Evaluations)
}
