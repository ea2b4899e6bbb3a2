// Command bnlearn learns a Bayesian-network skeleton from a CSV dataset
// using Cheng et al.'s three-phase algorithm over the wait-free parallel
// primitives.
//
// Usage:
//
//	bnlearn -in data.csv [-epsilon 0.01] [-p 8] [-topk 10]
//	datagen -net asia -m 100000 | bnlearn -epsilon 0.003
//
// The input is integer CSV with a header row (the format datagen emits and
// dataset.WriteCSV produces). Output: the learned edges, the top-k
// mutual-information pairs, and per-phase timing.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"waitfreebn/internal/bn"
	"waitfreebn/internal/cliopt"
	"waitfreebn/internal/core"
	"waitfreebn/internal/dataset"
	"waitfreebn/internal/graph"
	"waitfreebn/internal/search"
	"waitfreebn/internal/structure"
)

func main() {
	// Malformed input must exit with a one-line diagnostic, never a raw
	// panic dump — panics escaping the learning paths are internal errors.
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintln(os.Stderr, "bnlearn: internal error:", r)
			os.Exit(1)
		}
	}()
	var (
		in      = flag.String("in", "", "input CSV path (default stdin)")
		epsilon = flag.Float64("epsilon", 0.01, "mutual-information dependence threshold (bits)")
		topk    = flag.Int("topk", 10, "how many top-MI pairs to print")
		maxCond = flag.Int("maxcond", 6, "maximum conditioning-set size")
		gtest   = flag.Bool("gtest", false, "use the G independence test instead of the MI threshold")
		alpha   = flag.Float64("alpha", 0.01, "significance level for -gtest")
		algo    = flag.String("algo", "cheng", "learning algorithm: cheng (constraint-based) | hillclimb (BIC score-based)")
		emit    = flag.String("emit", "", "fit CPTs on the learned structure and write the model as JSON to this path")
	)
	coreFl := cliopt.AddCore(flag.CommandLine)
	learnFl := cliopt.AddLearn(flag.CommandLine)
	obsFl := cliopt.AddObs(flag.CommandLine)
	rtFl := cliopt.AddRuntime(flag.CommandLine)
	flag.Parse()

	buildOpts, err := coreFl.Options()
	if err != nil {
		fatal(err)
	}
	ctx, cleanup, err := rtFl.Context()
	if err != nil {
		fatal(err)
	}
	defer cleanup()
	reg, stopObs, err := obsFl.Start()
	if err != nil {
		fatal(err)
	}
	defer stopObs()
	buildOpts.Obs = reg

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	data, names, err := dataset.ReadCSVNamed(src, nil)
	if err != nil {
		fatal(err)
	}
	label := func(v int) string {
		if v < len(names) && names[v] != "" {
			return names[v]
		}
		return fmt.Sprintf("x%d", v)
	}
	fmt.Printf("dataset: m=%d samples, n=%d variables\n", data.NumSamples(), data.NumVars())

	if *algo == "hillclimb" {
		runHillClimb(ctx, data, buildOpts, *emit)
		return
	}
	if *algo != "cheng" {
		fatal(fmt.Errorf("unknown -algo %q", *algo))
	}

	cfg := structure.Config{
		Epsilon:      *epsilon,
		P:            buildOpts.P,
		MaxCondSet:   *maxCond,
		Alpha:        *alpha,
		BuildOptions: buildOpts,
	}
	if *gtest {
		cfg.Test = structure.TestG
	}
	learnFl.Apply(&cfg)
	res, err := structure.LearnCtx(ctx, data, cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("\nlearned skeleton (%d edges):\n", res.Graph.NumEdges())
	for _, e := range res.Graph.Edges() {
		arrow := "--"
		if res.PDAG.HasDirected(e[0], e[1]) {
			arrow = "->"
		} else if res.PDAG.HasDirected(e[1], e[0]) {
			arrow = "<-"
		}
		fmt.Printf("  %s %s %s   (I = %.4f bits)\n", label(e[0]), arrow, label(e[1]), res.MI.At(e[0], e[1]))
	}

	type pair struct {
		i, j int
		mi   float64
	}
	var pairs []pair
	res.MI.ForEachPair(func(i, j int, v float64) {
		pairs = append(pairs, pair{i, j, v})
	})
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].mi > pairs[b].mi })
	if *topk > len(pairs) {
		*topk = len(pairs)
	}
	fmt.Printf("\ntop-%d mutual information pairs:\n", *topk)
	for _, pr := range pairs[:*topk] {
		fmt.Printf("  I(%s; %s) = %.4f bits\n", label(pr.i), label(pr.j), pr.mi)
	}

	fmt.Printf("\nphases: draft %d edges (%v), thicken +%d (%v), thin -%d (%v)\n",
		res.DraftEdges, res.DraftTime.Round(time.Microsecond),
		res.ThickenEdges, res.ThickenTime.Round(time.Microsecond),
		res.ThinnedEdges, res.ThinTime.Round(time.Microsecond))
	fmt.Printf("build: %v (%s), freeze: %v, CI tests: %d (%d cond-set truncations)\n",
		res.BuildTime.Round(time.Microsecond), res.BuildStats, res.FreezeTime.Round(time.Microsecond),
		res.CITests, res.CondSetTruncations)
	if cfg.Freeze {
		fmt.Printf("freeze: %d entries over %d partitions\n", res.Freeze.Entries, res.Freeze.Partitions)
	}
	if cfg.PhasePar {
		fmt.Printf("wavefront: %d waves, %d requeued, %d wasted CI tests\n",
			res.Waves, res.Requeued, res.WastedCITests)
	}
	if res.Cache.Hits+res.Cache.Misses > 0 {
		fmt.Printf("marg-cache: %s\n", res.Cache)
	}

	if *emit != "" {
		dag, err := res.PDAG.ToDAG()
		if err != nil {
			fatal(fmt.Errorf("orienting for -emit: %w", err))
		}
		emitModel(dag, data, *emit)
	}
}

func runHillClimb(ctx context.Context, data *dataset.Dataset, opts core.Options, emit string) {
	pt, st, err := core.BuildCtx(ctx, data, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("build: %s\n", st)
	res, err := search.HillClimbCtx(ctx, pt, search.Config{P: opts.P})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nhill-climbed DAG (%d edges, BIC %.1f bits):\n", res.DAG.NumEdges(), res.Score)
	for _, e := range res.DAG.Edges() {
		fmt.Printf("  x%d -> x%d\n", e[0], e[1])
	}
	fmt.Printf("\n%d moves, %d family evaluations (%d cache hits), %v\n",
		res.Iterations, res.Evaluations, res.CacheHits, res.Elapsed.Round(time.Microsecond))
	if emit != "" {
		emitModel(res.DAG, data, emit)
	}
}

// emitModel fits CPTs on the structure and writes the model as JSON.
func emitModel(dag *graph.DAG, data *dataset.Dataset, path string) {
	model, err := bn.FitCPTs("learned", dag, data, 1, 0)
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := model.WriteJSON(f); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote fitted model to %s (%d parameters, mean LL %.4f bits/sample)\n",
		path, model.NumParameters(), model.MeanLogLikelihood(data, 0))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bnlearn:", err)
	os.Exit(1)
}
