package search

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"waitfreebn/internal/bn"
	"waitfreebn/internal/core"
	"waitfreebn/internal/dataset"
	"waitfreebn/internal/graph"
	"waitfreebn/internal/rng"
	"waitfreebn/internal/structure"
)

func tableFrom(t *testing.T, net *bn.Network, m int, seed uint64) *core.PotentialTable {
	t.Helper()
	d, err := net.Sample(m, seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := core.Build(d, core.Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestHillClimbRecoversChainSkeleton(t *testing.T) {
	net := bn.Chain(6, 2, 0.85)
	pt := tableFrom(t, net, 60000, 1)
	res, err := HillClimbCtx(context.Background(), pt, Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := structure.CompareSkeleton(res.DAG.Skeleton(), net.DAG())
	// Greedy hill climbing is path-dependent: a wrong early orientation
	// can force one covering edge (a known limitation vs. the
	// constraint-based learner, which recovers this chain exactly).
	// Demand full recall and at most one spurious edge.
	if m.Recall < 1.0 || m.FalsePositives > 1 {
		t.Fatalf("chain recovery too poor: %+v\nlearned %v", m, res.DAG.Edges())
	}
}

func TestHillClimbRecoversNaiveBayes(t *testing.T) {
	net := bn.NaiveBayes(6, 2, 0.85)
	pt := tableFrom(t, net, 60000, 2)
	res, err := HillClimbCtx(context.Background(), pt, Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := structure.CompareSkeleton(res.DAG.Skeleton(), net.DAG())
	if m.F1 < 1.0 {
		t.Fatalf("naive-bayes recovery imperfect: %+v\nlearned %v", m, res.DAG.Edges())
	}
}

func TestHillClimbIndependentDataEmptyGraph(t *testing.T) {
	d := dataset.NewUniformCard(50000, 6, 2)
	d.UniformIndependent(3, 4)
	pt, _, err := core.Build(d, core.Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := HillClimbCtx(context.Background(), pt, Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.DAG.NumEdges() != 0 {
		t.Errorf("independent data produced %d edges: %v", res.DAG.NumEdges(), res.DAG.Edges())
	}
	if res.Iterations != 0 {
		t.Errorf("moves applied on independent data: %d", res.Iterations)
	}
}

func TestHillClimbScoreBeatsEmptyGraph(t *testing.T) {
	net := bn.Asia()
	pt := tableFrom(t, net, 100000, 4)
	res, err := HillClimbCtx(context.Background(), pt, Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Score of the empty structure for comparison.
	s := &searcher{ctx: context.Background(), pt: pt, cfg: Config{P: 4}.withDefaults(8), cache: map[string]float64{}}
	empty := 0.0
	for v := 0; v < 8; v++ {
		empty += s.familyScore(v, nil)
	}
	if res.Score <= empty {
		t.Errorf("final score %v does not beat empty-graph score %v", res.Score, empty)
	}
	if res.DAG.NumEdges() == 0 {
		t.Error("no edges learned on Asia data")
	}
}

func TestHillClimbRespectsMaxParents(t *testing.T) {
	net := bn.NaiveBayes(8, 2, 0.9)
	pt := tableFrom(t, net, 60000, 5)
	res, err := HillClimbCtx(context.Background(), pt, Config{P: 4, MaxParents: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 8; v++ {
		if got := len(res.DAG.Parents(v)); got > 1 {
			t.Errorf("node %d has %d parents, cap 1", v, got)
		}
	}
}

func TestHillClimbMaxItersBounds(t *testing.T) {
	net := bn.Chain(8, 2, 0.9)
	pt := tableFrom(t, net, 40000, 6)
	res, err := HillClimbCtx(context.Background(), pt, Config{P: 4, MaxIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Errorf("Iterations = %d, cap 2", res.Iterations)
	}
	if res.DAG.NumEdges() > 2 {
		t.Errorf("edges = %d after 2 moves", res.DAG.NumEdges())
	}
}

func TestHillClimbErrors(t *testing.T) {
	d := dataset.NewUniformCard(10, 1, 2)
	pt, _, err := core.Build(d, core.Options{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := HillClimbCtx(context.Background(), pt, Config{}); err == nil {
		t.Error("single-variable table accepted")
	}
	d2 := dataset.NewUniformCard(0, 3, 2)
	pt2, _, err := core.Build(d2, core.Options{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := HillClimbCtx(context.Background(), pt2, Config{}); err == nil {
		t.Error("empty table accepted")
	}
}

// countdownCtx cancels itself on the nth call to Done, so a test can stop
// a search after a chosen amount of progress; n <= 0 never cancels, which
// makes it a probe that only counts calls.
type countdownCtx struct {
	context.Context
	cancel context.CancelFunc
	n      int64
	calls  atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &countdownCtx{Context: ctx, cancel: cancel, n: n}
}

func (c *countdownCtx) Done() <-chan struct{} {
	if c.calls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Done()
}

// TestHillClimbCtxCancelMidSearch cancels a climb halfway through the
// context checks an uncancelled climb makes, and asserts the search stops
// with context.Canceled and no result instead of running to completion.
func TestHillClimbCtxCancelMidSearch(t *testing.T) {
	pt := tableFrom(t, bn.Chain(6, 2, 0.85), 20000, 3)
	cfg := Config{P: 2, Restarts: 2}
	probe := newCountdownCtx(0)
	if _, err := HillClimbCtx(probe, pt, cfg); err != nil {
		t.Fatal(err)
	}
	total := probe.calls.Load()
	if total < 2 {
		t.Fatalf("uncancelled climb checked its context %d times; nothing to cancel mid-search", total)
	}
	ctx := newCountdownCtx(total / 2)
	defer ctx.cancel()
	res, err := HillClimbCtx(ctx, pt, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled climb returned a result: %+v", res)
	}
	if got := ctx.calls.Load(); got >= total {
		t.Fatalf("cancelled climb made %d context checks, as many as a full climb (%d)", got, total)
	}
}

func TestHillClimbCacheWorks(t *testing.T) {
	net := bn.Chain(5, 2, 0.85)
	pt := tableFrom(t, net, 30000, 7)
	res, err := HillClimbCtx(context.Background(), pt, Config{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits == 0 {
		t.Error("family-score cache never hit; climbing re-evaluates everything")
	}
	if res.Evaluations == 0 {
		t.Error("no evaluations recorded")
	}
}

func TestHillClimbAgreesWithConstraintLearner(t *testing.T) {
	// The two paradigms should land on the same skeleton for a clean,
	// well-sampled model.
	net := bn.Chain(5, 3, 0.75)
	d, err := net.Sample(80000, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := core.Build(d, core.Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	hc, err := HillClimbCtx(context.Background(), pt, Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := structure.LearnFromTable(pt, structure.Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	hcEdges := hc.DAG.Skeleton().Edges()
	cbEdges := cb.Graph.Edges()
	if len(hcEdges) != len(cbEdges) {
		t.Fatalf("paradigms disagree: hill-climb %v vs constraint %v", hcEdges, cbEdges)
	}
	for i := range hcEdges {
		if hcEdges[i] != cbEdges[i] {
			t.Fatalf("paradigms disagree: hill-climb %v vs constraint %v", hcEdges, cbEdges)
		}
	}
}

func TestFamilyKeyCanonical(t *testing.T) {
	if familyKey(3, []int{5, 1}) != familyKey(3, []int{1, 5}) {
		t.Error("family key not order-invariant")
	}
	if familyKey(3, []int{1}) == familyKey(1, []int{3}) {
		t.Error("family key collides across variables")
	}
	// The mutation-free contract: familyKey must not reorder its input.
	parents := []int{5, 1}
	familyKey(0, parents)
	if parents[0] != 5 {
		t.Error("familyKey mutated its argument")
	}
}

func TestHillClimbRestartsFixChainArtifact(t *testing.T) {
	// The pure greedy climb on this chain leaves one covering edge (see
	// TestHillClimbRecoversChainSkeleton); restarts should find the exact
	// chain, whose BIC is strictly better.
	net := bn.Chain(6, 2, 0.85)
	pt := tableFrom(t, net, 60000, 1)
	base, err := HillClimbCtx(context.Background(), pt, Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := HillClimbCtx(context.Background(), pt, Config{P: 4, Restarts: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if restarted.Score < base.Score {
		t.Fatalf("restarts made the score worse: %v < %v", restarted.Score, base.Score)
	}
	if restarted.Restarts != 20 {
		t.Errorf("Restarts = %d", restarted.Restarts)
	}
	m := structure.CompareSkeleton(restarted.DAG.Skeleton(), net.DAG())
	if m.F1 < base1F(t, base, net) {
		t.Errorf("restarts reduced F1")
	}
}

func base1F(t *testing.T, r *Result, net *bn.Network) float64 {
	t.Helper()
	return structure.CompareSkeleton(r.DAG.Skeleton(), net.DAG()).F1
}

func TestHillClimbRestartsDeterministic(t *testing.T) {
	net := bn.Chain(5, 2, 0.8)
	pt := tableFrom(t, net, 20000, 2)
	a, err := HillClimbCtx(context.Background(), pt, Config{P: 2, Restarts: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := HillClimbCtx(context.Background(), pt, Config{P: 2, Restarts: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != b.Score || a.DAG.NumEdges() != b.DAG.NumEdges() {
		t.Error("restarted search not deterministic in seed")
	}
}

func TestPerturbKeepsDAGValid(t *testing.T) {
	src := rng.NewXoshiro256SS(4)
	for trial := 0; trial < 50; trial++ {
		dag := graph.NewDAG(8)
		for i := 0; i+1 < 8; i++ {
			dag.MustAddEdge(i, i+1)
		}
		perturb(dag, src, 3, 10)
		if len(dag.TopoOrder()) != 8 {
			t.Fatal("perturb broke acyclicity")
		}
		for v := 0; v < 8; v++ {
			if len(dag.Parents(v)) > 3 {
				t.Fatalf("perturb exceeded parent cap: %d", len(dag.Parents(v)))
			}
		}
	}
}

func TestSparseCandidatesRecoverChain(t *testing.T) {
	// With k=2 candidates the chain is still exactly recoverable (each
	// node's top-MI partners are its true neighbors) and the search space
	// shrinks measurably.
	net := bn.Chain(6, 2, 0.85)
	pt := tableFrom(t, net, 60000, 12)
	full, err := HillClimbCtx(context.Background(), pt, Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := HillClimbCtx(context.Background(), pt, Config{P: 4, CandidateParents: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := structure.CompareSkeleton(sparse.DAG.Skeleton(), net.DAG())
	if m.Recall < 1.0 {
		t.Fatalf("sparse-candidate recall %v: %v", m.Recall, sparse.DAG.Edges())
	}
	if sparse.Evaluations >= full.Evaluations {
		t.Errorf("pruning did not reduce evaluations: %d vs %d", sparse.Evaluations, full.Evaluations)
	}
}

func TestSparseCandidatesRespectRestriction(t *testing.T) {
	net := bn.NaiveBayes(8, 2, 0.85)
	pt := tableFrom(t, net, 50000, 13)
	res, err := HillClimbCtx(context.Background(), pt, Config{P: 4, CandidateParents: 1})
	if err != nil {
		t.Fatal(err)
	}
	cands, err := candidateParents(context.Background(), pt, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.DAG.Edges() {
		if !cands[e[1]][e[0]] {
			t.Errorf("edge %v violates the candidate restriction", e)
		}
	}
}
