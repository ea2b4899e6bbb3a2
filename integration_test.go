package waitfreebn

// Integration tests: full cross-package pipelines a downstream user would
// run, exercising the public surfaces together rather than in isolation.

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"waitfreebn/internal/bn"
	"waitfreebn/internal/core"
	"waitfreebn/internal/dataset"
	"waitfreebn/internal/graph"
	"waitfreebn/internal/infer"
	"waitfreebn/internal/structure"
)

// TestPipelineCSVToPosterior drives the longest path through the system:
// sample → CSV on disk → streaming read → incremental wait-free build →
// serialize → deserialize → learn structure → orient → fit → query.
func TestPipelineCSVToPosterior(t *testing.T) {
	truth := bn.Cancer()
	const m = 150000
	data, err := truth.Sample(m, 404, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Write to a real file and stream it back in blocks through the
	// incremental builder.
	dir := t.TempDir()
	path := filepath.Join(dir, "cancer.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	codec, err := data.Codec()
	if err != nil {
		t.Fatal(err)
	}
	builder := core.NewBuilder(codec, 4096, core.Options{P: 4})
	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if err := dataset.StreamCSV(in, data.Cardinalities(), 4096, builder.AddBlock); err != nil {
		t.Fatal(err)
	}
	pt, st := builder.Finalize()
	if st.LocalKeys+st.ForeignKeys != m {
		t.Fatalf("streamed build counted %d keys, want %d", st.LocalKeys+st.ForeignKeys, m)
	}

	// Serialize → deserialize; the table must survive intact.
	var blob bytes.Buffer
	if _, err := pt.WriteTo(&blob); err != nil {
		t.Fatal(err)
	}
	pt2, err := core.ReadTable(&blob, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !pt2.Equal(pt) {
		t.Fatal("table changed across serialization")
	}

	// Learn structure from the deserialized table.
	res, err := structure.LearnFromTable(pt2, structure.Config{P: 4, Epsilon: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	// The three strong cancer edges must be present.
	for _, e := range [][2]int{{1, 2}, {2, 3}, {2, 4}} {
		if !res.Graph.HasEdge(e[0], e[1]) {
			t.Fatalf("skeleton missing edge %v: %v", e, res.Graph.Edges())
		}
	}

	// Orient → DAG → fit → posterior query, compared with the truth.
	dag, err := res.PDAG.ToDAG()
	if err != nil {
		t.Fatal(err)
	}
	model, err := bn.FitCPTs("fit", dag, data, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := infer.QueryMarginal(model, 2, map[int]uint8{3: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := infer.QueryMarginal(truth, 2, map[int]uint8{3: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[1]-want[1]) > 0.03 {
		t.Errorf("P(cancer|xray+): learned %v vs true %v", got[1], want[1])
	}
}

// TestMarginalsAgreeWithExactInference cross-validates the two independent
// probability paths in the repository: empirical marginals from the
// wait-free potential table vs. exact variable elimination on the
// generating network.
func TestMarginalsAgreeWithExactInference(t *testing.T) {
	net := bn.Asia()
	const m = 400000
	data, err := net.Sample(m, 505, 4)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := core.Build(data, core.Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < net.NumVars(); v++ {
		emp, err := pt.MarginalizeCtx(context.Background(), []int{v}, 4)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := infer.QueryMarginal(net, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < net.Cardinality(v); s++ {
			if diff := math.Abs(emp.Prob(uint8(s)) - exact[s]); diff > 0.005 {
				t.Errorf("var %d state %d: empirical %.4f vs exact %.4f", v, s, emp.Prob(uint8(s)), exact[s])
			}
		}
	}
}

// TestRebalancedTableLearnsSameStructure checks that partition layout is
// truly irrelevant to every consumer: rebalancing between build and learn
// must not change the result.
func TestRebalancedTableLearnsSameStructure(t *testing.T) {
	net := bn.Chain(6, 2, 0.85)
	data, err := net.Sample(50000, 606, 4)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := core.Build(data, core.Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	before, err := structure.LearnFromTable(pt, structure.Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	pt.Rebalance(3)
	after, err := structure.LearnFromTable(pt, structure.Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	be, ae := before.Graph.Edges(), after.Graph.Edges()
	if len(be) != len(ae) {
		t.Fatalf("edge sets differ: %v vs %v", be, ae)
	}
	for i := range be {
		if be[i] != ae[i] {
			t.Fatalf("edge sets differ: %v vs %v", be, ae)
		}
	}
}

// TestHeldOutLikelihoodImprovesWithStructure is the end-to-end quality
// gate: on held-out data, the learned-structure model must beat the
// independence model and approach the true model.
func TestHeldOutLikelihoodImprovesWithStructure(t *testing.T) {
	truth := bn.NaiveBayes(6, 2, 0.85)
	train, err := truth.Sample(100000, 707, 4)
	if err != nil {
		t.Fatal(err)
	}
	test, err := truth.Sample(20000, 708, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := structure.Learn(train, structure.Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	dag, err := res.PDAG.ToDAG()
	if err != nil {
		t.Fatal(err)
	}
	learned, err := bn.FitCPTs("learned", dag, train, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	indep, err := bn.FitCPTs("indep", graph.NewDAG(6), train, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	llLearned := learned.MeanLogLikelihood(test, 4)
	llIndep := indep.MeanLogLikelihood(test, 4)
	llTrue := truth.MeanLogLikelihood(test, 4)
	if llLearned <= llIndep {
		t.Errorf("learned LL %.4f does not beat independence LL %.4f", llLearned, llIndep)
	}
	if llTrue-llLearned > 0.02 {
		t.Errorf("learned LL %.4f far from true LL %.4f", llLearned, llTrue)
	}
}
