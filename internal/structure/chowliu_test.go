package structure

import (
	"context"
	"testing"

	"waitfreebn/internal/bn"
	"waitfreebn/internal/core"
	"waitfreebn/internal/dataset"
)

func clTable(t *testing.T, net *bn.Network, m int, seed uint64) *core.PotentialTable {
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

func TestChowLiuRecoversChain(t *testing.T) {
	// A chain IS a tree: Chow-Liu must recover it exactly.
	net := bn.Chain(7, 2, 0.85)
	pt := clTable(t, net, 60000, 51)
	tree, mi, err := ChowLiuCtx(context.Background(), pt, 0.001, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mi == nil {
		t.Fatal("MI matrix not returned")
	}
	m := CompareSkeleton(tree, net.DAG())
	if m.F1 < 1.0 {
		t.Fatalf("chain recovery: %+v, edges %v", m, tree.Edges())
	}
}

func TestChowLiuRecoversStar(t *testing.T) {
	net := bn.NaiveBayes(8, 2, 0.85)
	pt := clTable(t, net, 60000, 52)
	tree, _, err := ChowLiuCtx(context.Background(), pt, 0.001, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := CompareSkeleton(tree, net.DAG())
	if m.F1 < 1.0 {
		t.Fatalf("star recovery: %+v, edges %v", m, tree.Edges())
	}
}

func TestChowLiuIsSpanningTree(t *testing.T) {
	// Even on a non-tree model the output must be acyclic with ≤ n-1
	// edges and connected where MI supports it.
	net := bn.Asia()
	pt := clTable(t, net, 100000, 53)
	tree, _, err := ChowLiuCtx(context.Background(), pt, 0.0001, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumEdges() > 7 {
		t.Fatalf("tree has %d edges for 8 vertices", tree.NumEdges())
	}
	// Acyclic: every edge's removal must disconnect its endpoints.
	for _, e := range tree.Edges() {
		if tree.AdjacencyPath(e[0], e[1]) {
			t.Fatalf("edge %v lies on a cycle", e)
		}
	}
}

func TestChowLiuIndependentDataYieldsForest(t *testing.T) {
	d := dataset.NewUniformCard(50000, 6, 2)
	d.UniformIndependent(54, 4)
	pt, _, err := core.Build(d, core.Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	tree, _, err := ChowLiuCtx(context.Background(), pt, 0.001, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumEdges() != 0 {
		t.Errorf("independent data produced %d tree edges: %v", tree.NumEdges(), tree.Edges())
	}
}

func TestChowLiuDAGOrientation(t *testing.T) {
	net := bn.Chain(6, 2, 0.85)
	pt := clTable(t, net, 50000, 55)
	dag, err := ChowLiuDAG(pt, 0.001, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Rooted at 0 on a recovered chain: all edges point away from 0.
	for _, e := range dag.Edges() {
		if e[0] > e[1] {
			t.Errorf("edge %v points toward the root", e)
		}
	}
	if len(dag.TopoOrder()) != 6 {
		t.Error("not a DAG")
	}
	// Every vertex except the root has exactly one parent in a tree DAG.
	for v := 1; v < 6; v++ {
		if got := len(dag.Parents(v)); got != 1 {
			t.Errorf("vertex %d has %d parents", v, got)
		}
	}
	if _, err := ChowLiuDAG(pt, 0.001, 99, 4); err == nil {
		t.Error("out-of-range root accepted")
	}
}

func TestChowLiuTreeLikelihoodOptimality(t *testing.T) {
	// Chow-Liu maximizes likelihood among trees: its fitted LL must be at
	// least that of any other spanning tree; compare against a deliberately
	// wrong chain ordering.
	net := bn.NaiveBayes(6, 2, 0.8)
	d, err := net.Sample(60000, 56, 4)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := core.Build(d, core.Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	clDAG, err := ChowLiuDAG(pt, 0.0001, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	clFit, err := bn.FitCPTs("cl", clDAG, d, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong tree: a path 0-1-2-3-4-5 (the true model is a star at 0).
	wrong := bn.Chain(6, 2, 0.5).DAG()
	wrongFit, err := bn.FitCPTs("wrong", wrong, d, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if clFit.LogLikelihood(d, 4) < wrongFit.LogLikelihood(d, 4) {
		t.Error("Chow-Liu tree beaten by an arbitrary path tree")
	}
}
