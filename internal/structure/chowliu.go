package structure

import (
	"context"
	"fmt"
	"sort"

	"waitfreebn/internal/core"
	"waitfreebn/internal/graph"
)

// ChowLiuCtx learns the maximum-likelihood tree-structured network (Chow &
// Liu, IEEE Trans. Inf. Theory 1968 — reference [6] of the paper): the
// maximum-weight spanning tree of the complete graph weighted by pairwise
// mutual information. It consumes the same all-pairs MI sweep the drafting
// phase runs, so it is a third consumer of the parallel primitives and the
// natural "cheapest structured baseline" for both full learners.
//
// Edges with MI below minMI are not considered, so disconnected data
// yields a forest rather than a tree of noise edges. p <= 0 selects
// GOMAXPROCS. The all-pairs MI sweep observes ctx, and cancellation
// surfaces as context.Canceled (or DeadlineExceeded) in bounded time.
func ChowLiuCtx(ctx context.Context, pt *core.PotentialTable, minMI float64, p int) (*graph.Undirected, *core.MIMatrix, error) {
	n := pt.Codec().NumVars()
	if n < 1 {
		return nil, nil, fmt.Errorf("structure: empty table")
	}
	mi, err := pt.AllPairsMICtx(ctx, p, core.MIFused)
	if err != nil {
		return nil, nil, err
	}

	type edge struct {
		i, j int
		w    float64
	}
	var edges []edge
	mi.ForEachPair(func(i, j int, v float64) {
		if v >= minMI {
			edges = append(edges, edge{i, j, v})
		}
	})
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].w != edges[b].w {
			return edges[a].w > edges[b].w
		}
		if edges[a].i != edges[b].i {
			return edges[a].i < edges[b].i
		}
		return edges[a].j < edges[b].j
	})

	// Kruskal with union-find.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	tree := graph.NewUndirected(n)
	for _, e := range edges {
		ri, rj := find(e.i), find(e.j)
		if ri == rj {
			continue
		}
		parent[ri] = rj
		tree.AddEdge(e.i, e.j)
		if tree.NumEdges() == n-1 {
			break
		}
	}
	return tree, mi, nil
}

// ChowLiuDAG returns the Chow-Liu tree rooted at root (edges directed away
// from the root per connected component; isolated components are rooted at
// their lowest-numbered vertex).
func ChowLiuDAG(pt *core.PotentialTable, minMI float64, root, p int) (*graph.DAG, error) {
	n := pt.Codec().NumVars()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("structure: root %d outside [0,%d)", root, n)
	}
	tree, _, err := ChowLiuCtx(context.Background(), pt, minMI, p)
	if err != nil {
		return nil, err
	}
	dag := graph.NewDAG(n)
	visited := make([]bool, n)
	var orient func(v int)
	orient = func(v int) {
		visited[v] = true
		for _, u := range tree.Neighbors(v) {
			if !visited[u] {
				dag.MustAddEdge(v, u)
				orient(u)
			}
		}
	}
	orient(root)
	for v := 0; v < n; v++ {
		if !visited[v] {
			orient(v)
		}
	}
	return dag, nil
}
