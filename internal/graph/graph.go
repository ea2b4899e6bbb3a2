// Package graph provides the graph machinery used by the structure
// learner: undirected graphs for the draft/thicken/thin phases, directed
// acyclic graphs for ground-truth Bayesian networks, and the reachability
// and d-separation queries the conditional-independence machinery needs.
//
// Vertices are dense integers [0, n), matching variable indexes everywhere
// else in the repository. An undirected graph stores adjacency both as a
// bit matrix (O(1) edge tests) and as sorted neighbor lists (fast
// iteration).
package graph

import (
	"fmt"
	"sort"
)

// Undirected is a simple undirected graph on n vertices.
//
// All query methods (HasEdge, Neighbors, HasPath, AdjacencyPath,
// NeighborsOnPaths, Epoch, ...) are read-only and safe for concurrent use
// as long as no goroutine mutates the graph; AddEdge and RemoveEdge require
// exclusive access.
type Undirected struct {
	n     int
	adj   bitMatrix
	nbr   [][]int // lazily maintained sorted adjacency lists
	epoch uint64  // bumped on every structural change
}

// NewUndirected returns an empty undirected graph on n vertices.
func NewUndirected(n int) *Undirected {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Undirected{n: n, adj: newBitMatrix(n), nbr: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Undirected) N() int { return g.n }

func (g *Undirected) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d outside [0,%d)", v, g.n))
	}
}

// AddEdge inserts the undirected edge {u, v}. Self-loops are rejected.
func (g *Undirected) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on %d", u))
	}
	if g.adj.get(u, v) {
		return
	}
	g.adj.set(u, v, true)
	g.adj.set(v, u, true)
	g.nbr[u] = insertSorted(g.nbr[u], v)
	g.nbr[v] = insertSorted(g.nbr[v], u)
	g.epoch++
}

// Epoch returns a counter that advances on every structural change
// (successful AddEdge or RemoveEdge). Two Epoch reads that agree bracket a
// mutation-free window, which lets speculative consumers (the wavefront
// scheduler in internal/structure) skip re-validating work computed against
// an earlier state of the graph. No-op calls (adding an existing edge,
// removing a missing one) do not advance the epoch.
func (g *Undirected) Epoch() uint64 { return g.epoch }

// RemoveEdge deletes the undirected edge {u, v} if present.
func (g *Undirected) RemoveEdge(u, v int) {
	g.check(u)
	g.check(v)
	if !g.adj.get(u, v) {
		return
	}
	g.adj.set(u, v, false)
	g.adj.set(v, u, false)
	g.nbr[u] = removeSorted(g.nbr[u], v)
	g.nbr[v] = removeSorted(g.nbr[v], u)
	g.epoch++
}

// HasEdge reports whether {u, v} is an edge.
func (g *Undirected) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	return g.adj.get(u, v)
}

// Neighbors returns the sorted neighbors of v. The returned slice aliases
// internal state and must not be modified.
func (g *Undirected) Neighbors(v int) []int {
	g.check(v)
	return g.nbr[v]
}

// Degree returns the number of neighbors of v.
func (g *Undirected) Degree(v int) int {
	g.check(v)
	return len(g.nbr[v])
}

// NumEdges returns the number of edges.
func (g *Undirected) NumEdges() int {
	total := 0
	for _, ns := range g.nbr {
		total += len(ns)
	}
	return total / 2
}

// Edges returns all edges as (u, v) pairs with u < v, sorted.
func (g *Undirected) Edges() [][2]int {
	var edges [][2]int
	for u := 0; u < g.n; u++ {
		for _, v := range g.nbr[u] {
			if u < v {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return edges
}

// Clone returns a deep copy.
func (g *Undirected) Clone() *Undirected {
	c := &Undirected{n: g.n, adj: g.adj.clone(), nbr: make([][]int, g.n)}
	for u := range c.nbr {
		c.nbr[u] = append([]int(nil), g.nbr[u]...)
	}
	return c
}

// HasPath reports whether u and v are connected by any path, optionally
// excluding a set of blocked vertices (used by Cheng's algorithm to test
// connectivity "apart from the direct edge" and around cut sets). u and v
// themselves are never treated as blocked.
func (g *Undirected) HasPath(u, v int, blocked map[int]bool) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return true
	}
	visited := make([]bool, g.n)
	visited[u] = true
	stack := []int{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range g.nbr[x] {
			if visited[y] || (blocked != nil && blocked[y] && y != v) {
				continue
			}
			if y == v {
				return true
			}
			visited[y] = true
			stack = append(stack, y)
		}
	}
	return false
}

// AdjacencyPath reports whether u and v are connected when the direct edge
// {u, v} is ignored — the "is there another route" test used while
// drafting and thinning. The search never mutates the graph (it skips the
// u—v step instead of temporarily removing it), so it is safe for
// concurrent readers and leaves Epoch untouched.
func (g *Undirected) AdjacencyPath(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return true
	}
	visited := make([]bool, g.n)
	visited[u] = true
	stack := []int{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range g.nbr[x] {
			if visited[y] || (x == u && y == v) {
				continue
			}
			if y == v {
				return true
			}
			visited[y] = true
			stack = append(stack, y)
		}
	}
	return false
}

// NeighborsOnPaths returns the neighbors of u that lie on at least one
// path from u to v (excluding the direct edge {u,v} itself): exactly the
// candidate cut-set Cheng et al. condition on in try_to_separate. A
// neighbor w qualifies if w == v is false and w can reach v without going
// back through u.
func (g *Undirected) NeighborsOnPaths(u, v int) []int {
	g.check(u)
	g.check(v)
	var out []int
	blocked := map[int]bool{u: true}
	for _, w := range g.nbr[u] {
		if w == v {
			continue
		}
		if g.HasPath(w, v, blocked) {
			out = append(out, w)
		}
	}
	return out
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}
