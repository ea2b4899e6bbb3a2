package graph

import (
	"fmt"
	"sort"
)

// PDAG is a partially directed acyclic graph: the output of constraint-
// based structure learning after edge orientation. Each adjacent pair is
// connected either by an undirected edge or by a directed edge; the
// orientation machinery (v-structure detection plus Meek's rules) upgrades
// undirected edges to directed ones without ever creating a directed cycle
// or a new v-structure.
type PDAG struct {
	n        int
	directed bitMatrix // (u, v) set: edge u→v
	undir    bitMatrix // (u, v) and (v, u) set: edge u—v
}

// NewPDAG returns an edgeless PDAG on n vertices.
func NewPDAG(n int) *PDAG {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &PDAG{n: n, directed: newBitMatrix(n), undir: newBitMatrix(n)}
}

// FromSkeleton returns a PDAG whose every edge is the undirected version
// of the skeleton's.
func FromSkeleton(g *Undirected) *PDAG {
	p := NewPDAG(g.N())
	for _, e := range g.Edges() {
		p.undir.set(e[0], e[1], true)
		p.undir.set(e[1], e[0], true)
	}
	return p
}

// N returns the number of vertices.
func (p *PDAG) N() int { return p.n }

func (p *PDAG) check(v int) {
	if v < 0 || v >= p.n {
		panic(fmt.Sprintf("graph: vertex %d outside [0,%d)", v, p.n))
	}
}

// HasUndirected reports an undirected edge u—v.
func (p *PDAG) HasUndirected(u, v int) bool {
	p.check(u)
	p.check(v)
	return p.undir.get(u, v)
}

// HasDirected reports a directed edge u→v.
func (p *PDAG) HasDirected(u, v int) bool {
	p.check(u)
	p.check(v)
	return p.directed.get(u, v)
}

// Adjacent reports whether u and v are connected by any edge.
func (p *PDAG) Adjacent(u, v int) bool {
	return p.undir.get(u, v) || p.directed.get(u, v) || p.directed.get(v, u)
}

// AddUndirected inserts u—v (no-op if the pair is already adjacent).
func (p *PDAG) AddUndirected(u, v int) {
	p.check(u)
	p.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on %d", u))
	}
	if p.Adjacent(u, v) {
		return
	}
	p.undir.set(u, v, true)
	p.undir.set(v, u, true)
}

// Orient upgrades the undirected edge u—v to u→v. It reports false (and
// leaves the graph unchanged) when the edge is not undirected — already
// oriented either way, or absent.
func (p *PDAG) Orient(u, v int) bool {
	p.check(u)
	p.check(v)
	if !p.undir.get(u, v) {
		return false
	}
	p.undir.set(u, v, false)
	p.undir.set(v, u, false)
	p.directed.set(u, v, true)
	return true
}

// UndirectedNeighbors returns all w with u—w, sorted.
func (p *PDAG) UndirectedNeighbors(u int) []int {
	p.check(u)
	var out []int
	for v := 0; v < p.n; v++ {
		if p.undir.get(u, v) {
			out = append(out, v)
		}
	}
	return out
}

// DirectedParents returns all w with w→u, sorted.
func (p *PDAG) DirectedParents(u int) []int {
	p.check(u)
	var out []int
	for v := 0; v < p.n; v++ {
		if p.directed.get(v, u) {
			out = append(out, v)
		}
	}
	return out
}

// DirectedChildren returns all w with u→w, sorted.
func (p *PDAG) DirectedChildren(u int) []int {
	p.check(u)
	var out []int
	for v := 0; v < p.n; v++ {
		if p.directed.get(u, v) {
			out = append(out, v)
		}
	}
	return out
}

// DirectedEdges returns all directed edges, sorted.
func (p *PDAG) DirectedEdges() [][2]int {
	var out [][2]int
	for u := 0; u < p.n; u++ {
		for v := 0; v < p.n; v++ {
			if p.directed.get(u, v) {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// UndirectedEdges returns all undirected edges as (u, v) with u < v, sorted.
func (p *PDAG) UndirectedEdges() [][2]int {
	var out [][2]int
	for u := 0; u < p.n; u++ {
		for v := u + 1; v < p.n; v++ {
			if p.undir.get(u, v) {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// NumEdges returns the total number of edges of either kind.
func (p *PDAG) NumEdges() int {
	return len(p.DirectedEdges()) + len(p.UndirectedEdges())
}

// HasDirectedPath reports whether v is reachable from u following only
// directed edges.
func (p *PDAG) HasDirectedPath(u, v int) bool {
	p.check(u)
	p.check(v)
	if u == v {
		return true
	}
	visited := make([]bool, p.n)
	stack := []int{u}
	visited[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for y := 0; y < p.n; y++ {
			if !p.directed.get(x, y) || visited[y] {
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

// ToDAG extends the PDAG to a full DAG by orienting the remaining
// undirected edges in a consistent order (each undirected edge u—v becomes
// u→v if that creates no directed cycle, else v→u). It returns an error if
// no acyclic completion is found by this greedy pass.
func (p *PDAG) ToDAG() (*DAG, error) {
	g := NewDAG(p.n)
	for _, e := range p.DirectedEdges() {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("graph: PDAG's directed part is cyclic: %w", err)
		}
	}
	undirected := p.UndirectedEdges()
	// Orient low→high first, falling back to high→low, deterministically.
	sort.Slice(undirected, func(a, b int) bool {
		if undirected[a][0] != undirected[b][0] {
			return undirected[a][0] < undirected[b][0]
		}
		return undirected[a][1] < undirected[b][1]
	})
	for _, e := range undirected {
		if err := g.AddEdge(e[0], e[1]); err == nil {
			continue
		}
		if err := g.AddEdge(e[1], e[0]); err != nil {
			return nil, fmt.Errorf("graph: cannot orient %d—%d acyclically: %w", e[0], e[1], err)
		}
	}
	return g, nil
}

// Clone returns a deep copy.
func (p *PDAG) Clone() *PDAG {
	return &PDAG{n: p.n, directed: p.directed.clone(), undir: p.undir.clone()}
}
