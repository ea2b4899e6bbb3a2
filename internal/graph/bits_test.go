package graph

import "testing"

// TestBitMatrixAgainstBoolMatrix drives a bitMatrix and a plain [][]bool
// through the same sets and clears on sizes whose rows span one, two and
// three words, and checks every cell, and a clone's independence.
func TestBitMatrixAgainstBoolMatrix(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		m := newBitMatrix(n)
		ref := make([][]bool, n)
		for u := range ref {
			ref[u] = make([]bool, n)
		}
		for step := 0; step < 4*n; step++ {
			u, v := (step*37)%n, (step*101+step/3)%n
			b := step%3 != 0
			m.set(u, v, b)
			ref[u][v] = b
		}
		c := m.clone()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if m.get(u, v) != ref[u][v] || c.get(u, v) != ref[u][v] {
					t.Fatalf("n=%d cell (%d,%d): got %v, clone %v, want %v", n, u, v, m.get(u, v), c.get(u, v), ref[u][v])
				}
			}
		}
		c.set(n-1, n-1, !ref[n-1][n-1])
		if m.get(n-1, n-1) != ref[n-1][n-1] {
			t.Fatalf("n=%d: writing the clone changed the original", n)
		}
	}
}

// TestGraphsAcrossWordBoundaries exercises Undirected and PDAG on more than
// 64 vertices, where adjacency rows take several words.
func TestGraphsAcrossWordBoundaries(t *testing.T) {
	g := NewUndirected(130)
	edges := [][2]int{{0, 129}, {63, 64}, {64, 127}, {1, 65}}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	for _, e := range edges {
		if !g.HasEdge(e[0], e[1]) || !g.HasEdge(e[1], e[0]) {
			t.Fatalf("edge %v missing", e)
		}
	}
	if g.HasEdge(0, 128) || g.HasEdge(63, 63) || g.NumEdges() != len(edges) {
		t.Fatalf("unexpected adjacency: edges=%d", g.NumEdges())
	}
	g.RemoveEdge(64, 127)
	if g.HasEdge(127, 64) {
		t.Fatal("removed edge still present")
	}

	p := FromSkeleton(g)
	if !p.Orient(129, 0) || !p.HasDirected(129, 0) || p.HasUndirected(0, 129) {
		t.Fatal("orient across a word boundary failed")
	}
	if got := p.DirectedParents(0); len(got) != 1 || got[0] != 129 {
		t.Fatalf("parents of 0 = %v, want [129]", got)
	}
	if got := p.UndirectedNeighbors(64); len(got) != 1 || got[0] != 63 {
		t.Fatalf("undirected neighbors of 64 = %v, want [63]", got)
	}
}
