package structure

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"waitfreebn/internal/bn"
	"waitfreebn/internal/core"
	"waitfreebn/internal/dataset"
	"waitfreebn/internal/graph"
	"waitfreebn/internal/stats"
)

// TestSumOutMatchesDirectScan: summing one axis out of a marginal must give
// exactly the marginal a table scan over the reduced varset gives — same
// variables, same layout, same counts — for every axis of random varsets
// over mixed cardinalities. The CI search's one-scan-per-candidate-set
// shortcut rests on this identity.
func TestSumOutMatchesDirectScan(t *testing.T) {
	cards := []int{2, 3, 4, 2, 3, 4, 2, 3}
	d := dataset.New(4000, cards)
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < d.NumSamples(); i++ {
		for v, r := range cards {
			d.Set(i, v, uint8(rng.Intn(r)))
		}
	}
	pt, _, err := core.Build(d, core.Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		vars := rng.Perm(len(cards))[:2+rng.Intn(4)]
		joint, err := pt.MarginalizeCtx(ctx, vars, 2)
		if err != nil {
			t.Fatal(err)
		}
		for axis := range vars {
			got := joint.SumOut(axis)
			reduced := append(append([]int(nil), vars[:axis]...), vars[axis+1:]...)
			want, err := pt.MarginalizeCtx(ctx, reduced, 2)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got.Vars, got.Card, got.M) != fmt.Sprint(want.Vars, want.Card, want.M) {
				t.Fatalf("%v SumOut(%d): vars/card/m %v %v %d, want %v %v %d",
					vars, axis, got.Vars, got.Card, got.M, want.Vars, want.Card, want.M)
			}
			if len(got.Counts) != len(want.Counts) {
				t.Fatalf("%v SumOut(%d): %d cells, want %d", vars, axis, len(got.Counts), len(want.Counts))
			}
			for c := range want.Counts {
				if got.Counts[c] != want.Counts[c] {
					t.Fatalf("%v SumOut(%d) cell %d: %d, want %d", vars, axis, c, got.Counts[c], want.Counts[c])
				}
			}
		}
	}
}

// scanRef is the slow reference CI search: the greedy shrink of Cheng et
// al. with a fresh table scan for every varset it tests, no cache and no
// derived marginals. The learner must reproduce its decisions exactly, and
// its test count: a greedy round counts all |c| reductions, as the
// learner's batched rounds always have, even when an early one separates.
type scanRef struct {
	pt  *core.PotentialTable
	res *Result
	e   *ciEval // for truncate and the decision rule only
}

func (r *scanRef) cmi(x, y int, z []int) float64 {
	vars := append(append([]int(nil), z...), x, y)
	mg, err := r.pt.MarginalizeCtx(context.Background(), vars, 1)
	if err != nil {
		panic(err)
	}
	rz := 1
	for _, v := range z {
		rz *= r.pt.Codec().Cardinality(v)
	}
	return stats.CondMutualInfoCounts(mg.Counts, rz, r.pt.Codec().Cardinality(x), r.pt.Codec().Cardinality(y))
}

func (r *scanRef) dependent(v float64, x, y int, z []int) bool {
	rz := 1
	for _, zv := range z {
		rz *= r.pt.Codec().Cardinality(zv)
	}
	return r.e.dependent(v, x, y, rz)
}

func (r *scanRef) separates(cand []int, x, y int) ([]int, bool) {
	if len(cand) == 0 {
		return nil, false
	}
	c := append([]int(nil), cand...)
	if len(c) > r.e.cfg.MaxCondSet {
		c = r.e.truncate(c, x, y)
	}
	r.res.CITests++
	v := r.cmi(x, y, c)
	if !r.dependent(v, x, y, c) {
		return c, true
	}
	for len(c) > 1 {
		r.res.CITests += len(c)
		bestIdx, bestV := -1, v
		for k := range c {
			reduced := append(append([]int(nil), c[:k]...), c[k+1:]...)
			vk := r.cmi(x, y, reduced)
			if !r.dependent(vk, x, y, reduced) {
				return reduced, true
			}
			if vk <= bestV {
				bestIdx, bestV = k, vk
			}
		}
		if bestIdx < 0 {
			return nil, false
		}
		c = append(c[:bestIdx], c[bestIdx+1:]...)
		v = bestV
	}
	return nil, false
}

func (r *scanRef) tryToSeparate(g *graph.Undirected, x, y int) bool {
	n1, n2 := g.NeighborsOnPaths(x, y), g.NeighborsOnPaths(y, x)
	first, second := n1, n2
	if len(n2) < len(n1) {
		first, second = n2, n1
	}
	set, ok := r.separates(first, x, y)
	if !ok && !sameVars(first, second) {
		set, ok = r.separates(second, x, y)
	}
	if ok {
		r.res.Sepsets.Put(x, y, set)
	}
	return ok
}

// scanReferenceLearn runs the three phases with the scan-per-varset CI
// search. Drafting is the learner's own (it is not under test here).
func scanReferenceLearn(t *testing.T, pt *core.PotentialTable, cfg Config) *Result {
	t.Helper()
	cfg = cfg.withDefaults()
	n := pt.Codec().NumVars()
	res := &Result{Sepsets: NewSepsets(n), MI: pt.AllPairsMI(1, core.MIPartitionParallel)}
	l := &learner{ctx: context.Background(), pt: pt, cfg: cfg, res: res}
	ref := &scanRef{pt: pt, res: res, e: l.newEval(l.ctx, nil)}
	g, deferred := l.draft(res.MI)
	for _, p := range deferred {
		if !ref.tryToSeparate(g, p.i, p.j) {
			g.AddEdge(p.i, p.j)
			res.ThickenEdges++
		}
	}
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		if !g.HasEdge(u, v) || !g.AdjacencyPath(u, v) {
			continue
		}
		g.RemoveEdge(u, v)
		if ref.tryToSeparate(g, u, v) {
			res.ThinnedEdges++
		} else {
			g.AddEdge(u, v)
		}
	}
	res.CondSetTruncations = ref.e.truncated
	res.Graph = g
	res.PDAG = OrientEdges(g, res.Sepsets)
	return res
}

// TestCISearchMatchesScanReference is the differential test of the one-scan
// CI search: on random DAG samples with MaxCondSet truncation triggered, the
// serial learner and the wavefront, each with the marginal cache on and off,
// must reproduce the scan-per-varset reference's sepsets, PDAG, CI-test
// count and truncation count exactly.
func TestCISearchMatchesScanReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *bn.Network
		base Config
	}{
		{"binary mi-threshold", bn.RandomDAG(12, 2, 0.5, 4, 0.7, 41), Config{Epsilon: 0.003, MaxCondSet: 3}},
		{"ternary g-test", bn.RandomDAG(10, 3, 0.5, 3, 0.8, 43), Config{Test: TestG, Alpha: 0.01, MaxCondSet: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := tc.net.Sample(20000, 44, 2)
			if err != nil {
				t.Fatal(err)
			}
			pt, _, err := core.Build(d, core.Options{P: 2})
			if err != nil {
				t.Fatal(err)
			}
			want := scanReferenceLearn(t, pt, tc.base)
			if want.CondSetTruncations == 0 {
				t.Fatalf("no candidate set exceeded MaxCondSet=%d; the draw does not exercise truncation", tc.base.MaxCondSet)
			}
			if want.CITests == 0 {
				t.Fatal("reference ran no CI tests")
			}
			for _, phasePar := range []bool{false, true} {
				for _, cells := range []int{0, -1} {
					cfg := tc.base
					cfg.P, cfg.PhasePar, cfg.WaveSize, cfg.MargCacheCells = 2, phasePar, 5, cells
					got, err := LearnFromTable(pt, cfg)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("phase-par=%v marg-cache=%d", phasePar, cells)
					requireSameResult(t, label, want, got)
					if g, w := fmt.Sprint(got.PDAG.DirectedEdges(), got.PDAG.UndirectedEdges()),
						fmt.Sprint(want.PDAG.DirectedEdges(), want.PDAG.UndirectedEdges()); g != w {
						t.Fatalf("%s: PDAG %s, want %s", label, g, w)
					}
				}
			}
		})
	}
}

// TestSeparatesMatchesScanReference drives single searches directly, over
// random pairs and candidate sets with thresholds spread across the observed
// CMI range, so that separations found deep in the greedy shrink (where each
// round's joint is itself a derived marginal) are exercised, not only the
// first round. Every outcome — set, decision, test and truncation counts —
// must match the scan-per-varset reference.
func TestSeparatesMatchesScanReference(t *testing.T) {
	net := bn.RandomDAG(10, 2, 0.5, 4, 0.7, 45)
	d, err := net.Sample(20000, 46, 2)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := core.Build(d, core.Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	mi := pt.AllPairsMI(1, core.MIFused)
	rng := rand.New(rand.NewSource(47))
	deep := 0
	for trial := 0; trial < 400; trial++ {
		perm := rng.Perm(10)
		x, y, cand := perm[0], perm[1], perm[2:3+rng.Intn(6)]
		cfg := Config{Epsilon: 0.0005 * float64(int(1)<<rng.Intn(7)), MaxCondSet: 4}.withDefaults()
		e := &ciEval{ctx: context.Background(), pt: pt, cfg: cfg, mi: mi, src: &countingSource{pt: pt}}
		set, sep, err := e.separates(cand, x, y)
		if err != nil {
			t.Fatal(err)
		}
		res := &Result{Sepsets: NewSepsets(10)}
		ref := &scanRef{pt: pt, res: res, e: &ciEval{pt: pt, cfg: cfg, mi: mi}}
		wantSet, wantSep := ref.separates(cand, x, y)
		if sep != wantSep || !sameVars(set, wantSet) || e.tests != res.CITests || e.truncated != ref.e.truncated {
			t.Fatalf("x=%d y=%d cand=%v eps=%v: got %v/%v tests=%d trunc=%d, want %v/%v tests=%d trunc=%d",
				x, y, cand, cfg.Epsilon, set, sep, e.tests, e.truncated, wantSet, wantSep, res.CITests, ref.e.truncated)
		}
		if sep && len(set) < min(len(cand), cfg.MaxCondSet)-1 {
			deep++
		}
	}
	if deep == 0 {
		t.Fatal("no search separated after the first greedy round; the draw does not exercise derived joints")
	}
}

// countingSource is a margSource that scans directly and records every
// request it serves.
type countingSource struct {
	pt       *core.PotentialTable
	requests [][][]int
}

func (s *countingSource) marginals(varsets [][]int) ([]*core.Marginal, error) {
	s.requests = append(s.requests, varsets)
	return s.pt.MarginalizeManyCtx(context.Background(), varsets, 1)
}

// TestSeparatesScansOncePerCandidateSet pins the work bound: however many
// greedy rounds run, a search requests one marginal per candidate set, over
// (c..., x, y).
func TestSeparatesScansOncePerCandidateSet(t *testing.T) {
	d := dataset.NewUniformCard(5000, 6, 2)
	d.UniformIndependent(81, 2)
	pt, _, err := core.Build(d, core.Options{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A negative Epsilon makes every test dependent, so the greedy shrink runs every
	// round down to a single conditioning variable.
	src := &countingSource{pt: pt}
	e := &ciEval{ctx: context.Background(), pt: pt, cfg: Config{MaxCondSet: 6}.withDefaults(), src: src}
	e.cfg.Epsilon = -1
	if _, sep, err := e.tryToSeparate([]int{0, 1, 2, 3}, []int{0, 1, 2, 3}, 4, 5); err != nil || sep {
		t.Fatalf("sep=%v err=%v, want dependent", sep, err)
	}
	if want := 1 + 4 + 3 + 2; e.tests != want {
		t.Errorf("tests = %d, want %d", e.tests, want)
	}
	if len(src.requests) != 1 || fmt.Sprint(src.requests[0]) != "[[0 1 2 3 4 5]]" {
		t.Errorf("requests = %v, want one over [0 1 2 3 4 5]", src.requests)
	}
}
