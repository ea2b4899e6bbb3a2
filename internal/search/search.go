// Package search implements score-based Bayesian-network structure
// learning by greedy hill climbing — the *other* main paradigm the paper
// surveys in Section III (likelihood/posterior/Bayesian-metric scores,
// Friedman's sparse-candidate pruning), built as a baseline against the
// constraint-based learner in internal/structure.
//
// The climber maximizes the decomposable BIC score. All sufficient
// statistics (family contingency tables) come from the wait-free
// potential table via the marginalization primitive, so this package is
// also a second, structurally different consumer of the paper's
// primitives: scores touch marginals over {v} ∪ parents(v) instead of
// variable pairs.
package search

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"waitfreebn/internal/core"
	"waitfreebn/internal/graph"
	"waitfreebn/internal/rng"
)

// Config parameterizes the hill climber. The zero value applies defaults.
type Config struct {
	// P is the number of workers for marginalization. 0 = GOMAXPROCS.
	P int
	// MaxParents caps each node's in-degree (Friedman-style pruning).
	// Default 3.
	MaxParents int
	// MaxIters bounds the number of applied moves per climb. Default n².
	MaxIters int
	// Restarts adds perturb-and-reclimb rounds after the first climb to
	// escape local optima: the best DAG so far is perturbed with random
	// legal moves and climbed again, keeping the best score seen.
	// Default 0 (pure greedy).
	Restarts int
	// CandidateParents, when positive, applies Friedman et al.'s
	// sparse-candidate pruning (Section III of the paper): each node may
	// only take parents from its top-k partners by pairwise mutual
	// information, computed once with the parallel all-pairs MI primitive.
	// This shrinks the move space from O(n²) to O(n·k) per iteration.
	CandidateParents int
	// Seed drives the perturbations. Default 1.
	Seed uint64
}

func (c Config) withDefaults(n int) Config {
	if c.MaxParents <= 0 {
		c.MaxParents = 3
	}
	if c.MaxIters <= 0 {
		c.MaxIters = n * n
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result reports the learned DAG and search instrumentation.
type Result struct {
	DAG         *graph.DAG
	Score       float64 // BIC of the final structure, in bits
	Iterations  int     // moves applied across all climbs
	Evaluations int     // family scores computed (cache misses)
	CacheHits   int     // family scores served from cache
	Restarts    int     // perturb-and-reclimb rounds that ran
	Improved    int     // restarts that beat the incumbent
	Elapsed     time.Duration
}

type moveKind int

const (
	moveAdd moveKind = iota
	moveDelete
	moveReverse
)

// scanAbort carries a marginalization error out of the score evaluation
// loops (which return bare float64s) up to the HillClimbCtx entry point,
// where it is recovered and returned as an ordinary error.
type scanAbort struct{ err error }

// HillClimbCtx runs greedy hill climbing from the empty graph: at each
// step it evaluates every legal add/delete/reverse move, applies the one
// with the largest positive BIC improvement, and stops when no move
// improves the score (or MaxIters is reached).
//
// Every sufficient-statistic marginalization observes ctx, so cancellation
// surfaces as context.Canceled (or DeadlineExceeded) in bounded time
// instead of the climb running to completion.
func HillClimbCtx(ctx context.Context, pt *core.PotentialTable, cfg Config) (out *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if a, ok := r.(scanAbort); ok {
				out, err = nil, a.err
				return
			}
			panic(r)
		}
	}()
	n := pt.Codec().NumVars()
	if n < 2 {
		return nil, fmt.Errorf("search: need at least 2 variables, have %d", n)
	}
	if pt.NumSamples() == 0 {
		return nil, fmt.Errorf("search: empty potential table")
	}
	cfg = cfg.withDefaults(n)
	start := time.Now()

	s := &searcher{ctx: ctx, pt: pt, cfg: cfg, cache: map[string]float64{}}
	if cfg.CandidateParents > 0 {
		cand, err := candidateParents(ctx, pt, cfg.CandidateParents, cfg.P)
		if err != nil {
			return nil, err
		}
		s.candidates = cand
	}
	dag := graph.NewDAG(n)
	// Per-variable family scores of the current structure.
	family := make([]float64, n)
	total := 0.0
	for v := 0; v < n; v++ {
		family[v] = s.familyScore(v, nil)
		total += family[v]
	}

	res := &Result{DAG: dag}
	total = s.climb(dag, family, total, res)
	res.Score = total

	// Perturb-and-reclimb restarts.
	src := rng.NewXoshiro256SS(cfg.Seed)
	for round := 0; round < cfg.Restarts; round++ {
		res.Restarts++
		cand := res.DAG.Clone()
		perturb(cand, src, cfg.MaxParents, n/2+1)
		candFamily := make([]float64, n)
		candTotal := 0.0
		for v := 0; v < n; v++ {
			candFamily[v] = s.familyScore(v, cand.Parents(v))
			candTotal += candFamily[v]
		}
		candTotal = s.climb(cand, candFamily, candTotal, res)
		if candTotal > res.Score+1e-12 {
			res.DAG = cand
			res.Score = candTotal
			res.Improved++
		}
	}

	res.Evaluations = s.evals
	res.CacheHits = s.hits
	res.Elapsed = time.Since(start)
	return res, nil
}

// perturb applies up to k random legal structural moves to dag.
func perturb(dag *graph.DAG, src *rng.Xoshiro256SS, maxParents, k int) {
	n := dag.N()
	for step := 0; step < k; step++ {
		u := src.Intn(n)
		v := src.Intn(n)
		if u == v {
			continue
		}
		switch {
		case dag.HasEdge(u, v):
			if src.Intn(2) == 0 {
				dag.RemoveEdge(u, v)
			} else if len(dag.Parents(u)) < maxParents {
				dag.RemoveEdge(u, v)
				if dag.AddEdge(v, u) != nil {
					dag.MustAddEdge(u, v) // reversal cyclic: undo
				}
			}
		case !dag.HasEdge(v, u) && len(dag.Parents(v)) < maxParents:
			_ = dag.AddEdge(u, v) // ignore cycle rejections
		}
	}
}

// climb runs the greedy loop on dag in place, maintaining family scores,
// and returns the final total score.
func (s *searcher) climb(dag *graph.DAG, family []float64, total float64, res *Result) float64 {
	n := dag.N()
	cfg := s.cfg
	for iter := 0; iter < cfg.MaxIters; iter++ {
		bestDelta := 0.0
		var bestKind moveKind
		bestU, bestV := -1, -1
		var bestNewV, bestNewU float64 // replacement family scores

		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				switch {
				case !dag.HasEdge(u, v) && !dag.HasEdge(v, u):
					// Add u→v.
					if len(dag.Parents(v)) >= cfg.MaxParents || !s.allowedParent(u, v) {
						continue
					}
					if err := dag.AddEdge(u, v); err != nil {
						continue // would create a cycle
					}
					newV := s.familyScore(v, dag.Parents(v))
					dag.RemoveEdge(u, v)
					if delta := newV - family[v]; delta > bestDelta+1e-12 {
						bestDelta, bestKind, bestU, bestV, bestNewV = delta, moveAdd, u, v, newV
					}
				case dag.HasEdge(u, v):
					// Delete u→v.
					dag.RemoveEdge(u, v)
					newV := s.familyScore(v, dag.Parents(v))
					if delta := newV - family[v]; delta > bestDelta+1e-12 {
						bestDelta, bestKind, bestU, bestV, bestNewV = delta, moveDelete, u, v, newV
					}
					// Reverse u→v to v→u (only evaluated once per edge,
					// from the (u,v) orientation).
					if len(dag.Parents(u)) < cfg.MaxParents && s.allowedParent(v, u) {
						if err := dag.AddEdge(v, u); err == nil {
							newU := s.familyScore(u, dag.Parents(u))
							delta := (newV - family[v]) + (newU - family[u])
							if delta > bestDelta+1e-12 {
								bestDelta, bestKind, bestU, bestV = delta, moveReverse, u, v
								bestNewV, bestNewU = newV, newU
							}
							dag.RemoveEdge(v, u)
						}
					}
					dag.MustAddEdge(u, v) // restore
				}
			}
		}
		if bestU < 0 {
			break // local optimum
		}
		switch bestKind {
		case moveAdd:
			dag.MustAddEdge(bestU, bestV)
			total += bestNewV - family[bestV]
			family[bestV] = bestNewV
		case moveDelete:
			dag.RemoveEdge(bestU, bestV)
			total += bestNewV - family[bestV]
			family[bestV] = bestNewV
		case moveReverse:
			dag.RemoveEdge(bestU, bestV)
			dag.MustAddEdge(bestV, bestU)
			total += (bestNewV - family[bestV]) + (bestNewU - family[bestU])
			family[bestV] = bestNewV
			family[bestU] = bestNewU
		}
		res.Iterations++
	}
	return total
}

type searcher struct {
	ctx        context.Context
	pt         *core.PotentialTable
	cfg        Config
	cache      map[string]float64
	candidates [][]bool // candidates[v][u]: u may be a parent of v (nil = all)
	evals      int
	hits       int
}

// allowedParent reports whether u may become a parent of v under the
// sparse-candidate restriction.
func (s *searcher) allowedParent(u, v int) bool {
	return s.candidates == nil || s.candidates[v][u]
}

// candidateParents computes each node's top-k partners by pairwise MI.
func candidateParents(ctx context.Context, pt *core.PotentialTable, k, p int) ([][]bool, error) {
	n := pt.Codec().NumVars()
	mi, err := pt.AllPairsMICtx(ctx, p, core.MIFused)
	if err != nil {
		return nil, err
	}
	out := make([][]bool, n)
	type partner struct {
		u  int
		mi float64
	}
	for v := 0; v < n; v++ {
		partners := make([]partner, 0, n-1)
		for u := 0; u < n; u++ {
			if u != v {
				partners = append(partners, partner{u, mi.At(min(u, v), max(u, v))})
			}
		}
		sort.Slice(partners, func(a, b int) bool {
			if partners[a].mi != partners[b].mi {
				return partners[a].mi > partners[b].mi
			}
			return partners[a].u < partners[b].u
		})
		out[v] = make([]bool, n)
		limit := k
		if limit > len(partners) {
			limit = len(partners)
		}
		for _, pr := range partners[:limit] {
			out[v][pr.u] = true
		}
	}
	return out, nil
}

// familyScore returns the BIC contribution of variable v with the given
// parent set: the maximized family log-likelihood minus the BIC complexity
// penalty, in bits.
func (s *searcher) familyScore(v int, parents []int) float64 {
	key := familyKey(v, parents)
	if sc, ok := s.cache[key]; ok {
		s.hits++
		return sc
	}
	s.evals++

	codec := s.pt.Codec()
	rv := codec.Cardinality(v)
	m := float64(s.pt.NumSamples())

	// Marginal over parents + v, v varying fastest (last position).
	vars := make([]int, 0, len(parents)+1)
	vars = append(vars, parents...)
	sort.Ints(vars)
	vars = append(vars, v)
	mg, err := s.pt.MarginalizeCtx(s.ctx, vars, s.cfg.P)
	if err != nil {
		panic(scanAbort{err})
	}

	rows := len(mg.Counts) / rv
	var ll float64
	for row := 0; row < rows; row++ {
		var rowTotal uint64
		base := row * rv
		for sv := 0; sv < rv; sv++ {
			rowTotal += mg.Counts[base+sv]
		}
		if rowTotal == 0 {
			continue
		}
		for sv := 0; sv < rv; sv++ {
			c := mg.Counts[base+sv]
			if c == 0 {
				continue
			}
			ll += float64(c) * math.Log2(float64(c)/float64(rowTotal))
		}
	}
	penalty := float64(rows*(rv-1)) / 2 * math.Log2(m)
	score := ll - penalty
	s.cache[key] = score
	return score
}

func familyKey(v int, parents []int) string {
	ps := append([]int(nil), parents...)
	sort.Ints(ps)
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", v)
	for _, p := range ps {
		fmt.Fprintf(&b, "%d,", p)
	}
	return b.String()
}
