// Package structure implements Cheng et al.'s three-phase constraint-based
// Bayesian-network structure-learning algorithm (Artificial Intelligence
// 137(1-2):43-90, 2002) — drafting, thickening, thinning — on top of the
// parallel primitives in internal/core.
//
// The paper parallelizes phase 1 (drafting), whose dominant cost is the
// potential-table construction and the all-pairs mutual-information sweep;
// this package composes those primitives into the full learner so the
// primitives can be exercised end-to-end and edge recovery measured against
// ground-truth networks.
//
// The learner produces the undirected skeleton (the part the primitives
// accelerate) and then orients it into a partially directed graph via
// v-structure detection and Meek's rules, as Cheng et al.'s full algorithm
// does after thinning.
package structure

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"waitfreebn/internal/core"
	"waitfreebn/internal/dataset"
	"waitfreebn/internal/graph"
	"waitfreebn/internal/stats"
)

// TestKind selects the conditional-independence decision rule.
type TestKind int

const (
	// TestMIThreshold declares dependence when the (conditional) mutual
	// information is at least Epsilon bits — Cheng et al.'s rule.
	TestMIThreshold TestKind = iota
	// TestG declares dependence when the G statistic (2·N·ln2·I) exceeds
	// the χ² critical value at significance Alpha with the contingency
	// table's degrees of freedom — the classical statistical test the
	// paper's related work cites.
	TestG
)

// String returns the kind's human-readable name.
func (k TestKind) String() string {
	switch k {
	case TestMIThreshold:
		return "mi-threshold"
	case TestG:
		return "g-test"
	default:
		return "unknown"
	}
}

// Config parameterizes the learner. The zero value is usable: it applies
// the documented defaults.
type Config struct {
	// Epsilon is the mutual-information threshold below which variables
	// are considered independent (TestMIThreshold). Default 0.01 bits.
	Epsilon float64
	// Test selects the CI decision rule. Default TestMIThreshold.
	Test TestKind
	// Alpha is the significance level for TestG. Default 0.01.
	Alpha float64
	// P is the number of workers for the parallel phases. 0 = GOMAXPROCS.
	P int
	// Schedule selects the all-pairs MI strategy. The zero value is
	// core.MIFused, one table pass for every pair; the other schedules are
	// the A3 ablation and must be selected explicitly.
	Schedule core.MISchedule
	// MaxCondSet caps the size of conditioning sets in try-to-separate.
	// Default 6; larger sets make CI estimates unreliable and marginal
	// tables exponentially big. When a candidate set exceeds the cap, the
	// MaxCondSet candidates with the highest pairwise relevance to the
	// tested pair (MI to either endpoint) are kept; every truncation is
	// counted in Result.CondSetTruncations.
	MaxCondSet int
	// PhasePar enables the speculative wavefront scheduler for phases 2-3
	// (thickening and thinning): CI tests for a wave of pending pairs are
	// evaluated concurrently against a snapshot of the graph and committed
	// in the serial order, so the result is bit-identical to the serial
	// learner. Off by default.
	PhasePar bool
	// WaveSize caps how many pending pairs/edges one wavefront round
	// speculates on. Default 32. Larger waves expose more parallelism and
	// fuse more marginalizations per table scan but waste more work when a
	// committed decision invalidates the rest of the wave — thickening in
	// particular invalidates aggressively (every kept edge reshapes the
	// candidate sets behind it), and measured waste grows superlinearly in
	// the wave size while thinning is already near its fusion ceiling at 32.
	WaveSize int
	// MargCacheCells bounds the varset→marginal cache, in table cells
	// (≈ 8·cells bytes). 0 enables a default-sized cache (2^16 cells ≈
	// 512 KiB), serial or wavefront alike; negative disables the cache.
	MargCacheCells int
	// Freeze captures a frozen columnar snapshot of the potential table
	// before the read phases run, so every scan (drafting MI, CI-test
	// marginals, wavefront batches) streams dense sorted memory instead of
	// the partition hashtables. The snapshot changes no results — scans are
	// bit-identical either way. Off by default at the API level; the CLIs
	// enable it for learning (-freeze).
	Freeze bool
	// BuildOptions configures the wait-free table construction.
	BuildOptions core.Options
}

// defaultMargCacheCells sizes the marginal cache when MargCacheCells is 0:
// 2^16 cells ≈ 512 KiB of counts, the same budget as bnserve -marg-cache.
const defaultMargCacheCells = 1 << 16

func (c Config) withDefaults() Config {
	if c.Epsilon <= 0 {
		c.Epsilon = 0.01
	}
	if c.Alpha == 0 {
		c.Alpha = 0.01
	}
	if c.MaxCondSet <= 0 {
		c.MaxCondSet = 6
	}
	if c.WaveSize <= 0 {
		c.WaveSize = 32
	}
	return c
}

// validate rejects configurations the statistical machinery cannot honor.
// It runs after withDefaults, so only explicitly bad values are caught; in
// particular it turns the former stats.ChiSquareCritical panic on exotic
// significance levels into an error at the API boundary.
func (c Config) validate() error {
	if c.Test == TestG && !(c.Alpha > 0 && c.Alpha <= 0.5) {
		return fmt.Errorf("structure: g-test significance alpha = %v outside (0, 0.5]", c.Alpha)
	}
	return nil
}

// Result reports the learned skeleton and per-phase instrumentation.
type Result struct {
	Graph   *graph.Undirected // learned skeleton
	PDAG    *graph.PDAG       // skeleton + v-structures + Meek-rule orientations
	MI      *core.MIMatrix    // all-pairs mutual information from drafting
	Sepsets *Sepsets          // separating sets found by the CI search

	DraftEdges   int // edges added in phase 1
	ThickenEdges int // edges added in phase 2
	ThinnedEdges int // edges removed in phase 3
	CITests      int // conditional-independence tests evaluated
	// CondSetTruncations counts candidate conditioning sets clipped to
	// MaxCondSet by the MI-relevance selection.
	CondSetTruncations int

	// Wavefront counters (zero when PhasePar is off). All are deterministic
	// functions of the input — wave composition does not depend on P — so
	// they are reproducible across worker counts.
	Waves         int // speculation rounds run by phases 2-3
	Requeued      int // wave items invalidated by an earlier commit and retried
	WastedCITests int // CI tests computed speculatively and then discarded

	BuildTime   time.Duration // potential-table construction (LearnCtx only)
	FreezeTime  time.Duration // columnar snapshot (zero when Config.Freeze is off)
	DraftTime   time.Duration // all-pairs MI + draft assembly
	ThickenTime time.Duration
	ThinTime    time.Duration

	BuildStats core.Stats       // wait-free construction counters
	Cache      core.CacheStats  // marginal-cache counters (zero when disabled)
	Freeze     core.FreezeStats // columnar-snapshot stats (zero when Config.Freeze is off)
}

// Learn runs the full three-phase algorithm on a dataset: the potential
// table is built with the wait-free primitive, then drafting, thickening
// and thinning produce the skeleton.
func Learn(data *dataset.Dataset, cfg Config) (*Result, error) {
	return LearnCtx(context.Background(), data, cfg)
}

// LearnCtx is Learn under the fault-tolerant execution contract: the build
// and every parallel phase observe ctx, and cancellation between CI tests
// aborts the search with context.Canceled (or DeadlineExceeded) rather
// than running the remaining phases.
func LearnCtx(ctx context.Context, data *dataset.Dataset, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	pt, st, err := core.BuildCtx(ctx, data, cfg.BuildOptions)
	if err != nil {
		return nil, fmt.Errorf("structure: %w", err)
	}
	buildTime := time.Since(start)
	res, err := LearnFromTableCtx(ctx, pt, cfg)
	if err != nil {
		return nil, err
	}
	res.BuildTime = buildTime
	res.BuildStats = st
	return res, nil
}

// LearnFromTable runs phases 1-3 against an existing potential table.
func LearnFromTable(pt *core.PotentialTable, cfg Config) (*Result, error) {
	return LearnFromTableCtx(context.Background(), pt, cfg)
}

// LearnFromTableCtx is LearnFromTable under the fault-tolerant execution
// contract (see LearnCtx).
func LearnFromTableCtx(ctx context.Context, pt *core.PotentialTable, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := pt.Codec().NumVars()
	if n < 2 {
		return nil, fmt.Errorf("structure: need at least 2 variables, have %d", n)
	}
	res := &Result{Sepsets: NewSepsets(n)}
	if cfg.Freeze {
		// Construction has completed by the time a table reaches the
		// learner, so the partitions are quiescent — the freeze point the
		// snapshot contract requires.
		t := time.Now()
		st, err := pt.FreezeCtx(ctx, cfg.P)
		if err != nil {
			return nil, err
		}
		res.FreezeTime = time.Since(t)
		res.Freeze = st
	}
	l := &learner{ctx: ctx, pt: pt, cfg: cfg, res: res}
	if cells := cfg.MargCacheCells; cells >= 0 {
		if cells == 0 {
			cells = defaultMargCacheCells
		}
		l.cache = core.NewMarginalCache(cells, cfg.BuildOptions.Obs)
	}

	t0 := time.Now()
	mi, err := pt.AllPairsMICtx(ctx, cfg.P, cfg.Schedule)
	if err != nil {
		return nil, err
	}
	res.MI = mi
	g, deferred := l.draft(mi)
	res.Graph = g
	res.DraftTime = time.Since(t0)

	t1 := time.Now()
	if cfg.PhasePar {
		err = l.thickenWave(g, deferred)
	} else {
		err = l.thicken(g, deferred)
	}
	if err != nil {
		return nil, err
	}
	res.ThickenTime = time.Since(t1)

	t2 := time.Now()
	if cfg.PhasePar {
		err = l.thinWave(g)
	} else {
		err = l.thin(g)
	}
	if err != nil {
		return nil, err
	}
	res.ThinTime = time.Since(t2)

	res.PDAG = OrientEdges(g, res.Sepsets)
	res.Cache = l.cache.Stats()
	publishLearnMetrics(cfg.BuildOptions.Obs, res)
	return res, nil
}

type pair struct {
	i, j int
	mi   float64
}

type learner struct {
	ctx   context.Context
	pt    *core.PotentialTable
	cfg   Config
	res   *Result
	cache *core.MarginalCache // nil when disabled
}

// checkCtx is the learner's cancellation point, consulted between CI tests
// and at phase-loop boundaries.
func (l *learner) checkCtx() error {
	if l.ctx.Err() != nil {
		return context.Cause(l.ctx)
	}
	return nil
}

// draft is phase 1: sort dependent pairs by decreasing MI and add each
// edge whose endpoints are not already connected by an open path; pairs
// skipped because a path exists are deferred to thickening.
func (l *learner) draft(mi *core.MIMatrix) (*graph.Undirected, []pair) {
	n := mi.N
	var pairs []pair
	mi.ForEachPair(func(i, j int, v float64) {
		if dependentStat(l.pt, l.cfg, v, i, j, 1) {
			pairs = append(pairs, pair{i, j, v})
		}
	})
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].mi != pairs[b].mi {
			return pairs[a].mi > pairs[b].mi
		}
		if pairs[a].i != pairs[b].i {
			return pairs[a].i < pairs[b].i
		}
		return pairs[a].j < pairs[b].j
	})

	g := graph.NewUndirected(n)
	var deferred []pair
	for _, p := range pairs {
		if g.HasPath(p.i, p.j, nil) {
			deferred = append(deferred, p)
		} else {
			g.AddEdge(p.i, p.j)
			l.res.DraftEdges++
		}
	}
	return g, deferred
}

// thicken is phase 2: for every deferred pair, add the edge unless a
// conditional-independence test separates the endpoints.
func (l *learner) thicken(g *graph.Undirected, deferred []pair) error {
	for _, p := range deferred {
		if err := l.checkCtx(); err != nil {
			return err
		}
		sep, err := l.tryToSeparate(g, p.i, p.j)
		if err != nil {
			return err
		}
		if !sep {
			g.AddEdge(p.i, p.j)
			l.res.ThickenEdges++
		}
	}
	return nil
}

// thin is phase 3: every edge whose endpoints remain connected without it
// is temporarily removed and permanently dropped if a CI test separates
// the endpoints.
func (l *learner) thin(g *graph.Undirected) error {
	for _, e := range g.Edges() {
		if err := l.checkCtx(); err != nil {
			return err
		}
		u, v := e[0], e[1]
		if !g.HasEdge(u, v) {
			continue // removed earlier in this phase
		}
		if !g.AdjacencyPath(u, v) {
			continue // the edge is the only connection; keep it
		}
		g.RemoveEdge(u, v)
		sep, err := l.tryToSeparate(g, u, v)
		if err != nil {
			g.AddEdge(u, v) // leave the graph structurally consistent
			return err
		}
		if sep {
			l.res.ThinnedEdges++
		} else {
			g.AddEdge(u, v)
		}
	}
	return nil
}

// tryToSeparate is the serial entry into the CI search: it computes the
// candidate conditioning sets from the live graph, runs the shared ciEval
// machinery on them, and commits the outcome (counters, sepset) directly.
func (l *learner) tryToSeparate(g *graph.Undirected, x, y int) (bool, error) {
	e := l.newEval(l.ctx, &directMargSource{l: l})
	set, sep, err := e.tryToSeparate(g.NeighborsOnPaths(x, y), g.NeighborsOnPaths(y, x), x, y)
	l.res.CITests += e.tests
	l.res.CondSetTruncations += e.truncated
	if err != nil {
		return false, err
	}
	if sep {
		l.res.Sepsets.Put(x, y, set)
	}
	return sep, nil
}

// newEval builds a ciEval bound to a marginal source. The serial learner
// and the wavefront scheduler share this machinery, so a speculative CI
// decision is the same pure function of (candidate sets, pair, table,
// config) as the serial one — the heart of the bit-identical guarantee.
func (l *learner) newEval(ctx context.Context, src margSource) *ciEval {
	return &ciEval{ctx: ctx, pt: l.pt, cfg: l.cfg, mi: l.res.MI, src: src}
}

// margSource supplies marginal tables for batches of varsets. The serial
// path computes them in place; the wavefront path posts the request to a
// coordinator that fuses requests from the whole wave into shared scans.
type margSource interface {
	marginals(varsets [][]int) ([]*core.Marginal, error)
}

// directMargSource computes marginals immediately through the (optionally
// cached) fused entry point.
type directMargSource struct{ l *learner }

func (s *directMargSource) marginals(varsets [][]int) ([]*core.Marginal, error) {
	return s.l.pt.MarginalizeManyCachedCtx(s.l.ctx, varsets, s.l.cfg.P, s.l.cache)
}

// ciEval runs Cheng et al.'s quantitative CI search for one pair. Test and
// truncation counts accumulate locally so a speculative evaluation that is
// later discarded never pollutes Result's deterministic counters.
type ciEval struct {
	ctx context.Context
	pt  *core.PotentialTable
	cfg Config
	mi  *core.MIMatrix
	src margSource

	tests     int // CI tests evaluated
	truncated int // candidate sets clipped to MaxCondSet
}

// checkCtx is the evaluation's cancellation point, consulted between
// greedy-shrink rounds.
func (e *ciEval) checkCtx() error {
	if e.ctx.Err() != nil {
		return context.Cause(e.ctx)
	}
	return nil
}

// tryToSeparate implements the quantitative CI search given the two
// candidate conditioning sets (the neighbors of each endpoint that lie on
// paths to the other): greedily shrink each while the conditional mutual
// information does not increase. Returns the separating set C achieving
// independence of x and y given C, if one is found.
func (e *ciEval) tryToSeparate(n1, n2 []int, x, y int) ([]int, bool, error) {
	// Try the smaller candidate set first (paper's heuristic), then the
	// other if the first fails.
	first, second := n1, n2
	if len(n2) < len(n1) {
		first, second = n2, n1
	}
	set, ok, err := e.separates(first, x, y)
	if err != nil || ok {
		return set, ok, err
	}
	if !sameVars(first, second) {
		return e.separates(second, x, y)
	}
	return nil, false, nil
}

func sameVars(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// truncate clips a too-large candidate conditioning set to MaxCondSet. The
// kept candidates are those most relevant to the tested pair — highest
// MI(c,x) + MI(c,y) from the drafting phase's all-pairs matrix, ties broken
// by ascending variable id — rather than whichever ones happened to sort
// first, so the selection is principled and independent of neighbor-list
// ordering. The kept set is returned sorted ascending, preserving the
// (conditioning..., x, y) layout contract. Without an MI matrix (not
// reachable through the public entry points) it falls back to the sorted
// prefix, which is still deterministic.
func (e *ciEval) truncate(c []int, x, y int) []int {
	e.truncated++
	if e.mi == nil {
		return c[:e.cfg.MaxCondSet]
	}
	sort.SliceStable(c, func(a, b int) bool {
		sa := e.mi.At(c[a], x) + e.mi.At(c[a], y)
		sb := e.mi.At(c[b], x) + e.mi.At(c[b], y)
		if sa != sb {
			return sa > sb
		}
		return c[a] < c[b]
	})
	c = c[:e.cfg.MaxCondSet]
	sort.Ints(c)
	return c
}

// separates runs the greedy shrink loop on one candidate conditioning set,
// returning the separating set it found. The table is scanned once per
// candidate set: the first test reads the joint marginal over
// (c..., x, y), and every greedy round derives its |c| reduced marginals by
// summing one conditioning axis out of the current joint in memory. Counts
// are exact, so each derived marginal equals a direct scan cell for cell and
// every CMI value and decision is the one a scan per varset gives; the
// winning reduction becomes the next round's joint.
func (e *ciEval) separates(cand []int, x, y int) ([]int, bool, error) {
	if len(cand) == 0 {
		return nil, false, nil
	}
	c := append([]int(nil), cand...)
	if len(c) > e.cfg.MaxCondSet {
		c = e.truncate(c, x, y)
	}
	e.tests++
	vars := make([]int, 0, len(c)+2)
	vars = append(vars, c...)
	vars = append(vars, x, y)
	ms, err := e.src.marginals([][]int{vars})
	if err != nil {
		return nil, false, err
	}
	joint := ms[0]
	v, rz := condMI(joint)
	if !e.dependent(v, x, y, rz) {
		return c, true, nil
	}
	for len(c) > 1 {
		if err := e.checkCtx(); err != nil {
			return nil, false, err
		}
		e.tests += len(c)
		bestIdx, bestV := -1, v
		var best *core.Marginal
		for k := range c {
			reduced := joint.SumOut(k)
			vk, rzk := condMI(reduced)
			if !e.dependent(vk, x, y, rzk) {
				return append(append([]int(nil), c[:k]...), c[k+1:]...), true, nil
			}
			if vk <= bestV {
				bestIdx, bestV, best = k, vk, reduced
			}
		}
		if bestIdx < 0 {
			return nil, false, nil // every reduction increases dependence
		}
		c = append(c[:bestIdx], c[bestIdx+1:]...)
		joint, v = best, bestV
	}
	return nil, false, nil
}

// condMI computes I(x;y|Z) from a marginal in the (Z..., x, y) layout that
// stats.CondMutualInfoCounts expects, returning it with Z's joint state
// count rz.
func condMI(mg *core.Marginal) (float64, int) {
	k := len(mg.Card)
	ri, rj := mg.Card[k-2], mg.Card[k-1]
	rz := len(mg.Counts) / (ri * rj)
	return stats.CondMutualInfoCounts(mg.Counts, rz, ri, rj), rz
}

// dependent applies the configured CI decision rule to an observed
// (conditional) mutual information of statBits bits between variables x
// and y given a conditioning set with rz joint states.
func (e *ciEval) dependent(statBits float64, x, y, rz int) bool {
	return dependentStat(e.pt, e.cfg, statBits, x, y, rz)
}

// dependentStat is the CI decision rule shared by the drafting phase
// (which has no ciEval) and the CI search.
func dependentStat(pt *core.PotentialTable, cfg Config, statBits float64, x, y, rz int) bool {
	switch cfg.Test {
	case TestG:
		ri := pt.Codec().Cardinality(x)
		rj := pt.Codec().Cardinality(y)
		df := (ri - 1) * (rj - 1) * rz
		if df < 1 {
			df = 1
		}
		g := 2 * float64(pt.NumSamples()) * math.Ln2 * statBits
		return g > stats.ChiSquareCritical(df, cfg.Alpha)
	default:
		return statBits >= cfg.Epsilon
	}
}

// SkeletonMetrics compares a learned skeleton against the skeleton of a
// ground-truth DAG.
type SkeletonMetrics struct {
	TruePositives  int
	FalsePositives int
	FalseNegatives int
	Precision      float64
	Recall         float64
	F1             float64
}

// CompareSkeleton evaluates edge recovery of learned against the skeleton
// of truth.
func CompareSkeleton(learned *graph.Undirected, truth *graph.DAG) SkeletonMetrics {
	if learned.N() != truth.N() {
		panic(fmt.Sprintf("structure: graphs have %d vs %d vertices", learned.N(), truth.N()))
	}
	sk := truth.Skeleton()
	var m SkeletonMetrics
	for _, e := range learned.Edges() {
		if sk.HasEdge(e[0], e[1]) {
			m.TruePositives++
		} else {
			m.FalsePositives++
		}
	}
	for _, e := range sk.Edges() {
		if !learned.HasEdge(e[0], e[1]) {
			m.FalseNegatives++
		}
	}
	if m.TruePositives+m.FalsePositives > 0 {
		m.Precision = float64(m.TruePositives) / float64(m.TruePositives+m.FalsePositives)
	}
	if m.TruePositives+m.FalseNegatives > 0 {
		m.Recall = float64(m.TruePositives) / float64(m.TruePositives+m.FalseNegatives)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}
