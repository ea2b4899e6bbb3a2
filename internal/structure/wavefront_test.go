package structure

import (
	"context"
	"strings"
	"testing"

	"waitfreebn/internal/bn"
	"waitfreebn/internal/core"
	"waitfreebn/internal/dataset"
	"waitfreebn/internal/stats"
)

// requireSameResult asserts the parts of two Results that the wavefront
// guarantees bit-identical: the skeleton, every separating set, and the
// deterministic counters.
func requireSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	ew, eg := want.Graph.Edges(), got.Graph.Edges()
	if len(ew) != len(eg) {
		t.Fatalf("%s: %d edges != %d edges\nwant %v\ngot  %v", label, len(ew), len(eg), ew, eg)
	}
	for i := range ew {
		if ew[i] != eg[i] {
			t.Fatalf("%s: edge %d differs: %v vs %v", label, i, ew, eg)
		}
	}
	if want.Sepsets.Len() != got.Sepsets.Len() {
		t.Fatalf("%s: sepset count %d != %d", label, want.Sepsets.Len(), got.Sepsets.Len())
	}
	n := want.Graph.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sw, okw := want.Sepsets.Get(i, j)
			sg, okg := got.Sepsets.Get(i, j)
			if okw != okg || !sameVars(sw, sg) {
				t.Fatalf("%s: sepset(%d,%d): %v/%v vs %v/%v", label, i, j, sw, okw, sg, okg)
			}
		}
	}
	type counters struct{ draft, thicken, thin, ci, trunc int }
	cw := counters{want.DraftEdges, want.ThickenEdges, want.ThinnedEdges, want.CITests, want.CondSetTruncations}
	cg := counters{got.DraftEdges, got.ThickenEdges, got.ThinnedEdges, got.CITests, got.CondSetTruncations}
	if cw != cg {
		t.Fatalf("%s: counters differ: %+v vs %+v", label, cw, cg)
	}
}

// TestWavefrontMatchesSerial is the central equivalence property of the
// speculative scheduler: with PhasePar on, the learned skeleton, the
// separating sets, and every deterministic counter are identical to the
// serial learner's at any worker count, for both CI decision rules. The
// tiny wave size forces many waves (and usually requeues) so the
// invalidation path is exercised, not just the all-valid fast path.
func TestWavefrontMatchesSerial(t *testing.T) {
	net := bn.RandomDAG(12, 2, 0.3, 3, 0.6, 21)
	d, err := net.Sample(40000, 22, 4)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := core.Build(d, core.Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		base Config
	}{
		{"mi-threshold", Config{Epsilon: 0.003, MaxCondSet: 3}},
		{"g-test", Config{Test: TestG, Alpha: 0.01, MaxCondSet: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serialCfg := tc.base
			serialCfg.P = 2
			want, err := LearnFromTable(pt, serialCfg)
			if err != nil {
				t.Fatal(err)
			}
			var waveRef *Result
			for _, p := range []int{1, 4, 8} {
				cfg := tc.base
				cfg.P = p
				cfg.PhasePar = true
				cfg.WaveSize = 7
				got, err := LearnFromTable(pt, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, tc.name, want, got)
				if got.Waves == 0 {
					t.Errorf("P=%d: wavefront ran no waves", p)
				}
				// The wavefront-only counters must not depend on P either.
				if waveRef == nil {
					waveRef = got
					t.Logf("waves=%d requeued=%d wasted=%d ci=%d",
						got.Waves, got.Requeued, got.WastedCITests, got.CITests)
				} else if got.Waves != waveRef.Waves || got.Requeued != waveRef.Requeued ||
					got.WastedCITests != waveRef.WastedCITests {
					t.Errorf("P=%d: wave counters vary with P: (%d,%d,%d) vs (%d,%d,%d)",
						p, got.Waves, got.Requeued, got.WastedCITests,
						waveRef.Waves, waveRef.Requeued, waveRef.WastedCITests)
				}
			}
		})
	}
}

// TestWavefrontCacheOnOffEquivalence: the marginal cache is a pure
// memoization — disabling it must not change any learned output, and an
// enabled cache must actually be exercised.
func TestWavefrontCacheOnOffEquivalence(t *testing.T) {
	net := bn.Asia()
	d, err := net.Sample(50000, 23, 4)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := core.Build(d, core.Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	off, err := LearnFromTable(pt, Config{P: 4, PhasePar: true, WaveSize: 5, MargCacheCells: -1})
	if err != nil {
		t.Fatal(err)
	}
	if off.Cache.Hits+off.Cache.Misses != 0 {
		t.Errorf("disabled cache recorded traffic: %+v", off.Cache)
	}
	on, err := LearnFromTable(pt, Config{P: 4, PhasePar: true, WaveSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "cache on vs off", off, on)
	if on.Cache.Misses == 0 {
		t.Errorf("enabled cache saw no lookups: %+v", on.Cache)
	}
	if on.Cache.String() == "" || !strings.Contains(on.Cache.String(), "hit rate") {
		t.Errorf("cache stats string: %q", on.Cache.String())
	}
}

// TestFlattenedLayoutContract pins the layout agreement between the CI
// search and the stats package: the search marginalizes over the varset
// (conditioning..., x, y) and feeds the counts straight into
// stats.CondMutualInfoCounts as an rz×ri×rj row-major array. The table's
// marginal must therefore equal the contingency table built directly from
// the dataset rows with z-major flattening — cell-for-cell, not just in
// the CMI value it produces.
func TestFlattenedLayoutContract(t *testing.T) {
	net := bn.RandomDAG(6, 3, 0.4, 2, 0.5, 31)
	d, err := net.Sample(5000, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := core.Build(d, core.Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		z    []int
		x, y int
	}{
		{"empty conditioning", nil, 0, 1},
		{"single z", []int{2}, 0, 1},
		{"two z", []int{1, 3}, 0, 4},
		{"two z unsorted endpoints", []int{0, 5}, 4, 2},
		{"three z", []int{0, 2, 4}, 1, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vars := append(append([]int(nil), tc.z...), tc.x, tc.y)
			mg, err := pt.MarginalizeCtx(context.Background(), vars, 2)
			if err != nil {
				t.Fatal(err)
			}

			// Brute-force contingency table from the raw rows, flattening
			// the axes in the same (z..., x, y) order, leading axis major.
			cells := 1
			for _, v := range vars {
				cells *= d.Cardinality(v)
			}
			brute := make([]uint64, cells)
			for i := 0; i < d.NumSamples(); i++ {
				idx := 0
				for _, v := range vars {
					idx = idx*d.Cardinality(v) + int(d.Get(i, v))
				}
				brute[idx]++
			}
			if len(mg.Counts) != cells {
				t.Fatalf("marginal has %d cells, want %d", len(mg.Counts), cells)
			}
			for c := range brute {
				if mg.Counts[c] != brute[c] {
					t.Fatalf("cell %d: table %d != brute force %d", c, mg.Counts[c], brute[c])
				}
			}

			rz := 1
			for _, v := range tc.z {
				rz *= d.Cardinality(v)
			}
			ri, rj := d.Cardinality(tc.x), d.Cardinality(tc.y)
			got := stats.CondMutualInfoCounts(mg.Counts, rz, ri, rj)
			want := stats.CondMutualInfoCounts(brute, rz, ri, rj)
			if got != want {
				t.Fatalf("CMI from table %v != CMI from rows %v", got, want)
			}
		})
	}
}

// TestTruncateSelectsByRelevance unit-tests the MaxCondSet clipping rule:
// keep the candidates with the highest MI(c,x)+MI(c,y), ties broken by
// ascending id, result sorted ascending.
func TestTruncateSelectsByRelevance(t *testing.T) {
	mi := core.NewMIMatrix(8)
	// Relevance to the pair (6, 7): var 1 strongest, then 4, then 0; the
	// rest weaker, with 2 and 3 tied.
	for c, v := range map[int]float64{0: 0.3, 1: 0.9, 2: 0.1, 3: 0.1, 4: 0.5, 5: 0.05} {
		mi.Set(c, 6, v)
		mi.Set(c, 7, 0)
	}
	e := &ciEval{cfg: Config{MaxCondSet: 3}.withDefaults(), mi: mi}
	e.cfg.MaxCondSet = 3
	got := e.truncate([]int{0, 1, 2, 3, 4, 5}, 6, 7)
	if !sameVars(got, []int{0, 1, 4}) {
		t.Errorf("kept %v, want [0 1 4]", got)
	}
	if e.truncated != 1 {
		t.Errorf("truncated counter = %d", e.truncated)
	}
	// The tie between 2 and 3 resolves to the lower id.
	e2 := &ciEval{cfg: e.cfg, mi: mi}
	got2 := e2.truncate([]int{2, 3, 5, 1}, 6, 7)
	if !sameVars(got2, []int{1, 2, 3}) {
		t.Errorf("tie-break kept %v, want [1 2 3]", got2)
	}
	// No MI matrix: deterministic sorted-prefix fallback.
	e3 := &ciEval{cfg: e.cfg}
	if got3 := e3.truncate([]int{1, 2, 3, 4}, 6, 7); !sameVars(got3, []int{1, 2, 3}) {
		t.Errorf("fallback kept %v, want [1 2 3]", got3)
	}
}

// TestCondSetTruncationCounted drives truncation end to end on a dense
// network with a tiny MaxCondSet and checks the event is counted and the
// outcome reproducible.
func TestCondSetTruncationCounted(t *testing.T) {
	net := bn.RandomDAG(10, 2, 0.5, 4, 0.7, 41)
	d, err := net.Sample(30000, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := core.Build(d, core.Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := LearnFromTable(pt, Config{P: 2, MaxCondSet: 1, Epsilon: 0.003})
	if err != nil {
		t.Fatal(err)
	}
	if a.CondSetTruncations == 0 {
		t.Skip("no candidate set exceeded MaxCondSet=1 on this draw")
	}
	b, err := LearnFromTable(pt, Config{P: 4, MaxCondSet: 1, Epsilon: 0.003})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "truncation determinism", a, b)
}

// TestGTestSmallAlpha is the regression test for the user-reachable panic:
// -gtest -alpha 0.001 used to die inside stats.ChiSquareCritical. Any
// alpha in (0, 0.5] must now work, and stricter alphas must not admit
// more edges than looser ones.
func TestGTestSmallAlpha(t *testing.T) {
	net := bn.Chain(6, 2, 0.85)
	d, err := net.Sample(60000, 51, 4)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Learn(d, Config{P: 4, Test: TestG, Alpha: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	m := CompareSkeleton(strict.Graph, net.DAG())
	if m.FalseNegatives != 0 {
		t.Errorf("alpha=0.001 dropped true chain edges: %+v %v", m, strict.Graph.Edges())
	}
	loose, err := Learn(d, Config{P: 4, Test: TestG, Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Graph.NumEdges() > loose.Graph.NumEdges() {
		t.Errorf("stricter alpha found more edges (%d) than looser (%d)",
			strict.Graph.NumEdges(), loose.Graph.NumEdges())
	}
}

// TestGTestRejectsBadAlpha: significance levels outside (0, 0.5] are a
// configuration error reported by the API, never a panic.
func TestGTestRejectsBadAlpha(t *testing.T) {
	d := dataset.NewUniformCard(1000, 3, 2)
	d.UniformIndependent(61, 2)
	for _, alpha := range []float64{0.7, 1.0, -0.01} {
		if _, err := Learn(d, Config{Test: TestG, Alpha: alpha}); err == nil {
			t.Errorf("alpha=%v accepted", alpha)
		}
	}
	pt, _, err := core.Build(d, core.Options{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LearnFromTable(pt, Config{Test: TestG, Alpha: 0.7}); err == nil {
		t.Error("LearnFromTable accepted alpha=0.7")
	}
}

// TestConfigWavefrontDefaults pins the resolution of the new knobs.
func TestConfigWavefrontDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.WaveSize != 32 || c.PhasePar {
		t.Errorf("defaults: %+v", c)
	}
	if c2 := (Config{WaveSize: 9}).withDefaults(); c2.WaveSize != 9 {
		t.Errorf("explicit wave size overridden: %+v", c2)
	}
	if err := (Config{Test: TestG}).withDefaults().validate(); err != nil {
		t.Errorf("default g-test config rejected: %v", err)
	}
}
