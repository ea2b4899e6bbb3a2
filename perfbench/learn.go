package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"waitfreebn/internal/bn"
	"waitfreebn/internal/core"
	"waitfreebn/internal/dataset"
	"waitfreebn/internal/obs"
	"waitfreebn/internal/structure"
)

// learnScale sizes the learn workload's input.
type learnScale struct{ rows, vars int }

// fullLearn is the benchmark's learn input: binary variables sampled from a
// sparse random DAG (the sampler behind datagen -net random). 100k rows
// keep one learn near a second on two cores, so a run times several.
var fullLearn = learnScale{rows: 100_000, vars: 30}

// learnNetSeed fixes the sampled network and its sample.
const learnNetSeed = 42

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 7

// attributionTolerance bounds |trace.unattributed_share|: the layer
// self-times of a traced learn must add up to the untraced learn time
// within this share.
const attributionTolerance = 0.25

// runLearn parses a seeded CSV and learns from it at bnlearn's defaults.
func runLearn(ctx context.Context, p params, sc learnScale) (run, error) {
	cfg, err := learnConfig()
	if err != nil {
		return run{}, err
	}
	fmt.Println(describeLearn(cfg))
	net := bn.RandomDAG(sc.vars, 2, 0.25, 3, 1.0, learnNetSeed)
	src, err := shuffledSample(net, sc.rows, learnNetSeed, p.seed)
	if err != nil {
		return run{}, err
	}
	var csv bytes.Buffer
	if err := src.WriteCSV(&csv); err != nil {
		return run{}, err
	}

	var tr *tracer
	if p.trace {
		tr = &tracer{}
	}
	m := map[string]float64{}

	// Set-up: CSV parse, repeated; the last parse is the input.
	var data *dataset.Dataset
	parse := make([]float64, setupReps)
	for i := range parse {
		id := tr.begin("dataset.parse", -1, 0)
		t0 := time.Now()
		d, _, err := dataset.ReadCSVNamed(bytes.NewReader(csv.Bytes()), nil)
		parse[i] = time.Since(t0).Seconds()
		tr.end(id)
		if err != nil {
			return run{}, err
		}
		data = d
	}
	fmt.Printf("learn input: %d rows x %d vars, %d CSV bytes\n", data.NumSamples(), data.NumVars(), csv.Len())

	// Warm-up, excluded from timing.
	if _, err := structure.LearnCtx(ctx, data, cfg); err != nil {
		return run{}, err
	}

	budget := p.seconds
	if p.trace {
		budget /= 2
	}
	resetPeakRSS()
	var results []*structure.Result
	var secs []float64
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for len(secs) == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		res, err := structure.LearnCtx(ctx, data, cfg)
		if err != nil {
			return run{}, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		results = append(results, res)
	}
	rss := peakRSSMB()
	untraced := median(secs)
	fmt.Printf("learns: %d, median %.4fs, first result: %d edges, %d CI tests\n",
		len(secs), untraced, results[0].Graph.NumEdges(), results[0].CITests)

	if p.trace {
		m["client.learn_s"] = untraced
		m["dataset.parse_s"] = median(parse)
		if err := traceLearn(ctx, data, cfg, tr, untraced, time.Duration(budget*float64(time.Second)), m, &results); err != nil {
			return run{}, err
		}
		if err := writeSpans(traceFile(p, "learn"), tr.snapshot()); err != nil {
			return run{}, err
		}
	} else {
		var sum float64
		for _, s := range secs {
			sum += s
		}
		m["setup_s"] = median(parse)
		m["latency_ms"] = untraced * 1000
		m["capacity_per_s"] = float64(len(secs)) / sum
		m["peak_rss_mb"] = rss
	}

	// Oracle, off the clock: the serial P=1 learner on the same data.
	ref := cfg
	ref.P = 1
	ref.BuildOptions.P = 1
	ref.BuildOptions.Obs = nil
	want, err := structure.LearnCtx(ctx, data, ref)
	if err != nil {
		return run{}, err
	}
	correct := true
	for i, got := range results {
		if err := sameLearn(got, want); err != nil {
			fmt.Printf("ORACLE FAIL: learn %d: %v\n", i, err)
			correct = false
		}
	}
	if p.trace {
		if u := m["trace.unattributed_share"]; math.Abs(u) > attributionTolerance {
			fmt.Printf("ATTRIBUTION FAIL: layer self-times miss the untraced learn time by %.1f%% (tolerance %.0f%%)\n",
				100*u, 100*attributionTolerance)
			correct = false
		}
	}
	fmt.Printf("oracle: %d learns match the serial P=1 learner: %v\n", len(results), correct)
	return run{correct: correct, attempted: len(results), metrics: m}, nil
}

// traceLearn runs the learn pipeline call by call under spans for the given
// budget (at least once), then the all-pairs MI and block-encode probes,
// and fills the per-layer metrics. Traced results join *results so the
// oracle checks them too.
func traceLearn(ctx context.Context, data *dataset.Dataset, cfg structure.Config, tr *tracer,
	untraced float64, budget time.Duration, m map[string]float64, results *[]*structure.Result) error {
	reg := obs.NewRegistry()
	cfg.BuildOptions.Obs = reg
	var (
		build, stage1, barrier, stage2, foreign, queueWords []float64
		freeze, entries, draft, thicken, thin, ciTests      []float64
		roots, layers                                       []float64
		pt                                                  *core.PotentialTable
	)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	deadline := time.Now().Add(budget)
	for len(roots) == 0 || time.Now().Before(deadline) {
		root := tr.begin("learn", -1, 0)
		b := tr.begin("core.build", root, 0)
		t := time.Now()
		tbl, st, err := core.BuildCtx(ctx, data, cfg.BuildOptions)
		tr.end(b)
		if err != nil {
			return err
		}
		t = addSeq(tr, b, t, "core.build.stage1", st.Stage1Time)
		t = addSeq(tr, b, t, "core.build.barrier", st.BarrierWait)
		addSeq(tr, b, t, "core.build.stage2", st.Stage2Time)

		f := tr.begin("core.freeze", root, 0)
		fst, err := tbl.FreezeCtx(ctx, cfg.P)
		tr.end(f)
		if err != nil {
			return err
		}
		l := tr.begin("structure.learn", root, 0)
		t = time.Now()
		res, err := structure.LearnFromTableCtx(ctx, tbl, cfg)
		tr.end(l)
		if err != nil {
			return err
		}
		t = addSeq(tr, l, t, "structure.draft", res.DraftTime)
		t = addSeq(tr, l, t, "structure.thicken", res.ThickenTime)
		addSeq(tr, l, t, "structure.thin", res.ThinTime)
		tr.end(root)
		*results = append(*results, res)
		pt = tbl

		// The layers' self-times add up to the root span less its own
		// self time (the gaps between the calls).
		spans := tr.snapshot()
		rootDur, rootSelf := spans[root].dur(), selfTimes(spans)[root]
		roots = append(roots, rootDur.Seconds())
		layers = append(layers, (rootDur - rootSelf).Seconds())
		build = append(build, spans[b].dur().Seconds())
		stage1 = append(stage1, st.Stage1Time.Seconds())
		barrier = append(barrier, st.BarrierWait.Seconds())
		stage2 = append(stage2, st.Stage2Time.Seconds())
		foreign = append(foreign, float64(st.ForeignKeys)/float64(st.LocalKeys+st.ForeignKeys))
		var maxWords uint64
		for _, w := range st.DestQueueWords {
			maxWords = max(maxWords, w)
		}
		queueWords = append(queueWords, float64(maxWords))
		freeze = append(freeze, spans[f].dur().Seconds())
		entries = append(entries, float64(fst.Entries))
		draft = append(draft, res.DraftTime.Seconds())
		thicken = append(thicken, res.ThickenTime.Seconds())
		thin = append(thin, res.ThinTime.Seconds())
		ciTests = append(ciTests, float64(res.CITests))
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	m["core.build_s"] = median(build)
	m["core.build_stage1_s"] = median(stage1)
	m["core.build_barrier_s"] = median(barrier)
	m["core.build_stage2_s"] = median(stage2)
	m["core.build_foreign_share"] = median(foreign)
	m["core.build_max_queue_words"] = median(queueWords)
	m["core.freeze_s"] = median(freeze)
	m["core.frozen_entries"] = median(entries)
	m["structure.draft_s"] = median(draft)
	m["structure.thicken_s"] = median(thicken)
	m["structure.thin_s"] = median(thin)
	m["structure.ci_tests"] = median(ciTests)
	m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["runtime.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(roots))
	m["trace.overhead"] = median(roots)/untraced - 1
	m["trace.unattributed_share"] = (untraced - median(layers)) / untraced

	// Kernel probe: the drafting sweep alone, with the learner's resolved
	// schedule. It runs inside structure.draft and is not added to the sum.
	passes0 := counterSum(reg.Snapshot(), "core_scan_passes_total")
	id := tr.begin("core.allpairs_mi", -1, 0)
	if _, err := pt.AllPairsMICtx(ctx, cfg.P, cfg.Schedule); err != nil {
		return err
	}
	tr.end(id)
	m["core.allpairs_mi_s"] = tr.snapshot()[id].dur().Seconds()
	m["core.allpairs_scan_passes"] = float64(counterSum(reg.Snapshot(), "core_scan_passes_total") - passes0)

	// Encode probe: the block key encode over every learn row.
	codec, err := data.Codec()
	if err != nil {
		return err
	}
	rows := make([][]uint8, data.NumSamples())
	for i := range rows {
		rows[i] = data.Row(i)
	}
	keys := make([]uint64, len(rows))
	var enc []float64
	for i := 0; i < setupReps; i++ {
		id := tr.begin("encoding.encode_rows", -1, 0)
		codec.EncodeRows(rows, keys)
		tr.end(id)
		enc = append(enc, tr.snapshot()[id].dur().Seconds())
	}
	m["encoding.encode_rows_s"] = median(enc)
	fmt.Printf("traced learns: %d, median %.4fs (untraced %.4fs)\n", len(roots), median(roots), untraced)
	return nil
}

// addSeq records a child span of length d starting at t and returns its end:
// the phase split a library result reports, laid end to end.
func addSeq(tr *tracer, parent int, t time.Time, name string, d time.Duration) time.Time {
	tr.add(name, parent, 0, t, t.Add(d))
	return t.Add(d)
}

// sameLearn checks bit-identical MI and an identical PDAG.
func sameLearn(got, want *structure.Result) error {
	if got.MI.NumPairs() != want.MI.NumPairs() {
		return fmt.Errorf("MI has %d pairs, want %d", got.MI.NumPairs(), want.MI.NumPairs())
	}
	var err error
	want.MI.ForEachPair(func(i, j int, v float64) {
		if g := got.MI.At(i, j); err == nil && math.Float64bits(g) != math.Float64bits(v) {
			err = fmt.Errorf("MI(%d,%d) = %v, want %v", i, j, g, v)
		}
	})
	if err != nil {
		return err
	}
	if g, w := fmt.Sprint(got.PDAG.DirectedEdges()), fmt.Sprint(want.PDAG.DirectedEdges()); g != w {
		return fmt.Errorf("directed edges %s, want %s", g, w)
	}
	if g, w := fmt.Sprint(got.PDAG.UndirectedEdges()), fmt.Sprint(want.PDAG.UndirectedEdges()); g != w {
		return fmt.Errorf("undirected edges %s, want %s", g, w)
	}
	return nil
}

// counterSum adds every labeled series of one counter family.
func counterSum(s obs.Snapshot, name string) uint64 {
	var total uint64
	for k, v := range s.Counters {
		if k == name || (len(k) > len(name) && k[:len(name)] == name && k[len(name)] == '{') {
			total += v
		}
	}
	return total
}
