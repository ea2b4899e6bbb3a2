// Command bnbench regenerates the paper's evaluation figures and the
// ablation studies from DESIGN.md.
//
// Usage:
//
//	bnbench -exp all                         # everything, scaled-down defaults
//	bnbench -exp fig3 -m 10000000 -maxP 32   # paper-scale Figure 3
//	bnbench -exp fig5 -schedule fused
//	bnbench -exp headline -csv out.csv
//
// Experiments: fig3, fig4, fig5, headline, ablation-queue,
// ablation-partition, ablation-mischedule, ablation-table, all — plus
// `-exp build`, a single fully instrumented construction run that honors
// the shared construction flags (-p, -partition, -queue, -ring-cap,
// -table), prints the obs JSON snapshot, and serves Prometheus metrics
// when -metrics-addr is set:
//
//	bnbench -exp build -m 1000000 -p 8 -metrics-addr 127.0.0.1:9090 -metrics-linger 1m
//
// Each figure prints two panels — running time and speedup — mirroring the
// (a)/(b) layout of the paper's figures. -csv additionally writes long-form
// CSV for external plotting.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"waitfreebn/internal/bench"
	"waitfreebn/internal/bn"
	"waitfreebn/internal/cliopt"
	"waitfreebn/internal/core"
	"waitfreebn/internal/dataset"
	"waitfreebn/internal/obs"
	"waitfreebn/internal/structure"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: fig3|fig4|fig5|headline|counters|stages|accuracy|phases|scan|serve|recover|refreeze|skew|ablation-skew|ablation-queue|ablation-partition|ablation-mischedule|ablation-table|all")
		m        = flag.Int("m", 1000000, "samples for single-m experiments (paper: 10000000)")
		mList    = flag.String("mlist", "", "comma-separated m values for fig3 (default m/10, m, m*10 capped)")
		n        = flag.Int("n", 30, "variables for single-n experiments (paper: 30)")
		nList    = flag.String("nlist", "30,40,50", "comma-separated n values for fig4/fig5")
		r        = flag.Int("r", 2, "states per variable")
		maxP     = flag.Int("maxP", runtime.GOMAXPROCS(0), "largest worker count; sweep is 1,2,4,...,maxP")
		reps     = flag.Int("reps", 3, "timing repetitions (best-of; -exp scan records every sample)")
		seed     = flag.Uint64("seed", 42, "workload seed")
		schedule = flag.String("schedule", "fused", "fig5 MI schedule: partition|pair|fused")
		csvPath  = flag.String("csv", "", "also write long-form CSV to this file")
		accNet   = flag.String("net", "asia", "ground-truth network for -exp accuracy: asia|cancer|chain10|naivebayes10")
		waveSize = flag.Int("wavesize", 0, "speculation wave size for -exp phases (0 = learner default)")
		wbList   = flag.String("wblist", "1,64", "comma-separated write-batch sizes for the -exp build sweep (1 = every foreign key published alone)")
		srvDur   = flag.Duration("serve-dur", 0, "-exp serve: wall time per sweep cell (0 = 2s)")
		srvCl    = flag.String("clients", "1,4,16", "-exp serve: comma-separated closed-loop client counts")
		srvWf    = flag.String("wflist", "0,0.1", "-exp serve: comma-separated ingest-write fractions")
		srvSkew  = flag.String("skewlist", "0,1.2", "-exp serve: comma-separated Zipf skews for query-variable choice (0 = uniform)")
		ckptList = flag.String("ckptlist", "1,4,16,0", "-exp recover: comma-separated checkpoint-every cadences to sweep (0 = no checkpoints, pure WAL replay)")
		walFsync = flag.String("wal-fsync", "batch", "-exp recover: WAL fsync policy during the ingest phase (always|batch|never)")
		skews    = flag.String("skews", "0,0.8,1.2,2.0", "-exp skew: comma-separated key-rank Zipf exponents (0 = uniform)")
		count    = flag.Int("count", 3, "variance-aware experiments (-exp refreeze): timing samples per sweep cell, all recorded in the artifact")
		fracList = flag.String("fraclist", "0.01,0.05,0.1,0.5", "-exp refreeze: comma-separated ingest-delta fractions of m per refresh")
		coalList = flag.String("coalesce-list", "0,200us", "-exp serve: comma-separated read-coalescing windows to sweep (durations; 0 = off)")
		distinct = flag.Int("distinct-queries", 64, "-exp serve: size of the fixed read-query working set each sweep cell draws from")
		artDir   = flag.String("artifact-dir", "", "also write each JSON experiment's output to <dir>/BENCH_<exp>.json (empty = stdout only; the make bench-* targets pass '.')")
		cmpOld   = flag.String("compare", "", "compare mode: path to the baseline BENCH_*.json; skips all experiments")
		cmpNew   = flag.String("with", "", "compare mode: path to the candidate artifact (default: the baseline's basename in the current directory)")
		cmpGate  = flag.Float64("gate", 0, "compare mode: fail if any significant metric regresses by more than this percent (0 = report only)")
	)
	coreFl := cliopt.AddCore(flag.CommandLine)
	obsFl := cliopt.AddObs(flag.CommandLine)
	rtFl := cliopt.AddRuntime(flag.CommandLine)
	flag.Parse()

	if *cmpOld != "" {
		runCompare(*cmpOld, *cmpNew, *cmpGate)
		return
	}

	ctx, cleanup, err := rtFl.Context()
	if err != nil {
		fatal(err)
	}
	defer cleanup()

	if *exp == "build" {
		wbs, err := parseList(*wbList)
		if err != nil {
			fatal(fmt.Errorf("bad -wblist: %w", err))
		}
		runInstrumentedBuild(ctx, coreFl, obsFl, *m, *n, *r, *maxP, *reps, wbs, *seed, *artDir)
		return
	}
	if *exp == "phases" {
		runPhases(ctx, *m, *n, *r, *maxP, *reps, *waveSize, *seed, *artDir)
		return
	}
	if *exp == "scan" {
		runScan(ctx, *m, *n, *r, *maxP, *reps, *seed, *artDir)
		return
	}
	if *exp == "skew" {
		sk, err := parseFloats(*skews)
		if err != nil {
			fatal(fmt.Errorf("bad -skews: %w", err))
		}
		out, err := bench.RunSkew(ctx, bench.SkewParams{
			M: *m, N: *n, R: *r, Seed: *seed, Reps: *reps,
			Ps: bench.DefaultPs(*maxP), Skews: sk, HotThreshold: coreFl.HotThreshold,
		})
		if err != nil {
			fatal(err)
		}
		out.Flags = setFlags()
		if err := bench.EmitJSON("skew", *artDir, out); err != nil {
			fatal(err)
		}
		if !out.Gate.Pass {
			fatal(fmt.Errorf("skew: acceptance gate failed: best speedup %.2fx, best queue-word collapse %.2fx (need >= 1.3x on either at skew >= 1.2, P >= 2)",
				out.Gate.BestSpeedup, out.Gate.BestCollapse))
		}
		return
	}
	if *exp == "serve" {
		clients, err := parseList(*srvCl)
		if err != nil {
			fatal(fmt.Errorf("bad -clients: %w", err))
		}
		wfs, err := parseFloats(*srvWf)
		if err != nil {
			fatal(fmt.Errorf("bad -wflist: %w", err))
		}
		skews, err := parseFloats(*srvSkew)
		if err != nil {
			fatal(fmt.Errorf("bad -skewlist: %w", err))
		}
		windows, err := parseDurations(*coalList)
		if err != nil {
			fatal(fmt.Errorf("bad -coalesce-list: %w", err))
		}
		out, err := bench.RunServe(ctx, bench.ServeParams{
			M: *m, N: *n, R: *r, Seed: *seed,
			Duration: *srvDur, Clients: clients, WriteFracs: wfs, Skews: skews,
			Windows: windows, DistinctQueries: *distinct,
		})
		if err != nil {
			fatal(err)
		}
		if !out.BitIdentical {
			fatal(fmt.Errorf("serve: final epoch is NOT bit-identical to the batch build"))
		}
		out.Flags = setFlags()
		if err := bench.EmitJSON("serve", *artDir, out); err != nil {
			fatal(err)
		}
		if out.Gate != nil && !out.Gate.Pass {
			fatal(fmt.Errorf("serve: coalescing gate failed at %d clients: throughput %.2fx, scan reduction %.2fx, identical=%v (need bit-identical responses and >= 2x throughput or >= 4x scan reduction)",
				out.Gate.Clients, out.Gate.ThroughputX, out.Gate.ScanReductionX, out.Gate.ResponsesIdentical))
		}
		return
	}

	if *exp == "refreeze" {
		fracs, err := parseFloats(*fracList)
		if err != nil {
			fatal(fmt.Errorf("bad -fraclist: %w", err))
		}
		out, err := bench.RunRefreeze(ctx, bench.RefreezeParams{
			M: *m, N: *n, R: *r, Seed: *seed, Count: *count,
			Ps: bench.DefaultPs(*maxP), Fracs: fracs,
		})
		if err != nil {
			fatal(err)
		}
		out.Flags = setFlags()
		if err := bench.EmitJSON("refreeze", *artDir, out); err != nil {
			fatal(err)
		}
		if !out.Gate.Pass {
			fatal(fmt.Errorf("refreeze: acceptance gate failed: best drained+sorted-key reduction %.2fx at delta fraction <= 10%% (need >= 2x)",
				out.Gate.BestKeyReduction))
		}
		return
	}

	if *exp == "recover" {
		everies, err := parseCadences(*ckptList)
		if err != nil {
			fatal(fmt.Errorf("bad -ckptlist: %w", err))
		}
		out, err := bench.RunRecover(ctx, bench.RecoverParams{
			M: *m, N: *n, R: *r, Seed: *seed, Fsync: *walFsync, Everies: everies,
		})
		if err != nil {
			fatal(err)
		}
		out.Flags = setFlags()
		if err := bench.EmitJSON("recover", *artDir, out); err != nil {
			fatal(err)
		}
		return
	}

	pr := bench.Params{Seed: *seed, Reps: *reps, Ps: bench.DefaultPs(*maxP)}
	sched, err := parseSchedule(*schedule)
	if err != nil {
		fatal(err)
	}

	ms, err := parseList(*mList)
	if err != nil {
		fatal(fmt.Errorf("bad -mlist: %w", err))
	}
	if len(ms) == 0 {
		ms = []int{*m / 10, *m}
	}
	ns, err := parseList(*nList)
	if err != nil {
		fatal(fmt.Errorf("bad -nlist: %w", err))
	}

	var tables []*bench.Table
	run := func(name string, f func() *bench.Table) {
		if *exp == name || *exp == "all" {
			// The bench harness has no internal cancellation points; honor a
			// deadline or Ctrl-C between experiments so -exp all stays
			// interruptible at figure granularity.
			if err := ctx.Err(); err != nil {
				fatal(context.Cause(ctx))
			}
			fmt.Fprintf(os.Stderr, "running %s...\n", name)
			tables = append(tables, f())
		}
	}
	run("fig3", func() *bench.Table { return bench.Fig3(ms, *n, *r, pr) })
	run("fig4", func() *bench.Table { return bench.Fig4(*m, ns, *r, pr) })
	run("fig5", func() *bench.Table { return bench.Fig5(*m, ns, *r, sched, pr) })
	run("headline", func() *bench.Table { return bench.Headline(*m, *n, *r, pr) })
	run("ablation-queue", func() *bench.Table { return bench.AblationQueue(*m, *n, *r, pr) })
	run("ablation-partition", func() *bench.Table { return bench.AblationPartition(*m, *n, *r, pr) })
	run("ablation-mischedule", func() *bench.Table { return bench.AblationMISchedule(*m, min(*n, 16), *r, pr) })
	run("ablation-table", func() *bench.Table { return bench.AblationTable(*m, *n, *r, pr) })
	run("counters", func() *bench.Table { return bench.CountersTable(*m, *n, *r, pr) })
	run("stages", func() *bench.Table { return bench.StagesTable(*m, *n, *r, pr) })
	run("ablation-skew", func() *bench.Table { return bench.AblationSkew(*m, *n, max(*r, 3), 1.5, pr) })

	if *exp == "accuracy" || *exp == "all" {
		fmt.Fprintln(os.Stderr, "running accuracy...")
		ms := []int{*m / 100, *m / 10, *m}
		out, err := bench.Accuracy(*accNet, ms, *seed, 4)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}

	if len(tables) == 0 && *exp != "accuracy" {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	for _, t := range tables {
		if strings.HasPrefix(t.Title, "Counters:") {
			// Counter tables carry no timings; emit CSV-style rows instead
			// of the two timing panels.
			fmt.Printf("== %s ==\n", t.Title)
			if err := t.WriteCSV(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
			continue
		}
		if err := bench.WriteBoth(os.Stdout, t); err != nil {
			fatal(err)
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		for _, t := range tables {
			if _, err := fmt.Fprintf(f, "# %s\n", t.Title); err != nil {
				fatal(err)
			}
			if err := t.WriteCSV(f); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
}

// runInstrumentedBuild sweeps the wait-free construction over P ×
// write-batch on a synthetic uniform dataset, with full observability and a
// built-in bit-identity assertion: every configuration's table must equal
// the sequential oracle (core.BuildSequential), so the bench doubles as an
// equivalence check across P and write-batch. Timed rows plus the
// obs snapshot of the final run go to stdout as JSON; -metrics-addr serves
// the same data as Prometheus text for as long as -metrics-linger allows.
func runInstrumentedBuild(ctx context.Context, coreFl *cliopt.Core, obsFl *cliopt.Obs, m, n, r, maxP, reps int, wbs []int, seed uint64, artDir string) {
	baseOpts, err := coreFl.Options()
	if err != nil {
		fatal(err)
	}
	reg, stopObs, err := obsFl.Start()
	if err != nil {
		fatal(err)
	}
	if reg == nil {
		// -exp build exists to look inside a run; record metrics even
		// without a listener so the JSON snapshot is populated.
		reg = obs.NewRegistry()
	}

	data := dataset.NewUniformCard(m, n, r)
	data.UniformIndependent(seed, runtime.GOMAXPROCS(0))

	ps := bench.DefaultPs(maxP)
	if coreFl.P > 0 {
		ps = []int{coreFl.P}
	}
	type row struct {
		P          int        `json:"p"`
		WriteBatch int        `json:"write_batch"`
		Seconds    float64    `json:"seconds"`
		Speedup    float64    `json:"speedup"`
		Stats      core.Stats `json:"stats"`
	}
	out := struct {
		Experiment string       `json:"experiment"`
		Flags      string       `json:"flags"`
		M          int          `json:"m"`
		N          int          `json:"n"`
		R          int          `json:"r"`
		Rows       []row        `json:"rows"`
		Obs        obs.Snapshot `json:"obs"`
	}{Experiment: "build", Flags: setFlags(), M: m, N: n, R: r}

	ref, err := core.BuildSequential(data)
	if err != nil {
		fatal(err)
	}
	// One untimed build of the first configuration, without metrics, so
	// that the first timed row, the speedup denominator, does not also pay
	// for a cold heap and cold caches.
	warm := baseOpts
	warm.P, warm.WriteBatch = ps[0], wbs[0]
	if _, _, err := core.BuildCtx(ctx, data, warm); err != nil {
		fatal(err)
	}
	var baseSec float64 // first configuration's time, the speedup denominator
	for _, p := range ps {
		for _, wb := range wbs {
			if err := ctx.Err(); err != nil {
				fatal(context.Cause(ctx))
			}
			opts := baseOpts
			opts.P = p
			opts.WriteBatch = wb
			opts.Obs = reg
			var pt *core.PotentialTable
			var st core.Stats
			sec := bench.TimeBest(reps, func() {
				var err error
				pt, st, err = core.BuildCtx(ctx, data, opts)
				if err != nil {
					fatal(err)
				}
			})
			if !pt.Equal(ref) {
				fatal(fmt.Errorf("build: P=%d write-batch=%d table differs from the sequential build", p, wb))
			}
			if baseSec == 0 {
				baseSec = sec
			}
			out.Rows = append(out.Rows, row{P: p, WriteBatch: wb, Seconds: sec, Speedup: baseSec / sec, Stats: st})
			fmt.Fprintf(os.Stderr, "build: P=%d wb=%d %.3fs (%.2fx) distinct=%d\n", p, wb, sec, baseSec/sec, st.DistinctKeys)
		}
	}
	out.Obs = reg.Snapshot()
	if err := bench.EmitJSON("build", artDir, out); err != nil {
		fatal(err)
	}
	stopObs()
}

// runPhases benchmarks the three learner phases separately on a wide
// random network — the workload where the CI search of phases 2-3, not the
// table build, dominates — comparing the serial learner against the
// speculative wavefront across the worker sweep. Output is one JSON
// document (long-form rows) for external plotting; the run aborts if any
// configuration disagrees on the learned skeleton, so the bench doubles as
// an end-to-end equivalence check.
func runPhases(ctx context.Context, m, n, r, maxP, reps, waveSize int, seed uint64, artDir string) {
	net := bn.RandomDAG(n, r, 0.15, 3, 0.6, seed)
	d, err := net.Sample(m, seed+1, runtime.GOMAXPROCS(0))
	if err != nil {
		fatal(err)
	}
	pt, _, err := core.BuildCtx(ctx, d, core.Options{P: maxP})
	if err != nil {
		fatal(err)
	}
	type row struct {
		Mode          string  `json:"mode"`
		P             int     `json:"p"`
		DraftS        float64 `json:"draft_s"`
		ThickenS      float64 `json:"thicken_s"`
		ThinS         float64 `json:"thin_s"`
		Edges         int     `json:"edges"`
		CITests       int     `json:"ci_tests"`
		Waves         int     `json:"waves,omitempty"`
		Requeued      int     `json:"requeued,omitempty"`
		WastedCITests int     `json:"wasted_ci_tests,omitempty"`
		CacheHitRate  float64 `json:"cache_hit_rate,omitempty"`
	}
	out := struct {
		Experiment string `json:"experiment"`
		Flags      string `json:"flags"`
		N          int    `json:"n"`
		R          int    `json:"r"`
		M          int    `json:"m"`
		TruthEdges int    `json:"truth_edges"`
		Rows       []row  `json:"rows"`
	}{Experiment: "phases", Flags: setFlags(), N: n, R: r, M: m, TruthEdges: net.DAG().NumEdges()}

	refEdges, refCI := -1, -1
	for _, mode := range []string{"serial", "wavefront"} {
		for _, p := range bench.DefaultPs(maxP) {
			cfg := structure.Config{P: p, Epsilon: 0.003, PhasePar: mode == "wavefront", WaveSize: waveSize}
			var best *structure.Result
			for rep := 0; rep < reps; rep++ {
				res, err := structure.LearnFromTableCtx(ctx, pt, cfg)
				if err != nil {
					fatal(err)
				}
				if best == nil || res.ThickenTime+res.ThinTime < best.ThickenTime+best.ThinTime {
					best = res
				}
			}
			if refEdges < 0 {
				refEdges, refCI = best.Graph.NumEdges(), best.CITests
			} else if best.Graph.NumEdges() != refEdges || best.CITests != refCI {
				fatal(fmt.Errorf("phases: %s P=%d learned %d edges / %d CI tests, want %d / %d",
					mode, p, best.Graph.NumEdges(), best.CITests, refEdges, refCI))
			}
			out.Rows = append(out.Rows, row{
				Mode:          mode,
				P:             p,
				DraftS:        best.DraftTime.Seconds(),
				ThickenS:      best.ThickenTime.Seconds(),
				ThinS:         best.ThinTime.Seconds(),
				Edges:         best.Graph.NumEdges(),
				CITests:       best.CITests,
				Waves:         best.Waves,
				Requeued:      best.Requeued,
				WastedCITests: best.WastedCITests,
				CacheHitRate:  best.Cache.HitRate(),
			})
			fmt.Fprintf(os.Stderr, "phases: %s P=%d thicken %.3fs thin %.3fs\n",
				mode, p, best.ThickenTime.Seconds(), best.ThinTime.Seconds())
		}
	}
	if err := bench.EmitJSON("phases", artDir, out); err != nil {
		fatal(err)
	}
}

// runScan benchmarks the read path live-vs-frozen: fused all-pairs MI and a
// fused multi-marginal batch are timed against the same table before and
// after Freeze, across the worker sweep. The run asserts that the MI matrix
// and every marginal are bit-identical between the two paths, so the bench
// doubles as the frozen-layout equivalence check.
func runScan(ctx context.Context, m, n, r, maxP, reps int, seed uint64, artDir string) {
	data := dataset.NewUniformCard(m, n, r)
	data.UniformIndependent(seed, runtime.GOMAXPROCS(0))
	pt, st, err := core.BuildCtx(ctx, data, core.Options{P: maxP})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "scan: built %d samples, %d distinct keys\n", m, st.DistinctKeys)

	// A batch of disjoint variable triples for the fused multi-marginal
	// kernel, the shape the wavefront's rendezvous scans produce.
	var varsets [][]int
	for i := 0; i+2 < n; i += 3 {
		varsets = append(varsets, []int{i, i + 1, i + 2})
	}

	type row struct {
		Path     string       `json:"path"`
		P        int          `json:"p"`
		FusedMIS bench.Timing `json:"fused_mi_s"`
		MargS    bench.Timing `json:"marg_many_s"`
	}
	out := struct {
		Experiment    string  `json:"experiment"`
		Flags         string  `json:"flags"`
		M             int     `json:"m"`
		N             int     `json:"n"`
		R             int     `json:"r"`
		DistinctKeys  int     `json:"distinct_keys"`
		FreezeSeconds float64 `json:"freeze_s"`
		FrozenEntries int     `json:"frozen_entries"`
		Rows          []row   `json:"rows"`
	}{Experiment: "scan", Flags: setFlags(), M: m, N: n, R: r, DistinctKeys: st.DistinctKeys}

	var refMI *core.MIMatrix
	var refMarg []*core.Marginal
	for _, path := range []string{"live", "frozen"} {
		if path == "frozen" {
			fst, err := pt.FreezeCtx(ctx, maxP)
			if err != nil {
				fatal(err)
			}
			out.FreezeSeconds = fst.Duration.Seconds()
			out.FrozenEntries = fst.Entries
			fmt.Fprintf(os.Stderr, "scan: froze %d entries in %.3fs\n", fst.Entries, fst.Duration.Seconds())
		}
		for _, p := range bench.DefaultPs(maxP) {
			if err := ctx.Err(); err != nil {
				fatal(context.Cause(ctx))
			}
			var mi *core.MIMatrix
			miSec := bench.TimeSamples(reps, func() {
				var err error
				mi, err = pt.AllPairsMICtx(ctx, p, core.MIFused)
				if err != nil {
					fatal(err)
				}
			})
			var marg []*core.Marginal
			margSec := bench.TimeSamples(reps, func() {
				var err error
				marg, err = pt.MarginalizeManyCtx(ctx, varsets, p)
				if err != nil {
					fatal(err)
				}
			})
			if refMI == nil {
				refMI, refMarg = mi, marg
			} else {
				refMI.ForEachPair(func(i, j int, v float64) {
					if got := mi.At(i, j); got != v {
						fatal(fmt.Errorf("scan: %s P=%d MI(%d,%d) = %v, want %v — live/frozen mismatch", path, p, i, j, got, v))
					}
				})
				for k := range refMarg {
					for c := range refMarg[k].Counts {
						if marg[k].Counts[c] != refMarg[k].Counts[c] {
							fatal(fmt.Errorf("scan: %s P=%d marginal %v cell %d = %d, want %d — live/frozen mismatch",
								path, p, varsets[k], c, marg[k].Counts[c], refMarg[k].Counts[c]))
						}
					}
				}
			}
			out.Rows = append(out.Rows, row{Path: path, P: p, FusedMIS: miSec, MargS: margSec})
			fmt.Fprintf(os.Stderr, "scan: %s P=%d fused-mi %.3fs marg-many %.3fs (mean of %d)\n", path, p, miSec.Mean, margSec.Mean, reps)
		}
	}
	if err := bench.EmitJSON("scan", artDir, out); err != nil {
		fatal(err)
	}
}

// setFlags renders the flags explicitly set on this invocation, in
// flag.Visit's lexicographic order, minus output plumbing (-artifact-dir,
// -csv). Experiments embed it in their artifact so the root guard test can
// detect a committed BENCH_*.json that has gone stale relative to its make
// target's canonical invocation (bench.CanonicalFlags).
func setFlags() string {
	var parts []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "artifact-dir" || f.Name == "csv" {
			return
		}
		parts = append(parts, "-"+f.Name+" "+f.Value.String())
	})
	return strings.Join(parts, " ")
}

func parseSchedule(s string) (core.MISchedule, error) {
	switch s {
	case "partition", "partition-parallel":
		return core.MIPartitionParallel, nil
	case "pair", "pair-parallel":
		return core.MIPairParallel, nil
	case "pair-dynamic":
		return core.MIPairDynamic, nil
	case "fused":
		return core.MIFused, nil
	default:
		return 0, fmt.Errorf("unknown schedule %q", s)
	}
}

// parseCadences is parseList but admits 0, which -exp recover uses to mean
// "checkpoints disabled".
func parseCadences(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, fmt.Errorf("negative cadence %d", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("non-positive value %d", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// runCompare is the `bnbench -compare old.json [-with new.json] [-gate pct]`
// entry point: a variance-aware diff of two benchmark artifacts. With -with
// unset it diffs the baseline against its committed namesake in the current
// directory, which is the post-regeneration workflow: stash the old artifact,
// run `make bench-<exp>`, then compare.
func runCompare(oldPath, newPath string, gatePct float64) {
	if newPath == "" {
		newPath = filepath.Base(oldPath)
		if abs, err := filepath.Abs(newPath); err == nil {
			if oldAbs, err2 := filepath.Abs(oldPath); err2 == nil && abs == oldAbs {
				fatal(fmt.Errorf("compare: -with not given and baseline %s already is ./%s; pass -with explicitly", oldPath, newPath))
			}
		}
	}
	c, err := bench.CompareFiles(oldPath, newPath, gatePct)
	if err != nil {
		fatal(err)
	}
	if err := c.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
	if len(c.Regressions) > 0 {
		fatal(fmt.Errorf("compare: %d metric(s) regressed beyond the %.1f%% gate", len(c.Regressions), gatePct))
	}
}

// parseDurations parses a comma-separated list of Go durations; a bare "0"
// is accepted as zero (coalescing off).
func parseDurations(s string) ([]time.Duration, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []time.Duration
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "0" {
			out = append(out, 0)
			continue
		}
		d, err := time.ParseDuration(part)
		if err != nil {
			return nil, err
		}
		if d < 0 {
			return nil, fmt.Errorf("negative window %s", d)
		}
		out = append(out, d)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, fmt.Errorf("negative value %g", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bnbench:", err)
	os.Exit(1)
}
