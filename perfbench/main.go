// Command perfbench is the repository's benchmark: it drives the learn
// pipeline (CSV parse → build → freeze → all-pairs MI → thicken/thin) and an
// in-process bnserve under read-only and mixed traffic, with the
// configuration the CLIs resolve from their default flags, checks every
// output against a serial or batch oracle, and prints one JSON result line.
//
//	perfbench --workload learn|serve-read|serve-mixed --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics with no instrumentation; --trace 1
// enables the metrics registry and the benchmark's own spans and reports
// the per-layer metrics instead. Run it through run.sh, which builds it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every workload.
// latency_ms is the median LearnCtx call on learn, the mean closed-loop read
// on serve-read, and on serve-mixed the median time from an ingest ack until
// an epoch holding it is readable; capacity_per_s counts learns back to
// back, or closed-loop reads (on serve-mixed while the ingest stream keeps
// its rate). On learn and serve-read the two repeat one figure, so only
// serve-mixed gates a latency apart from throughput. Open-loop read
// percentiles are per-layer metrics: on a shared 2-CPU host they move with
// the host's wake-up latency by more than any usable bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"capacity_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every traced run reports, on every workload; a
// layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"client.learn_s", "s"},
	{"client.read_p50_ms", "ms"},
	{"client.read_p99_ms", "ms"},
	{"client.read_capacity_rps", "req/s"},
	{"client.write_p50_ms", "ms"},
	{"client.write_p99_ms", "ms"},
	{"client.visible_p99_ms", "ms"},
	{"client.error_share", "ratio"},
	{"dataset.parse_s", "s"},
	{"encoding.encode_rows_s", "s"},
	{"core.build_s", "s"},
	{"core.build_stage1_s", "s"},
	{"core.build_barrier_s", "s"},
	{"core.build_stage2_s", "s"},
	{"core.build_foreign_share", "ratio"},
	{"core.build_max_queue_words", "count"},
	{"core.freeze_s", "s"},
	{"core.frozen_entries", "count"},
	{"core.allpairs_mi_s", "s"},
	{"core.allpairs_scan_passes", "count"},
	{"core.marginal_scan_us_p50", "us"},
	{"core.marginal_scan_us_p99", "us"},
	{"core.margcache_hit_rate", "ratio"},
	{"core.scans_per_read", "ratio"},
	{"structure.draft_s", "s"},
	{"structure.thicken_s", "s"},
	{"structure.thin_s", "s"},
	{"structure.ci_tests", "count"},
	{"serve.handler_hit_us_p50", "us"},
	{"serve.handler_hit_us_p99", "us"},
	{"serve.handler_miss_us_p50", "us"},
	{"serve.transport_us_p50", "us"},
	{"serve.ingest_handler_us_p50", "us"},
	{"serve.ingest_handler_us_p99", "us"},
	{"serve.admission_rejected", "count"},
	{"serve.coalesce_batches", "count"},
	{"serve.coalesced_requests", "count"},
	{"serve.refresh_s_mean", "s"},
	{"serve.refresh_s_max", "s"},
	{"serve.refresh_drained_keys", "count"},
	{"serve.refresh_reused_partitions", "count"},
	{"serve.pending_rows_max", "count"},
	{"serve.recover_s", "s"},
	{"serve.recovered_rows", "count"},
	{"wal.append_us_p50", "us"},
	{"wal.append_us_p99", "us"},
	{"wal.sync_ms_p50", "ms"},
	{"wal.checkpoint_s", "s"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead", "ratio"},
	{"trace.unattributed_share", "ratio"},
}

// run is what a workload hands back: the oracle verdict, the operation
// counts, and the metric values by name.
type run struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
}

// params are the command-line inputs every workload receives.
type params struct {
	seed    uint64
	seconds float64
	trace   bool
	workdir string // scratch space inside the checkout
}

// workloads maps each workload name to its driver and its full-size scale.
var workloads = map[string]func(ctx context.Context, p params) (run, error){
	"learn":       func(ctx context.Context, p params) (run, error) { return runLearn(ctx, p, fullLearn) },
	"serve-read":  func(ctx context.Context, p params) (run, error) { return runServe(ctx, p, fullServe, false) },
	"serve-mixed": func(ctx context.Context, p params) (run, error) { return runServe(ctx, p, fullServe, true) },
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "", "learn | serve-read | serve-mixed")
		seed     = flag.Uint64("seed", 1, "input generation seed")
		seconds  = flag.Float64("seconds", 10, "measurement time per run")
		trace    = flag.Int("trace", 0, "1 = enable spans and the metrics registry and report per-layer metrics")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for WAL, checkpoints and traces")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		return fail(fmt.Errorf("unknown --workload %q (want learn, serve-read or serve-mixed)", *workload))
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("--seconds must be positive"))
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-seed%d-trace%d-pid%d", *workload, *seed, *trace, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	fmt.Println(hostStamp(dir))
	fmt.Printf("workload=%s seed=%d seconds=%v trace=%d\n", *workload, *seed, *seconds, *trace)

	p := params{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: dir}
	res, err := fn(context.Background(), p)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", *workload, err))
	}
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	out, err := report(res, defs, !p.trace)
	if err != nil {
		return fail(err)
	}
	fmt.Println(out)
	if !res.correct {
		return 1
	}
	return 0
}

// report prints one line per metric and returns the JSON result line. Every
// metric in defs must be finite; when strict, every one must have been
// measured (a traced run fills unexercised layers with 0).
func report(r run, defs []metricDef, strict bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && strict {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Printf("  %-34s %14.6g %s\n", d.name, v, d.unit)
	}
	var extra []string
	for name := range r.metrics {
		if _, ok := metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("  (info) %-27s %14.6g\n", name, r.metrics[name])
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	return string(b), err
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}
