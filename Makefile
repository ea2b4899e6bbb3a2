GO ?= go

# Extra seeds for the chaos sweep, e.g. `make chaos CHAOS_SEEDS=11,12,13`.
CHAOS_SEEDS ?=

.PHONY: all build vet test race check chaos chaos-serve serve-smoke alloc-check compare-smoke bench-obs bench-phases bench-scan bench-build bench-serve bench-recover bench-skew bench-refreeze bench-artifacts bench-compare clean

all: check

build:
	$(GO) build ./...

# vet also vets perfbench, a separate module outside ./..., so removing an
# identifier it reads fails here and not only in the benchmark; and it fails
# when gofmt would rewrite any file.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi

# The suite must pass at any GOMAXPROCS; run it serial and at two procs.
# -count 1 because the test cache does not key on GOMAXPROCS.
test:
	GOMAXPROCS=1 $(GO) test -count 1 ./...
	GOMAXPROCS=2 $(GO) test -count 1 ./...

# Race-check the concurrency core: the wait-free construction, the SPSC
# queues it routes foreign keys through, and the phase-2/3 wavefront
# scheduler (including the serial-vs-parallel bit-identity tests and the
# CI-search differential against the scan-per-varset reference). Serial
# and at two procs, like test.
race:
	GOMAXPROCS=1 $(GO) test -race -count 1 ./internal/core/... ./internal/spsc/... ./internal/serve/...
	GOMAXPROCS=1 $(GO) test -race -count 1 -run 'Wavefront|FlattenedLayout|CISearchMatchesScanReference' ./internal/structure/
	GOMAXPROCS=2 $(GO) test -race -count 1 ./internal/core/... ./internal/spsc/... ./internal/serve/...
	GOMAXPROCS=2 $(GO) test -race -count 1 -run 'Wavefront|FlattenedLayout|CISearchMatchesScanReference' ./internal/structure/

# chaos runs the fault-tolerance suite under the race detector: the
# deterministic fault-injection engine, the chaos tests that inject panics,
# stalls, queue failures and table-grow pressure into real builds, and the
# cancellation/abort/leak tests for the scheduler and queues. CHAOS_SEEDS
# extends the seed sweep (comma-separated uint64s).
chaos:
	$(GO) test -race ./internal/faultinject/
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -run 'Chaos|Cancel|Abort|RunCtx|Spillover|Leak' ./internal/core/ ./internal/sched/ ./internal/spsc/

# chaos-serve runs the durability chaos suite under the race detector: the
# WAL unit + fuzz corpus (torn tails, bit flips), the checkpoint store, and
# the crash-restart sweep that kills the serving manager at every point
# (acked-unbuilt, mid-build, mid-freeze, mid-incremental-refreeze,
# post-publish, checkpoint failure) across both re-freeze modes and seeds,
# proving the recovered table bit-identical to a batch build over every
# acked row.
chaos-serve:
	$(GO) test -race ./internal/wal/
	$(GO) test -race -run 'Chaos|Recover|Rollback|Durab|Ready|Freeze|WAL|Checkpoint|Drain' ./internal/serve/

# serve-smoke runs the closed-loop serving benchmark at smoke scale:
# queries hammer the daemon while the epoch manager republishes, and the
# run fails unless the final epoch is bit-identical to a batch build over
# every acknowledged row.
serve-smoke:
	$(GO) run ./cmd/bnbench -exp serve -m 20000 -n 8 -r 3 -serve-dur 300ms -clients 1,4 -wflist 0.1 -skewlist 0 > /dev/null

# alloc-check runs the AllocsPerRun gates: after warmup, a cache-hit
# /v1/marginal or /v1/epoch request must perform ZERO heap allocations
# (parse, admission, snapshot pin, cache lookup, envelope encode), and the
# hand-rolled float encoder must match encoding/json byte for byte.
alloc-check:
	$(GO) test -run 'TestAllocFree|TestJSONFloatParity|TestFastPathMatchesSlowPathBytes' -count 1 ./internal/serve/

# compare-smoke exercises the variance-aware artifact comparator end to
# end: the committed serving artifact diffed against itself must show zero
# regressions at any gate.
compare-smoke:
	$(GO) run ./cmd/bnbench -compare BENCH_serve.json -with BENCH_serve.json -gate 1 > /dev/null

# check is the gate every change must pass (see README "Development").
check: vet build test race chaos chaos-serve serve-smoke alloc-check compare-smoke

# bench-obs measures the observability overhead: BenchmarkBuildObsDisabled
# (Options.Obs == nil, the default) vs BenchmarkBuildObsEnabled. The
# disabled numbers must stay within noise of enabled-minus-recording —
# the acceptance bar is <= 5% construction-throughput overhead when off.
bench-obs:
	$(GO) test ./internal/core -run '^$$' -bench 'BuildObs' -benchtime 5x -count 3

# Every bench-* target below regenerates its committed BENCH_<exp>.json
# artifact via -artifact-dir. The flag strings must match
# internal/bench.CanonicalFlags exactly (the root artifact guard test
# compares the committed artifacts' embedded "flags" against that registry,
# so a stale artifact — or a Makefile edit without a regeneration — fails
# `go test ./...`).

# bench-phases times the three learner phases, serial vs the speculative
# wavefront, across the worker sweep 1,2,4,…,maxP, and emits one JSON
# document of per-phase timings. The run itself asserts that every
# configuration learns the identical skeleton with the identical CI-test
# count, so it doubles as an end-to-end equivalence check. The acceptance
# bar: thicken+thin improves with P and does not regress at P=1.
bench-phases:
	$(GO) run ./cmd/bnbench -exp phases -m 200000 -n 40 -r 2 -reps 3 -maxP 8 -artifact-dir .

# bench-scan times the read path live-vs-frozen: fused all-pairs MI and a
# fused multi-marginal batch over the same table before and after Freeze,
# across the worker sweep, with a built-in bit-identity check between the
# two paths. The acceptance bar: frozen fused MI >= 1.5x live at P=1 and
# >2x frozen self-speedup at 8 cores.
bench-scan:
	$(GO) run ./cmd/bnbench -exp scan -m 1000000 -n 30 -r 2 -reps 3 -maxP 8 -artifact-dir .

# bench-build times construction across the P × write-batch sweep (1 =
# every foreign key published alone, 64 = the default write-combining
# buffer), with a built-in bit-identity assertion between every
# configuration and the sequential oracle (core.BuildSequential).
bench-build:
	$(GO) run ./cmd/bnbench -exp build -m 1000000 -n 30 -r 2 -reps 3 -maxP 8 -artifact-dir .

# bench-serve regenerates BENCH_serve.json: the full concurrency ×
# read/write mix × key-skew × coalescing-window sweep against an in-process
# bnserve, with the bit-identity audit, per-partition occupancy imbalance,
# server-side histogram scrape, and the read-coalescing acceptance gate
# (cache off, >= 8 clients: byte-identical responses and >= 2x throughput
# or >= 4x fewer fused scan passes per read vs window 0).
bench-serve:
	$(GO) run ./cmd/bnbench -exp serve -m 200000 -n 12 -r 3 -coalesce-list 0,200us -distinct-queries 64 -artifact-dir .

# bench-compare diffs two benchmark artifacts benchstat-style, pairing
# Timing objects (mean ± sample spread, range-overlap significance) and
# unit-suffixed scalars, and fails on significant regressions beyond GATE%:
#   make bench-compare OLD=/tmp/before.json NEW=BENCH_serve.json GATE=10
OLD ?= /tmp/BENCH_serve.json
NEW ?= BENCH_serve.json
GATE ?= 10
bench-compare:
	$(GO) run ./cmd/bnbench -compare $(OLD) -with $(NEW) -gate $(GATE)

# bench-recover regenerates BENCH_recover.json: crash-recovery time across
# the checkpoint-cadence sweep (1 = checkpoint every epoch … 0 = pure WAL
# replay), each cell with a built-in bit-identity assertion against the
# batch build. The acceptance bar: every cell recovers bit-identically, and
# the replayed tail shrinks with cadence. Wall-clock recovery is dominated
# by the shared freeze+publish of the first epoch at this scale, so the
# cells stay within a few ms of each other; the checkpoint's wall-clock win
# appears once the row history is many multiples of the distinct-key count
# (see EXPERIMENTS.md).
bench-recover:
	$(GO) run ./cmd/bnbench -exp recover -m 200000 -n 12 -r 3 -artifact-dir .

# bench-skew regenerates BENCH_skew.json: wait-free construction over
# key-rank-Zipf data across skew {0, 0.8, 1.2, 2.0} × P × hot-split on/off,
# every cell bit-identity-asserted against the sequential oracle. The run
# fails unless hot-split beats non-split by >= 1.3x at skew >= 1.2 in wall
# clock or — the 1-CPU proxy — collapses hot-partition queue words by
# >= 1.3x (see EXPERIMENTS.md for why the proxy is the observable here).
bench-skew:
	$(GO) run ./cmd/bnbench -exp skew -m 400000 -n 12 -r 3 -maxP 8 -reps 3 -artifact-dir .

# bench-refreeze regenerates BENCH_refreeze.json: per-refresh freeze cost,
# incremental vs full, across P × ingest-delta fraction, each cycle
# bit-identity-audited (Equal + serialized CRC) against the full-mode
# builder over the identical rows. Timings are variance-aware (-count
# samples per cell, all recorded). The run fails unless some cell at delta
# fraction <= 10% cuts drained+sorted keys per refresh by >= 2x — the
# machine-independent form of the freeze-time win (see EXPERIMENTS.md).
bench-refreeze:
	$(GO) run ./cmd/bnbench -exp refreeze -m 300000 -n 12 -r 3 -maxP 4 -count 3 -artifact-dir .

# bench-artifacts regenerates every committed BENCH_*.json in one pass.
bench-artifacts: bench-build bench-phases bench-scan bench-serve bench-recover bench-skew bench-refreeze

clean:
	$(GO) clean ./...
