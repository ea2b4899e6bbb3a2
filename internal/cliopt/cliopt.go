// Package cliopt defines the flag surface the CLIs share, so bnlearn,
// bntable, bnbench, and bninfer register the construction options (-p,
// -partition, -queue, -ring-cap, -table) and the observability options
// (-metrics-addr, -pprof, -metrics-linger) exactly once, with identical
// names, defaults, and help text, each mapping directly onto core.Options
// and an obs.Registry. Before this package every cmd/*/main.go duplicated
// (and slightly diverged on) this surface by hand.
package cliopt

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"waitfreebn/internal/core"
	"waitfreebn/internal/faultinject"
	"waitfreebn/internal/obs"
	"waitfreebn/internal/spsc"
	"waitfreebn/internal/structure"
)

// Core holds the parsed values of the shared construction flags.
type Core struct {
	P            int
	NumParts     int
	Partition    string
	Queue        string
	RingCap      int
	Table        string
	TableHint    int
	WriteBatch   int
	HotSplit     bool
	HotThreshold int
}

// AddCore registers the shared construction flags on fs and returns the
// struct their values parse into.
func AddCore(fs *flag.FlagSet) *Core {
	c := &Core{}
	fs.IntVar(&c.P, "p", 0, "workers (0 = GOMAXPROCS)")
	fs.IntVar(&c.NumParts, "num-partitions", 0, "home partitions the key space splits into (0 = one per worker; set a multiple of -p to give the rebalancer granularity)")
	fs.StringVar(&c.Partition, "partition", "modulo", "key→partition mapping: modulo|range|hash")
	fs.StringVar(&c.Queue, "queue", "chunked", "inter-core queue: chunked|ring|mutex")
	fs.IntVar(&c.RingCap, "ring-cap", 0, "per-queue capacity for -queue ring (0 = size for a full worker block)")
	fs.StringVar(&c.Table, "table", "open", "per-partition count table: open|chained|gomap|dense")
	fs.IntVar(&c.TableHint, "table-hint", 0, "pre-size each partition table for this many entries (0 = heuristic)")
	fs.IntVar(&c.WriteBatch, "write-batch", 0, "write-combining buffer size for the batched write path (0 = default 64; 1 = legacy per-key path)")
	fs.BoolVar(&c.HotSplit, "hot-split", false, "promote hot keys (detected from write-combining flush statistics) to core-private delta counters merged at the build barrier, bypassing the SPSC queues")
	fs.IntVar(&c.HotThreshold, "hot-threshold", 0, "combined per-flush delta at which a key is promoted to the hot-split path (0 = default 8; needs -hot-split)")
	return c
}

// Options maps the parsed flags onto core.Options, rejecting unknown kind
// names with the valid alternatives in the error.
func (c *Core) Options() (core.Options, error) {
	opts := core.Options{
		P: c.P, NumPartitions: c.NumParts,
		RingCapacity: c.RingCap, TableHint: c.TableHint, WriteBatch: c.WriteBatch,
		HotSplit: c.HotSplit, HotThreshold: c.HotThreshold,
	}
	switch c.Partition {
	case "modulo", "":
		opts.Partition = core.PartitionModulo
	case "range":
		opts.Partition = core.PartitionRange
	case "hash":
		opts.Partition = core.PartitionHash
	default:
		return opts, fmt.Errorf("unknown -partition %q (want modulo|range|hash)", c.Partition)
	}
	switch c.Queue {
	case "chunked", "":
		opts.Queue = spsc.KindChunked
	case "ring":
		opts.Queue = spsc.KindRing
	case "mutex":
		opts.Queue = spsc.KindMutex
	default:
		return opts, fmt.Errorf("unknown -queue %q (want chunked|ring|mutex)", c.Queue)
	}
	switch c.Table {
	case "open", "open-addressing", "":
		opts.Table = core.TableOpenAddressing
	case "chained":
		opts.Table = core.TableChained
	case "gomap":
		opts.Table = core.TableGoMap
	case "dense":
		opts.Table = core.TableDense
	default:
		return opts, fmt.Errorf("unknown -table %q (want open|chained|gomap|dense)", c.Table)
	}
	return opts, nil
}

// Learn holds the parsed values of the shared structure-learner flags.
type Learn struct {
	PhasePar  bool
	MargCache int
	Freeze    bool
}

// AddLearn registers the shared learner flags on fs.
func AddLearn(fs *flag.FlagSet) *Learn {
	l := &Learn{}
	fs.BoolVar(&l.PhasePar, "phase-par", false, "parallelize the thicken/thin phases with the speculative wavefront scheduler (output stays bit-identical to the serial learner)")
	fs.IntVar(&l.MargCache, "marg-cache", 0, "marginal-cache budget in table cells, ≈8 bytes each (0 = default 65536 cells ≈ 512 KiB; negative = disabled)")
	fs.BoolVar(&l.Freeze, "freeze", true, "freeze the potential table into a columnar snapshot after construction so learner scans stream dense sorted memory (-freeze=false scans the live hashtables)")
	return l
}

// Apply maps the parsed flags onto a learner configuration.
func (l *Learn) Apply(cfg *structure.Config) {
	cfg.PhasePar = l.PhasePar
	cfg.MargCacheCells = l.MargCache
	cfg.Freeze = l.Freeze
}

// Obs holds the parsed values of the shared observability flags.
type Obs struct {
	MetricsAddr string
	Pprof       bool
	Linger      time.Duration
}

// AddObs registers the shared observability flags on fs.
func AddObs(fs *flag.FlagSet) *Obs {
	o := &Obs{}
	fs.StringVar(&o.MetricsAddr, "metrics-addr", "", "serve Prometheus metrics (/metrics), a JSON snapshot (/metrics.json) and optional pprof on this address (e.g. 127.0.0.1:9090)")
	fs.BoolVar(&o.Pprof, "pprof", false, "also mount net/http/pprof handlers on -metrics-addr")
	fs.DurationVar(&o.Linger, "metrics-linger", 0, "keep serving -metrics-addr this long after the run completes (0 = exit immediately)")
	return o
}

// Enabled reports whether any instrumentation was requested. Metrics are
// recorded whenever a listener is up; -pprof alone also brings the
// listener up (on whatever -metrics-addr says, default disabled).
func (o *Obs) Enabled() bool { return o.MetricsAddr != "" }

// Start brings up the metrics registry and, when enabled, the HTTP
// listener. It returns the registry to thread into core.Options.Obs (nil
// when disabled — the zero-overhead path) and a stop function that
// honors -metrics-linger before closing the listener. The stop function
// is non-nil even when disabled.
func (o *Obs) Start() (*obs.Registry, func(), error) {
	if !o.Enabled() {
		return nil, func() {}, nil
	}
	reg := obs.NewRegistry()
	srv, err := obs.Serve(o.MetricsAddr, reg, o.Pprof)
	if err != nil {
		return nil, nil, fmt.Errorf("starting metrics server: %w", err)
	}
	fmt.Fprintf(os.Stderr, "obs: serving metrics on http://%s/metrics\n", srv.Addr())
	stop := func() {
		if o.Linger > 0 {
			fmt.Fprintf(os.Stderr, "obs: lingering %v for scrapes\n", o.Linger)
			time.Sleep(o.Linger)
		}
		srv.Close()
	}
	return reg, stop, nil
}

// Serve holds the parsed values of the bnserve daemon flags.
type Serve struct {
	Addr           string
	MaxInflight    int
	QueueTimeout   time.Duration
	RequestTimeout time.Duration
	RefreshEvery   time.Duration
	IngestBatch    int
	MaxPending     int
	FreezeP        int
	ReadP          int
	Refreeze       string
	MargCacheCells int
	CoalesceWindow time.Duration
	RebalanceEvery int

	// Durability flags (all inert unless WALDir is set).
	WALDir          string
	Fsync           string
	Recover         bool
	CheckpointEvery int
	DrainTimeout    time.Duration
}

// AddServe registers the serving flags on fs. They compose with AddCore
// (builder configuration) and AddObs (metrics listener) for the full
// bnserve surface.
func AddServe(fs *flag.FlagSet) *Serve {
	s := &Serve{}
	fs.StringVar(&s.Addr, "listen", "127.0.0.1:8080", "serve the /v1/ query API on this address")
	fs.IntVar(&s.MaxInflight, "max-inflight", 64, "admission control: maximum requests executing at once")
	fs.DurationVar(&s.QueueTimeout, "queue-timeout", 100*time.Millisecond, "admission control: reject a queued request after waiting this long for a slot")
	fs.DurationVar(&s.RequestTimeout, "request-timeout", 2*time.Second, "per-request deadline; an expired query answers 504 deadline_exceeded")
	fs.DurationVar(&s.RefreshEvery, "refresh-every", 500*time.Millisecond, "background epoch cadence: build pending rows and publish a fresh snapshot at least this often")
	fs.IntVar(&s.IngestBatch, "ingest-batch", 8192, "block size ingested rows are fed to the builder in")
	fs.IntVar(&s.MaxPending, "max-pending", 1<<20, "reject ingest (429 ingest_overflow) once this many rows await the next epoch")
	fs.IntVar(&s.FreezeP, "freeze-p", 0, "epoch freeze/merge parallelism (0 = builder's worker count)")
	fs.IntVar(&s.ReadP, "read-p", 1, "per-query scan parallelism (1 = favor cross-request parallelism)")
	fs.StringVar(&s.Refreeze, "refreeze", "full", "epoch re-freeze strategy: full (drain+sort every partition) or incremental (alias clean partitions, merge sorted delta runs into dirty ones; bit-identical)")
	fs.IntVar(&s.MargCacheCells, "marg-cache", 1<<16, "epoch-versioned marginal cache budget in count cells for /v1/marginal (negative = disable)")
	fs.DurationVar(&s.CoalesceWindow, "coalesce-window", 200*time.Microsecond, "batch concurrent cache-missing read queries into one fused scan: queries arriving while a scan runs or within this window share a single pass (0 = off)")
	fs.IntVar(&s.RebalanceEvery, "rebalance-every", 0, "re-map the heaviest builder partitions across owner workers every N epoch publishes, using the occupancy histogram (0 = off)")
	fs.StringVar(&s.WALDir, "wal-dir", "", "directory for the write-ahead log and epoch checkpoints; ingest is acked only after the WAL append (durability off when empty)")
	fs.StringVar(&s.Fsync, "fsync", "batch", "WAL fsync policy: always (fsync before every ack), batch (fsync at publish/checkpoint barriers), never")
	fs.BoolVar(&s.Recover, "recover", true, "replay the checkpoint + WAL tail in -wal-dir at startup; with -recover=false a non-empty -wal-dir is a startup error")
	fs.IntVar(&s.CheckpointEvery, "checkpoint-every", 1, "write an epoch checkpoint every N publishes (higher = faster publishes, longer recovery replay)")
	fs.DurationVar(&s.DrainTimeout, "drain-timeout", 10*time.Second, "on SIGTERM/SIGINT: bound for draining in-flight requests and flushing the final epoch + checkpoint")
	return s
}

// Runtime holds the parsed values of the shared execution-control flags:
// the run deadline and the deterministic fault-injection spec.
type Runtime struct {
	Timeout time.Duration
	Faults  string
}

// AddRuntime registers the shared runtime flags on fs.
func AddRuntime(fs *flag.FlagSet) *Runtime {
	r := &Runtime{}
	fs.DurationVar(&r.Timeout, "timeout", 0, "abort the run after this duration (0 = no limit)")
	fs.StringVar(&r.Faults, "faults", "", "deterministic fault-injection spec, e.g. seed=7,panic-stage1=1 (default $"+faultinject.EnvVar+"; \"off\" disables)")
	return r
}

// Context resolves the runtime flags into the run's root context and
// installs the fault plan:
//
//   - SIGINT / SIGTERM cancel the context, so Ctrl-C turns into a clean
//     context.Canceled error from the primitives instead of a hard kill.
//   - -timeout, when positive, bounds the run with context.DeadlineExceeded.
//   - The fault spec (-faults, falling back to $WAITFREEBN_FAULTS) is parsed
//     and activated globally; a bad spec is a configuration error.
//
// The returned cleanup releases the signal handler, the timer, and the
// fault plan; call it (e.g. via defer) before exiting.
func (r *Runtime) Context() (context.Context, func(), error) {
	spec := r.Faults
	if spec == "" {
		spec = os.Getenv(faultinject.EnvVar)
	}
	plan, err := faultinject.ParseSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	restoreFaults := func() {}
	if plan != nil {
		restoreFaults = faultinject.Activate(plan)
		fmt.Fprintf(os.Stderr, "faultinject: plan active (%s)\n", spec)
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	cancelTimeout := context.CancelFunc(func() {})
	if r.Timeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, r.Timeout)
	}
	cleanup := func() {
		cancelTimeout()
		stopSignals()
		restoreFaults()
	}
	return ctx, cleanup, nil
}

// ParseInts parses a comma-separated integer list — the shared syntax of
// -card, -vars, -mlist and friends. An empty or blank string yields nil.
func ParseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
