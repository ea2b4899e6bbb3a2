// Package serve is the online serving layer over the wait-free primitives:
// an epoch manager that keeps an immutable frozen snapshot published for an
// unbounded population of concurrent readers while a background builder
// ingests new rows, plus the HTTP surface (versioned JSON envelope,
// admission control, per-endpoint metrics) that bnserve mounts.
//
// The layering mirrors the paper's contract. Writes are serialized into the
// incremental Builder (whose internal two-stage protocol is the wait-free
// part); reads never take a lock: they resolve the current epoch through an
// atomic pointer, pin it with a wait-free refcount (core.Snapshot), and
// scan the frozen columnar table, which is immutable by construction. An
// epoch swap is one atomic pointer store; retired epochs are reclaimed the
// moment their last in-flight reader finishes.
//
// With a write-ahead log attached (ManagerConfig.WAL), the layer is also
// durable: every ingest batch is appended to the log before it is
// acknowledged, each publish writes an epoch checkpoint, and a restart
// recovers by importing the latest checkpoint table and replaying the WAL
// tail through the builder — reproducing a table bit-identical to an
// uninterrupted build over the same acked rows. A build or freeze that
// aborts rolls the manager back to the previously published epoch (counted
// in serve_epoch_rollbacks_total) instead of taking the server down.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"waitfreebn/internal/core"
	"waitfreebn/internal/encoding"
	"waitfreebn/internal/faultinject"
	"waitfreebn/internal/obs"
	"waitfreebn/internal/sched"
	"waitfreebn/internal/wal"
)

// Metric names published by the serving layer.
const (
	metricEpoch          = "serve_epoch"
	metricEpochKeys      = "serve_epoch_keys"
	metricEpochSamples   = "serve_epoch_samples"
	metricEpochRefs      = "serve_epoch_refs"
	metricPublished      = "serve_epochs_published_total"
	metricRetired        = "serve_epochs_retired_total"
	metricRollbacks      = "serve_epoch_rollbacks_total"
	metricIngested       = "serve_ingest_rows_total"
	metricPending        = "serve_pending_rows"
	metricWALRetries     = "serve_wal_retries_total"
	metricRecoverySecs   = "serve_recovery_seconds"
	metricRecoveredRows  = "serve_recovered_rows"
	metricRefreshHist    = "serve_refresh_seconds"
	metricRequests       = "serve_requests_total"
	metricRequestHist    = "serve_request_seconds"
	metricResponseSizes  = "serve_response_bytes"
	metricInflight       = "serve_inflight"
	metricAdmissionDrops = "serve_admission_rejected_total"
	metricRebalances     = "serve_rebalances_total"
	metricRebalanceMoves = "serve_rebalance_moves_total"
	metricOwnerImbalance = "serve_owner_imbalance"
	// Last-refresh freeze shape, meaningful under -refreeze=incremental:
	// which fraction of the epoch swap was aliased, merged, or re-drained.
	metricFreezeReused   = "serve_freeze_reused_partitions"
	metricFreezeMerged   = "serve_freeze_merged_partitions"
	metricFreezeDrainedK = "serve_freeze_drained_keys"
	metricFreezeMergedK  = "serve_freeze_merged_keys"
)

// ErrOverloaded is returned by Ingest when accepting the rows would exceed
// the configured pending-row budget; the caller should back off and retry
// after the next refresh drains the backlog.
var ErrOverloaded = fmt.Errorf("serve: ingest backlog full")

// ErrNotReady is returned by Ingest while the manager is draining for
// shutdown (and is the error the HTTP layer maps to the not_ready envelope
// code during recovery and drain).
var ErrNotReady = errors.New("serve: not ready")

// ErrDurability is returned by Ingest when the write-ahead-log append failed
// past its retry budget: the rows were NOT accepted and the client must not
// assume them durable. The HTTP layer maps it to the durability_error code.
var ErrDurability = errors.New("serve: ingest not durable")

// ErrRolledBack wraps refresh failures that were contained by rolling back
// to the previously published epoch: the old snapshot keeps serving, the
// pending backlog is retained for retry, and the refresh loop continues.
var ErrRolledBack = errors.New("serve: epoch rolled back")

// walAttempts is the append/replay retry budget for transient WAL errors,
// with exponential backoff between attempts.
const walAttempts = 6

const walBackoffBase = 200 * time.Microsecond

// ManagerConfig parameterizes the epoch manager. The zero value of every
// field selects a sensible default (and no durability).
type ManagerConfig struct {
	// Build configures the background incremental builder (workers,
	// partitioning, queues). Build.Obs also instruments the manager.
	Build core.Options
	// FreezeP is the worker count for the freeze step of each refresh.
	// 0 = the builder's P.
	FreezeP int
	// IngestBatch is the block size rows are fed to the builder in, and the
	// builder's ring-capacity hint. 0 = 8192.
	IngestBatch int
	// MaxPending bounds the rows buffered between refreshes; Ingest fails
	// with ErrOverloaded past it. 0 = 1<<20.
	MaxPending int
	// WAL, when non-nil, makes ingest durable: batches are appended (and
	// fsynced per the log's policy) before they are acknowledged, and the
	// manager starts not-ready until Recover has replayed the log.
	WAL *wal.Log
	// Checkpoints, when non-nil (requires WAL), bounds recovery: every
	// CheckpointEvery-th publish writes the epoch table + manifest, and the
	// WAL is truncated to the records after it.
	Checkpoints *wal.CheckpointStore
	// CheckpointEvery is how many publishes elapse between checkpoints.
	// 0 = 1 (every publish).
	CheckpointEvery int
	// RebalanceEvery, when positive, re-maps the heaviest builder
	// partitions across owner workers every RebalanceEvery publishes,
	// using the occupancy histogram accumulated so far. The rebalance runs
	// at the epoch swap, under the manager lock, while the builder is
	// quiescent — exactly the hand-off point the wait-free contract
	// already establishes. 0 = off.
	RebalanceEvery int
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.IngestBatch <= 0 {
		c.IngestBatch = 8192
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 1 << 20
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.RebalanceEvery > 0 && c.Build.NumPartitions == 0 {
		// Rebalancing needs more home partitions than workers to have any
		// effect (LPT over one-home-per-worker is a pure permutation), so
		// an enabled rebalancer defaults the builder to 8 homes per worker.
		p := c.Build.P
		if p <= 0 {
			p = sched.DefaultP()
		}
		c.Build.NumPartitions = 8 * p
	}
	return c
}

// pendingBlock is one acked ingest batch awaiting the next epoch: the
// encoded keys (the builder's input and the WAL payload) plus the WAL
// sequence that made it durable (0 when no WAL is attached).
type pendingBlock struct {
	keys []uint64
	seq  uint64
	rows int
}

// Manager owns the build → freeze → publish → retire epoch cycle. Readers
// call Acquire/Release around each query; a single background goroutine
// (Run) or explicit Refresh calls advance epochs. Ingest may be called from
// any goroutine.
type Manager struct {
	codec *encoding.Codec
	cfg   ManagerConfig
	reg   *obs.Registry

	// mu serializes all builder access (the Builder is single-goroutine by
	// contract), the pending backlog, and all WAL/checkpoint writes (so the
	// backlog order is the WAL order). Readers never take it.
	mu      sync.Mutex
	builder *core.Builder
	pending []pendingBlock
	backlog int // total rows across pending

	// Durability bookkeeping, all under mu. builtSeq is the last WAL record
	// folded into the builder; pubSeq the last folded into the published
	// table; ckptEpoch the epoch of the newest committed checkpoint.
	lastTable  *core.PotentialTable // the published frozen table (rollback seed)
	builtSeq   uint64
	pubSeq     uint64
	ckptEpoch  uint64
	hasCkpt    bool
	sinceCkpt  int
	dirty      bool             // builder holds rows not yet in the published table
	lastFreeze core.FreezeStats // stats of the freeze behind the published table
	nextEpoch  uint64           // epoch number the next publish uses
	sinceReb   int              // publishes since the last rebalance check
	freezeSeq  uint64           // freeze-fail fault-point occurrence counter
	replaySeq  uint64           // recover-replay fault-point occurrence counter

	cur    atomic.Pointer[core.Snapshot]
	wake   chan struct{}
	ready  atomic.Bool // false until recovery publishes; false again on drain
	drain  atomic.Bool
	closed atomic.Bool

	published  *obs.Counter
	retired    *obs.Counter
	rollbacks  *obs.Counter
	ingested   *obs.Counter
	walRetries *obs.Counter
	rebalances *obs.Counter
	rebMoves   *obs.Counter
	imbalanceG *obs.Gauge
	pendingG   *obs.Gauge
	epochG     *obs.Gauge
	keysG      *obs.Gauge
	samplesG   *obs.Gauge
	recoveryG  *obs.Gauge
	recRowsG   *obs.Gauge
	reusedG    *obs.Gauge
	mergedG    *obs.Gauge
	drainedKG  *obs.Gauge
	mergedKG   *obs.Gauge
	refreshH   *obs.Histogram
}

// NewManager builds the empty epoch-0 snapshot and publishes it, so readers
// never observe a nil epoch. The registry in cfg.Build.Obs (may be nil)
// receives the epoch gauges and refresh histogram. Without a WAL the manager
// is immediately ready; with one, Recover must run (and publish the
// recovered epoch) before the HTTP layer reports ready.
func NewManager(ctx context.Context, codec *encoding.Codec, cfg ManagerConfig) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Checkpoints != nil && cfg.WAL == nil {
		return nil, fmt.Errorf("serve: Checkpoints requires WAL")
	}
	reg := cfg.Build.Obs
	m := &Manager{
		codec:      codec,
		cfg:        cfg,
		reg:        reg,
		builder:    core.NewBuilder(codec, cfg.IngestBatch, cfg.Build),
		wake:       make(chan struct{}, 1),
		published:  reg.Counter(metricPublished),
		retired:    reg.Counter(metricRetired),
		rollbacks:  reg.Counter(metricRollbacks),
		ingested:   reg.Counter(metricIngested),
		walRetries: reg.Counter(metricWALRetries),
		rebalances: reg.Counter(metricRebalances),
		rebMoves:   reg.Counter(metricRebalanceMoves),
		imbalanceG: reg.Gauge(metricOwnerImbalance),
		pendingG:   reg.Gauge(metricPending),
		epochG:     reg.Gauge(metricEpoch),
		keysG:      reg.Gauge(metricEpochKeys),
		samplesG:   reg.Gauge(metricEpochSamples),
		recoveryG:  reg.Gauge(metricRecoverySecs),
		recRowsG:   reg.Gauge(metricRecoveredRows),
		reusedG:    reg.Gauge(metricFreezeReused),
		mergedG:    reg.Gauge(metricFreezeMerged),
		drainedKG:  reg.Gauge(metricFreezeDrainedK),
		mergedKG:   reg.Gauge(metricFreezeMergedK),
		refreshH:   reg.Histogram(metricRefreshHist),
	}
	if reg != nil {
		reg.Help(metricEpoch, "currently published snapshot epoch")
		reg.Help(metricPublished, "snapshot epochs published")
		reg.Help(metricRetired, "retired snapshot epochs fully drained and reclaimed")
		reg.Help(metricRollbacks, "failed refreshes contained by rolling back to the prior epoch")
		reg.Help(metricIngested, "rows accepted into the ingest backlog")
		reg.Help(metricPending, "rows accepted but not yet built into an epoch")
		reg.Help(metricWALRetries, "transient WAL/replay failures that were retried")
		reg.Help(metricRecoverySecs, "duration of the last startup recovery")
		reg.Help(metricRecoveredRows, "rows restored by the last startup recovery (checkpoint + replay)")
		reg.Help(metricRefreshHist, "duration of build+freeze+publish refresh cycles")
		reg.Help(metricRebalances, "partition-to-owner rebalances applied between epochs")
		reg.Help(metricRebalanceMoves, "partitions re-homed to a different owner by rebalances")
		reg.Help(metricOwnerImbalance, "max/mean owner load after the last rebalance check (1 = flat)")
		reg.Help(metricFreezeReused, "partitions aliased from the prior epoch by the last freeze")
		reg.Help(metricFreezeMerged, "partitions produced by delta merge in the last freeze")
		reg.Help(metricFreezeDrainedK, "keys drained+sorted by the last freeze")
		reg.Help(metricFreezeMergedK, "delta keys merged by the last freeze")
	}
	pt, fst, err := m.builder.SnapshotCtx(ctx, cfg.FreezeP)
	if err != nil {
		return nil, fmt.Errorf("serve: initial snapshot: %w", err)
	}
	m.publish(pt)
	m.lastTable = pt
	m.recordFreezeLocked(fst)
	if cfg.WAL == nil {
		m.ready.Store(true)
	}
	return m, nil
}

// publish swaps in pt as the next epoch and retires the previous snapshot.
// Caller must hold m.mu (or be the constructor).
func (m *Manager) publish(pt *core.PotentialTable) {
	epoch := m.nextEpoch
	m.nextEpoch++
	next := core.NewSnapshot(epoch, pt, func() { m.retired.Inc() })
	old := m.cur.Swap(next)
	m.published.Inc()
	m.epochG.Set(float64(epoch))
	m.keysG.Set(float64(pt.Len()))
	m.samplesG.Set(float64(pt.NumSamples()))
	if old != nil {
		old.Retire()
	}
}

// Acquire pins and returns the current snapshot; the caller must Release it
// when done. The loop handles the benign race where the loaded snapshot
// drains between the pointer load and the refcount increment (possible only
// across an epoch swap), by re-resolving the new current epoch.
func (m *Manager) Acquire() *core.Snapshot {
	for {
		if s := m.cur.Load(); s.Acquire() {
			return s
		}
	}
}

// Epoch returns the currently published epoch number without pinning it.
func (m *Manager) Epoch() uint64 { return m.cur.Load().Epoch() }

// Refs returns the current snapshot's reference count (monitoring only).
func (m *Manager) Refs() int64 { return m.cur.Load().Refs() }

// Pending returns the rows accepted but not yet built into an epoch.
func (m *Manager) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.backlog
}

// Ready reports whether the manager serves authoritative data: true once
// recovery (if any) has published its epoch, false again once a drain
// begins. The HTTP layer's /readyz and data-plane gating read this.
func (m *Manager) Ready() bool { return m.ready.Load() }

// NeedsRecovery reports whether Recover must run before the manager is
// ready (a WAL is attached and recovery has not completed).
func (m *Manager) NeedsRecovery() bool { return m.cfg.WAL != nil && !m.ready.Load() }

// BeginDrain flips the manager out of ready: Ingest refuses new rows with
// ErrNotReady while in-flight work and the pending backlog can still be
// flushed via Refresh/Shutdown.
func (m *Manager) BeginDrain() {
	m.drain.Store(true)
	m.ready.Store(false)
}

// Draining reports whether BeginDrain has been called.
func (m *Manager) Draining() bool { return m.drain.Load() }

// validateRows checks arity and state ranges up front, so a malformed row
// surfaces as a client error instead of corrupting the builder's encode.
func (m *Manager) validateRows(rows [][]uint8) error {
	n := m.codec.NumVars()
	for i, row := range rows {
		if len(row) != n {
			return fmt.Errorf("row %d has %d values, want %d", i, len(row), n)
		}
		for v, s := range row {
			if int(s) >= m.codec.Cardinality(v) {
				return fmt.Errorf("row %d: variable %d state %d out of range [0,%d)",
					i, v, s, m.codec.Cardinality(v))
			}
		}
	}
	return nil
}

// walAppendLocked appends one batch's keys to the WAL, retrying transient
// errors with exponential backoff up to the walAttempts budget. Caller holds
// m.mu, which is what makes backlog order equal WAL order.
func (m *Manager) walAppendLocked(keys []uint64) (uint64, error) {
	backoff := walBackoffBase
	var lastErr error
	for attempt := 0; attempt < walAttempts; attempt++ {
		if attempt > 0 {
			m.walRetries.Inc()
			time.Sleep(backoff)
			backoff *= 2
		}
		seq, err := m.cfg.WAL.Append(keys)
		if err == nil {
			return seq, nil
		}
		lastErr = err
	}
	return 0, lastErr
}

// Ingest accepts rows into the backlog for the next epoch, all-or-nothing:
// on a validation error, a full backlog (ErrOverloaded), a drain
// (ErrNotReady), or a WAL append that failed past its retry budget
// (ErrDurability) no row is kept. With a WAL attached, a nil return means
// the batch is durable per the log's fsync policy BEFORE the caller sees the
// ack. The next Run cycle (or an explicit Refresh) builds them. Safe for
// concurrent use.
func (m *Manager) Ingest(rows [][]uint8) error {
	if len(rows) == 0 {
		return nil
	}
	if err := m.validateRows(rows); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	keys := make([]uint64, len(rows))
	m.codec.EncodeRows(rows, keys)

	m.mu.Lock()
	if m.drain.Load() {
		m.mu.Unlock()
		return fmt.Errorf("%w: draining for shutdown", ErrNotReady)
	}
	if m.backlog+len(rows) > m.cfg.MaxPending {
		m.mu.Unlock()
		return ErrOverloaded
	}
	var seq uint64
	if m.cfg.WAL != nil {
		var err error
		if seq, err = m.walAppendLocked(keys); err != nil {
			m.mu.Unlock()
			return fmt.Errorf("%w: %v", ErrDurability, err)
		}
	}
	m.pending = append(m.pending, pendingBlock{keys: keys, seq: seq, rows: len(rows)})
	m.backlog += len(rows)
	m.pendingG.Set(float64(m.backlog))
	m.mu.Unlock()
	m.ingested.Add(uint64(len(rows)))
	select {
	case m.wake <- struct{}{}:
	default:
	}
	return nil
}

// rollbackLocked contains a refresh failure that poisoned the builder:
// a fresh builder is reseeded from the last published table, the pending
// backlog (still intact — Refresh clears it only after every block builds)
// stays queued for retry, and the old epoch keeps serving.
func (m *Manager) rollbackLocked(cause error) error {
	b := core.NewBuilder(m.codec, m.cfg.IngestBatch, m.cfg.Build)
	if err := b.ImportTable(m.lastTable); err != nil {
		// Reseeding cannot fail on a table this manager published (same
		// codec); if it does, no consistent state remains.
		return fmt.Errorf("serve: rollback reseed: %w", err)
	}
	m.builder = b
	m.builtSeq = m.pubSeq
	m.dirty = false
	m.rollbacks.Inc()
	return fmt.Errorf("%w: %v", ErrRolledBack, cause)
}

// Refresh drains the backlog into the builder and publishes a fresh epoch:
// build → freeze (into a detached columnar snapshot) → atomic publish →
// checkpoint (when due) → retire the old epoch (reclaimed once its
// in-flight readers drain). Returns whether a new epoch was published —
// with an empty backlog and no un-frozen builder rows the current epoch
// already reflects all ingested rows, so the swap is skipped.
//
// A failure is contained, not fatal: a poisoned build rolls back to the
// previously published epoch (backlog retained), a failed freeze leaves the
// builder intact for a later re-freeze; both return an error wrapping
// ErrRolledBack and keep the old epoch serving. Safe for concurrent use;
// in-flight queries are never blocked by it.
func (m *Manager) Refresh(ctx context.Context) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.backlog == 0 && !m.dirty {
		return false, nil
	}
	start := time.Now()
	// Feed every pending block; the backlog is cleared only after ALL of
	// them are in, so a mid-loop failure retries the whole set after
	// rollback (the builder rebuild makes that exactly-once, not double).
	builtThrough := m.builtSeq
	for _, blk := range m.pending {
		if err := m.builder.AddKeysCtx(ctx, blk.keys); err != nil {
			return false, m.rollbackLocked(fmt.Errorf("refresh build: %v", err))
		}
		if blk.seq > builtThrough {
			builtThrough = blk.seq
		}
	}
	m.builtSeq = builtThrough
	m.pending = m.pending[:0]
	m.backlog = 0
	m.pendingG.Set(0)
	m.dirty = true

	m.freezeSeq++
	if err := faultinject.Active().MaybeErr(faultinject.FreezeFail, 0, m.freezeSeq); err != nil {
		// The freeze never started: the builder still holds every row
		// (dirty stays true), so the next cycle re-freezes without data
		// loss. Count it as a rollback — the epoch swap was aborted.
		m.rollbacks.Inc()
		return false, fmt.Errorf("%w: refresh freeze: %v", ErrRolledBack, err)
	}
	pt, fst, err := m.builder.SnapshotCtx(ctx, m.cfg.FreezeP)
	if err != nil {
		m.rollbacks.Inc()
		return false, fmt.Errorf("%w: refresh freeze: %v", ErrRolledBack, err)
	}
	m.publish(pt)
	m.lastTable = pt
	m.recordFreezeLocked(fst)
	m.pubSeq = m.builtSeq
	m.dirty = false
	m.refreshH.Observe(time.Since(start))
	m.checkpointLocked(false)
	m.maybeRebalanceLocked()
	return true, nil
}

// recordFreezeLocked remembers the freeze behind the just-published table
// and mirrors its shape into the gauges. Caller holds m.mu (or is the
// constructor).
func (m *Manager) recordFreezeLocked(fst core.FreezeStats) {
	m.lastFreeze = fst
	m.reusedG.Set(float64(fst.ReusedPartitions))
	m.mergedG.Set(float64(fst.MergedPartitions))
	m.drainedKG.Set(float64(fst.DrainedKeys))
	m.mergedKG.Set(float64(fst.MergedKeys))
}

// LastFreezeStats reports the freeze behind the currently published epoch —
// how much of the last swap was aliased, merged, or re-drained.
func (m *Manager) LastFreezeStats() core.FreezeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastFreeze
}

// maybeRebalanceLocked applies the between-epoch partition rebalance when one
// is due. Caller holds m.mu, and the refresh that just published has drained
// every pending block through the builder — the quiescent point the
// rebalance contract requires (no stage-1/stage-2 workers are running).
// Readers are unaffected: they scan the frozen snapshot just published, and
// the remap only redirects which worker OWNS each partition in future builds.
func (m *Manager) maybeRebalanceLocked() {
	if m.cfg.RebalanceEvery <= 0 {
		return
	}
	m.sinceReb++
	if m.sinceReb < m.cfg.RebalanceEvery {
		return
	}
	m.sinceReb = 0
	st := m.builder.Rebalance()
	m.imbalanceG.Set(st.After)
	if st.Moved > 0 {
		m.rebalances.Inc()
		m.rebMoves.Add(uint64(st.Moved))
	}
}

// checkpointLocked runs the post-publish durability barrier: fsync the WAL
// (the SyncBatch barrier), and when a checkpoint is due (every
// CheckpointEvery publishes, or force) commit the published table + manifest
// and truncate fully covered WAL segments. Checkpoint failures are
// non-fatal — the epoch stays published and recovery falls back to the
// previous checkpoint plus a longer replay. Caller holds m.mu.
func (m *Manager) checkpointLocked(force bool) {
	if m.cfg.WAL == nil {
		return
	}
	// Best-effort barrier: with SyncBatch this is where acked records reach
	// stable storage. A failure here does not un-ack anything (that window
	// is exactly what -fsync=always removes).
	_ = m.cfg.WAL.Sync()
	if m.cfg.Checkpoints == nil {
		return
	}
	epoch := m.nextEpoch - 1
	if m.hasCkpt && m.ckptEpoch == epoch {
		return // this epoch is already checkpointed
	}
	m.sinceCkpt++
	if !force && m.sinceCkpt < m.cfg.CheckpointEvery {
		return
	}
	man, err := m.cfg.Checkpoints.Save(wal.Manifest{
		Epoch:  epoch,
		Rows:   m.lastTable.NumSamples(),
		Keys:   m.lastTable.Len(),
		WALSeq: m.pubSeq,
	}, m.lastTable)
	if err != nil {
		return
	}
	m.hasCkpt = true
	m.ckptEpoch = epoch
	m.sinceCkpt = 0
	_ = m.cfg.WAL.TruncateThrough(man.WALSeq)
}

// Recover restores the manager's state from the checkpoint store and the
// WAL: the newest valid checkpoint table is imported into the builder, the
// log tail after it is replayed (each record through the same AddKeys path
// live ingest uses, with transient replay faults retried), and the recovered
// epoch is published — after which the manager reports Ready. Epoch
// numbering continues from the checkpoint's epoch. Must run before Run, on
// a manager whose WAL is attached; without a WAL it is a no-op.
func (m *Manager) Recover(ctx context.Context) error {
	if m.cfg.WAL == nil {
		m.ready.Store(true)
		return nil
	}
	start := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	var after uint64
	var recovered, ckptRows uint64
	if m.cfg.Checkpoints != nil {
		man, tblBytes, ok, err := m.cfg.Checkpoints.LoadLatest()
		if err != nil {
			return fmt.Errorf("serve: recover: %w", err)
		}
		if ok {
			tbl, err := core.ReadTable(bytes.NewReader(tblBytes), 1)
			if err != nil {
				return fmt.Errorf("serve: recover: checkpoint table: %w", err)
			}
			if err := m.builder.ImportTable(tbl); err != nil {
				return fmt.Errorf("serve: recover: %w", err)
			}
			after = man.WALSeq
			// The checkpoint already counts everything through WALSeq; start
			// builtSeq there so a checkpoint written after a replay-free
			// recovery doesn't claim seq 0 and double-count on the NEXT
			// recovery.
			m.builtSeq = man.WALSeq
			m.nextEpoch = man.Epoch + 1
			m.hasCkpt = true
			m.ckptEpoch = man.Epoch
			recovered, ckptRows = man.Rows, man.Rows
		}
	}
	plan := faultinject.Active()
	err := m.cfg.WAL.Replay(after, func(seq uint64, keys []uint64) error {
		backoff := walBackoffBase
		for attempt := 0; ; attempt++ {
			m.replaySeq++
			if err := plan.MaybeErr(faultinject.RecoverReplayFail, 0, m.replaySeq); err != nil {
				if attempt >= walAttempts-1 {
					return err
				}
				m.walRetries.Inc()
				time.Sleep(backoff)
				backoff *= 2
				continue
			}
			break
		}
		if err := m.builder.AddKeysCtx(ctx, keys); err != nil {
			return err
		}
		m.builtSeq = seq
		recovered += uint64(len(keys))
		return nil
	})
	if err != nil {
		return fmt.Errorf("serve: recover: replay: %w", err)
	}
	pt, fst, err := m.builder.SnapshotCtx(ctx, m.cfg.FreezeP)
	if err != nil {
		return fmt.Errorf("serve: recover: freeze: %w", err)
	}
	m.publish(pt)
	m.lastTable = pt
	m.recordFreezeLocked(fst)
	m.pubSeq = m.builtSeq
	m.dirty = false
	// Post-recovery checkpoint, amortized: writing one costs a full table
	// serialization + fsync, so pay it only when no checkpoint exists yet or
	// the replayed tail stopped being small relative to the table. A short
	// tail is bounded by the publish cadence and costs less to replay again
	// on the next restart than a table write costs now; a long tail (a crash
	// after heavy unpublished ingest) is worth retiring immediately so a
	// crash loop cannot replay it over and over.
	if tail := recovered - ckptRows; !m.hasCkpt || tail*8 >= recovered {
		m.checkpointLocked(false)
	}
	m.recoveryG.Set(time.Since(start).Seconds())
	m.recRowsG.Set(float64(recovered))
	m.ready.Store(true)
	return nil
}

// Run is the background refresh loop: it wakes on every ingest and at every
// interval tick, and publishes a new epoch whenever rows are pending. A
// refresh contained by rollback (ErrRolledBack) keeps the loop — and the
// previous epoch — serving; Run returns when ctx is cancelled (with nil) or
// on an uncontainable failure.
func (m *Manager) Run(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-m.wake:
		case <-ticker.C:
		}
		if _, err := m.Refresh(ctx); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if errors.Is(err, ErrRolledBack) {
				continue
			}
			return err
		}
	}
}

// Shutdown flushes the manager for a clean exit: drain (refusing new
// ingest), build and publish any pending backlog, force a final checkpoint,
// and sync+close the WAL. Call after Run has returned. The returned error
// reports the first flush failure; shutdown proceeds through the remaining
// steps regardless.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.BeginDrain()
	var firstErr error
	if _, err := m.Refresh(ctx); err != nil {
		firstErr = err
	}
	m.mu.Lock()
	if m.cfg.WAL != nil {
		m.checkpointLocked(true)
		if err := m.cfg.WAL.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("serve: closing wal: %w", err)
		}
	}
	m.mu.Unlock()
	m.Close()
	return firstErr
}

// Close retires the currently published epoch (idempotent). Call only after
// Run has returned and no new queries can start; in-flight readers still
// finish (the snapshot drains when the last of them releases).
func (m *Manager) Close() {
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	if s := m.cur.Load(); s != nil {
		s.Retire()
	}
}
