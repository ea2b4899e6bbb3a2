package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"waitfreebn/internal/obs"
	"waitfreebn/internal/serve"
	"waitfreebn/internal/wal"
)

// walProbeAppends and walProbeSyncEvery shape the direct WAL probe: batches
// of the workload's size appended back to back, with a Sync every few
// appends as the batch policy does at each publish.
const (
	walProbeAppends   = 512
	walProbeSyncEvery = 16
	scanProbeQueries  = 200
)

// traced repeats the phase on a fresh server with the metrics registry on
// and every other request (client and handler) under a span, runs the
// direct scan, WAL and checkpoint probes, and fills the per-layer metrics.
// Refreshes are taken from the registry: Server.Run drives them, as in the
// untraced phase.
func (b *serveBench) traced(ctx context.Context, m map[string]float64, openDur, closedDur time.Duration) (bool, int, int, error) {
	reg := obs.NewRegistry()
	tr := &tracer{}
	srv, _, setup, err := b.start(ctx, reg, setupReps)
	if err != nil {
		return false, 0, 0, err
	}
	mgr := srv.Manager()
	fst := mgr.LastFreezeStats()
	m["core.freeze_s"] = fst.Duration.Seconds()
	m["core.frozen_entries"] = float64(fst.Entries)
	if b.mixed {
		m["serve.recover_s"] = setup
		snap := mgr.Acquire()
		m["serve.recovered_rows"] = float64(snap.Table().NumSamples())
		snap.Release()
	}

	// The scan probe runs first: without a WAL, Server.Run retires the
	// served epoch when the phase ends.
	if err := b.scanProbe(ctx, mgr, tr, m); err != nil {
		return false, 0, 0, err
	}

	before := reg.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ph, err := b.traffic(ctx, srv, tr, reg, openDur, closedDur)
	if err != nil {
		return false, 0, 0, err
	}
	runtime.ReadMemStats(&ms1)
	after := reg.Snapshot()
	correct := b.checkPhase(ctx, srv, ph)
	all := ph.outcomes()
	_, failed := errorShare(all)
	attempted := len(all)

	spans := tr.snapshot()
	self := selfTimes(spans)
	var hit, miss, ingest, transport, clientRead, layerSum []float64
	for i, s := range spans {
		switch {
		case s.Name == "serve.read.hit":
			hit = append(hit, us(s.dur()))
		case s.Name == "serve.read.miss":
			miss = append(miss, us(s.dur()))
		case s.Name == "serve.ingest":
			ingest = append(ingest, us(s.dur()))
		case s.Name == "client.read":
			clientRead = append(clientRead, ms(s.dur()))
		}
		if strings.HasPrefix(s.Name, "serve.read") && s.Parent >= 0 {
			parent := spans[s.Parent]
			transport = append(transport, us(parent.dur()-s.dur()))
			// The request's layers: the handler (serve) and the client's
			// own remainder (net/http and loopback).
			layerSum = append(layerSum, ms(self[i]+self[s.Parent]))
		}
	}
	put := func(name string, v []float64, q float64) {
		if len(v) == 0 {
			m[name] = 0
			return
		}
		m[name], _, _ = tail(v, q)
	}
	put("serve.handler_hit_us_p50", hit, 0.5)
	put("serve.handler_hit_us_p99", hit, 0.99)
	put("serve.handler_miss_us_p50", miss, 0.5)
	put("serve.transport_us_p50", transport, 0.5)
	put("serve.ingest_handler_us_p50", ingest, 0.5)
	put("serve.ingest_handler_us_p99", ingest, 0.99)

	delta := func(name string) float64 { return float64(counterSum(after, name) - counterSum(before, name)) }
	hits, misses := delta("core_marg_cache_hits_total"), delta("core_marg_cache_misses_total")
	if hits+misses > 0 {
		m["core.margcache_hit_rate"] = hits / (hits + misses)
	}
	// Per-request figures count every request of the phase, traced or not.
	if reads := ph.gen.reads.Load(); reads > 0 {
		m["core.scans_per_read"] = delta("core_scan_passes_total") / float64(reads)
	}
	m["serve.admission_rejected"] = delta("serve_admission_rejected_total")
	m["serve.coalesce_batches"] = delta("serve_coalesce_batches_total")
	m["serve.coalesced_requests"] = delta("serve_coalesced_requests_total")

	// Refreshes of the phase, from Manager.Refresh's own histogram; the
	// freeze gauges describe the last of them. No refresh reads 0.
	rh0, rh1 := before.Histograms["serve_refresh_seconds"], after.Histograms["serve_refresh_seconds"]
	if n := rh1.Count - rh0.Count; n > 0 {
		m["serve.refresh_s_mean"] = (rh1.SumSeconds - rh0.SumSeconds) / float64(n)
		m["serve.refresh_s_max"] = rh1.MaxSeconds
		m["serve.refresh_drained_keys"] = after.Gauges["serve_freeze_drained_keys"]
		m["serve.refresh_reused_partitions"] = after.Gauges["serve_freeze_reused_partitions"]
	}
	tm := b.clientMetrics(ph)
	m["serve.pending_rows_max"] = tm["pending_rows_max"]
	m["gen.late_p99_ms"] = tm["gen.late_p99_ms"]

	m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	if requests := ph.gen.requests.Load(); requests > 0 {
		m["runtime.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(requests)
	}
	// The untraced figure: reads of the same phase sent without spans.
	if plain := median(ph.gen.plainReadMs); plain > 0 && len(clientRead) > 0 {
		m["trace.overhead"] = median(clientRead)/plain - 1
		m["trace.unattributed_share"] = (plain - median(layerSum)) / plain
	}
	if u := m["trace.unattributed_share"]; u > attributionTolerance || u < -attributionTolerance {
		fmt.Printf("ATTRIBUTION FAIL: layer self-times miss the untraced read time by %.1f%% (tolerance %.0f%%)\n",
			100*u, 100*attributionTolerance)
		correct = false
	}

	if b.mixed {
		if err := b.walProbe(mgr, tr, m); err != nil {
			return false, 0, 0, err
		}
	}
	b.retire(ctx, srv)
	name := "serve-read"
	if b.mixed {
		name = "serve-mixed"
	}
	if err := writeSpans(traceFile(b.p, name), tr.snapshot()); err != nil {
		return false, 0, 0, err
	}
	return correct, attempted, failed, nil
}

// scanProbe times one uncached marginal scan (ReadP 1) per distinct variable
// set of the read population on the pinned current snapshot.
func (b *serveBench) scanProbe(ctx context.Context, mgr *serve.Manager, tr *tracer, m map[string]float64) error {
	snap := mgr.Acquire()
	defer snap.Release()
	tbl := snap.Table()
	seen := map[string]bool{}
	var usec []float64
	for _, q := range b.pop {
		if len(usec) == scanProbeQueries {
			break
		}
		k := q.varsetKey()
		if seen[k] {
			continue
		}
		seen[k] = true
		order := append(append([]int(nil), q.given...), q.vars...)
		id := tr.begin("core.marginal_scan", -1, 0)
		t0 := time.Now()
		if _, err := tbl.MarginalizeManyCachedCtx(ctx, [][]int{order}, 1, nil); err != nil {
			return err
		}
		usec = append(usec, us(time.Since(t0)))
		tr.end(id)
	}
	m["core.marginal_scan_us_p50"], _, _ = tail(usec, 0.5)
	m["core.marginal_scan_us_p99"], _, _ = tail(usec, 0.99)
	return nil
}

// walProbe times wal.Log.Append and Sync directly, with the workload's batch
// size and fsync policy on the filesystem the served WAL uses, and
// CheckpointStore.Save of the published table.
func (b *serveBench) walProbe(mgr *serve.Manager, tr *tracer, m map[string]float64) error {
	log, err := wal.Open(wal.Options{Dir: filepath.Join(b.p.workdir, "wal-probe"), Sync: b.flags.fsync})
	if err != nil {
		return err
	}
	defer log.Close()
	keys := make([]uint64, b.sc.batchRows)
	var appendUs, syncMs []float64
	for i := 0; i < walProbeAppends; i++ {
		b.codec.EncodeRows(b.bodyRows[i%len(b.bodyRows)], keys)
		id := tr.begin("wal.append", -1, 0)
		t0 := time.Now()
		if _, err := log.Append(keys); err != nil {
			return err
		}
		appendUs = append(appendUs, us(time.Since(t0)))
		tr.end(id)
		if i%walProbeSyncEvery == walProbeSyncEvery-1 {
			id := tr.begin("wal.sync", -1, 0)
			t0 := time.Now()
			if err := log.Sync(); err != nil {
				return err
			}
			syncMs = append(syncMs, ms(time.Since(t0)))
			tr.end(id)
		}
	}
	m["wal.append_us_p50"], _, _ = tail(appendUs, 0.5)
	m["wal.append_us_p99"], _, _ = tail(appendUs, 0.99)
	m["wal.sync_ms_p50"] = median(syncMs)

	ck, err := wal.OpenCheckpoints(filepath.Join(b.p.workdir, "ckpt-probe"), nil)
	if err != nil {
		return err
	}
	snap := mgr.Acquire()
	defer snap.Release()
	tbl := snap.Table()
	var save []float64
	for i := 0; i < setupReps; i++ {
		id := tr.begin("wal.checkpoint", -1, 0)
		t0 := time.Now()
		if _, err := ck.Save(wal.Manifest{Epoch: uint64(i + 1), Rows: tbl.NumSamples(), Keys: tbl.Len()}, tbl); err != nil {
			return err
		}
		save = append(save, time.Since(t0).Seconds())
		tr.end(id)
	}
	m["wal.checkpoint_s"] = median(save)
	return nil
}

// traceFile is where a traced run writes its spans: next to, not inside,
// the run's scratch directory, which is removed when the run ends.
func traceFile(p params, workload string) string {
	return filepath.Join(filepath.Dir(p.workdir), "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, p.seed))
}
