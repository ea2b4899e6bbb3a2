package main

import (
	"context"
	"testing"
	"time"
)

// Tiny scales: each workload end to end, oracles included, in well under a
// second of measurement.
var (
	tinyLearn = learnScale{rows: 4000, vars: 8}
	tinyServe = serveScale{
		rows: 5000, vars: 6,
		readRate: 300, mixedReadRate: 100, ingestRate: 20, pollRate: 100,
		batchRows: 16, tailBatches: 4, warm: 100 * time.Millisecond,
	}
)

func checkRun(t *testing.T, r run, trace bool) {
	t.Helper()
	defs := endToEnd
	if trace {
		defs = perLayer
	} else if !r.correct {
		// Traced runs also apply the attribution tolerance, which a run this
		// small cannot promise; their oracles are the same code as here.
		t.Error("oracle failed")
	}
	if r.attempted < 1 {
		t.Errorf("attempted = %d", r.attempted)
	}
	if _, err := report(r, defs, !trace); err != nil {
		t.Error(err)
	}
}

func TestSmokeLearn(t *testing.T) {
	for _, trace := range []bool{false, true} {
		r, err := runLearn(context.Background(), params{seed: 3, seconds: 0.2, trace: trace, workdir: t.TempDir()}, tinyLearn)
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, r, trace)
		if trace && (r.metrics["structure.draft_s"] <= 0 || r.metrics["core.build_s"] <= 0 || r.metrics["core.allpairs_scan_passes"] <= 0) {
			t.Errorf("traced learn left layers unmeasured: %v", r.metrics)
		}
	}
}

func TestSmokeServe(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		for _, trace := range []bool{false, true} {
			r, err := runServe(context.Background(), params{seed: 5, seconds: 1, trace: trace, workdir: t.TempDir()}, tinyServe, mixed)
			if err != nil {
				t.Fatalf("mixed=%v trace=%v: %v", mixed, trace, err)
			}
			checkRun(t, r, trace)
			if trace && r.metrics["serve.transport_us_p50"] <= 0 {
				t.Errorf("mixed=%v: no handler spans matched client spans", mixed)
			}
			if trace && mixed && (r.metrics["wal.append_us_p50"] <= 0 || r.metrics["serve.refresh_s_mean"] <= 0) {
				t.Errorf("traced serve-mixed left layers unmeasured: %v", r.metrics)
			}
		}
	}
}
