package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending: tail must sort
	}
	return v
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n          int
		q, wantQ   float64
		wantValue  float64
		wantBeyond int
	}{
		{n: 1000, q: 0.99, wantQ: 0.99, wantValue: 990, wantBeyond: 10},
		{n: 500, q: 0.99, wantQ: 0.98, wantValue: 490, wantBeyond: 10},
		{n: 200, q: 0.5, wantQ: 0.5, wantValue: 100, wantBeyond: 100},
		{n: 15, q: 0.99, wantQ: 0.5, wantValue: 8, wantBeyond: 7}, // too few: the median
	}
	for _, c := range cases {
		v, q, n := tail(seq(c.n), c.q)
		if v != c.wantValue || math.Abs(q-c.wantQ) > 1e-12 || n != c.n {
			t.Errorf("tail(%d samples, %v) = %v at q=%v n=%d, want %v at q=%v", c.n, c.q, v, q, n, c.wantValue, c.wantQ)
		}
		beyond := 0
		for _, s := range seq(c.n) {
			if s > v {
				beyond++
			}
		}
		if beyond != c.wantBeyond {
			t.Errorf("n=%d: %d samples beyond the percentile, want %d", c.n, beyond, c.wantBeyond)
		}
	}
	if v, _, n := tail(nil, 0.99); !math.IsNaN(v) || n != 0 {
		t.Errorf("tail(nil) = %v, %d; want NaN, 0", v, n)
	}
}

func TestRefusedRequestIsAMiss(t *testing.T) {
	t0 := time.Now()
	var outs []outcome
	for i := 0; i < 100; i++ {
		outs = append(outs, outcome{due: t0, free: t0, sent: t0, done: t0.Add(time.Millisecond), ok: i >= 20})
	}
	share, failed := errorShare(outs)
	if failed != 20 || share != 0.2 {
		t.Fatalf("errorShare = %v (%d failed), want 0.2 (20)", share, failed)
	}
	lat := latencies(outs)
	if v, _, _ := tail(lat, 0.5); v != 1 {
		t.Errorf("median latency %v ms, want 1", v)
	}
	// The 20 refused requests are the slowest 20%: the q=0.9 tail is a miss.
	if v, q, _ := tail(lat, 0.99); !math.IsInf(v, 1) || q != 0.9 {
		t.Errorf("tail = %v at q=%v, want +Inf at q=0.9", v, q)
	}
}

func TestLatenessIsTheGeneratorsOwnDelay(t *testing.T) {
	t0 := time.Now()
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	cases := []struct {
		name       string
		o          outcome
		late, resp float64
	}{
		// Free before due: the generator slept and woke 2 ms late; that is
		// its own error, not the system's latency.
		{"overslept", outcome{due: ms(10), free: ms(0), sent: ms(12), done: ms(15), ok: true}, 2, 3},
		// Both connections busy until 30: the 20 ms wait is latency, not lateness.
		{"queued", outcome{due: ms(10), free: ms(30), sent: ms(30), done: ms(31), ok: true}, 0, 21},
		{"queued and slow to send", outcome{due: ms(10), free: ms(30), sent: ms(31), done: ms(32), ok: true}, 1, 21},
	}
	for _, c := range cases {
		if got := c.o.lateMs(); math.Abs(got-c.late) > 1e-9 {
			t.Errorf("%s: late %v ms, want %v", c.name, got, c.late)
		}
		if got := c.o.latencyMs(); math.Abs(got-c.resp) > 1e-9 {
			t.Errorf("%s: latency %v ms, want %v (timed from due)", c.name, got, c.resp)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	t0 := time.Now()
	at := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	spans := []span{
		{Name: "root", Start: at(0), End: at(10), Parent: -1},
		{Name: "a", Start: at(1), End: at(3), Parent: 0},
		{Name: "b", Start: at(2), End: at(5), Parent: 0},  // overlaps a: counted once
		{Name: "c", Start: at(8), End: at(12), Parent: 0}, // past the parent's end: clipped
		{Name: "d", Start: at(3), End: at(4), Parent: 2},  // grandchild: b's, not root's
	}
	self := selfTimes(spans)
	want := []time.Duration{4, 2, 2, 4, 1}
	for i, w := range want {
		if self[i] != w*time.Millisecond {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], w*time.Millisecond)
		}
	}
}

func TestVisibilityWaitsForAnEpochHoldingEveryAckedRow(t *testing.T) {
	t0 := time.Now()
	at := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	acks := []ack{{done: at(10), rows: 5}, {done: at(20), rows: 5}, {done: at(90), rows: 5}}
	polls := []pollReply{
		{sent: at(5), done: at(6), m: 105},   // before the first ack: ignored
		{sent: at(15), done: at(16), m: 100}, // stale epoch
		{sent: at(30), done: at(31), m: 110}, // covers both acks so far
		{sent: at(40), done: at(41), m: 110},
	}
	got, unresolved := visibility(100, acks, polls, t0)
	if len(got) != 2 || got[0] != 21 || got[1] != 11 || unresolved != 1 {
		t.Fatalf("visibility = %v, %d unresolved; want [21 11], 1", got, unresolved)
	}
}

// TestVisibilityCountsRowsAckedBeforeTheOpenLoop: rows acked during warm-up
// are in every later epoch, so an open-loop ack is visible only once an
// epoch holds them too, not at the first poll that covers the set-up table.
func TestVisibilityCountsRowsAckedBeforeTheOpenLoop(t *testing.T) {
	t0 := time.Now()
	at := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	acks := []ack{
		{done: at(0), rows: 10}, // warm-up: not measured, but its rows count
		{done: at(10), rows: 5},
	}
	polls := []pollReply{
		{sent: at(12), done: at(13), m: 110}, // the warm-up rows only
		{sent: at(30), done: at(31), m: 115}, // and the open-loop ack's
	}
	got, unresolved := visibility(100, acks, polls, at(5))
	if len(got) != 1 || got[0] != 21 || unresolved != 0 {
		t.Fatalf("visibility = %v, %d unresolved; want [21], 0", got, unresolved)
	}
}

func TestReportPrintsExactlyTheContractKeys(t *testing.T) {
	r := run{correct: true, attempted: 3, metrics: map[string]float64{"setup_s": 1, "latency_ms": 2, "capacity_per_s": 3, "peak_rss_mb": 4, "extra": 5}}
	line, err := report(r, endToEnd, true)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("result keys %v", got)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) || metrics["latency_ms"].Value != 2 || metrics["latency_ms"].Unit != "ms" {
		t.Fatalf("metrics %v", metrics)
	}
	delete(r.metrics, "latency_ms")
	if _, err := report(r, endToEnd, true); err == nil {
		t.Fatal("report accepted a run missing an end-to-end metric")
	}
}

// TestBenchmarkJSONMatchesTheMetricTables keeps BENCHMARK.json and the
// metrics the program reports in step.
func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no driver", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %s, program has %d", strings.Join(names, ","), len(workloads))
	}
}
