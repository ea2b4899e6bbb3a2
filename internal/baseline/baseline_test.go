package baseline

import (
	"context"
	"testing"

	"waitfreebn/internal/bn"
	"waitfreebn/internal/core"
	"waitfreebn/internal/dataset"
)

func testData(t testing.TB, m, n, r int, seed uint64) *dataset.Dataset {
	t.Helper()
	d := dataset.NewUniformCard(m, n, r)
	d.UniformIndependent(seed, 4)
	return d
}

func TestAllStrategiesProduceIdenticalTables(t *testing.T) {
	d := testData(t, 20000, 10, 2, 1)
	ref, err := core.BuildSequential(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Strategies() {
		for _, p := range []int{1, 2, 4} {
			pt, _, err := Build(s, d, p)
			if err != nil {
				t.Fatalf("%v p=%d: %v", s, p, err)
			}
			if !pt.Equal(ref) {
				t.Fatalf("%v p=%d: table differs from sequential", s, p)
			}
		}
	}
}

func TestAllStrategiesOnSkewedData(t *testing.T) {
	d := dataset.NewUniformCard(20000, 8, 3)
	d.Zipf(2, 2.0, 4)
	ref, err := core.BuildSequential(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Strategies() {
		pt, _, err := Build(s, d, 4)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !pt.Equal(ref) {
			t.Fatalf("%v: table differs on skewed data", s)
		}
	}
}

func TestAllStrategiesOnBNSampledData(t *testing.T) {
	net := bn.Asia()
	d, err := net.Sample(30000, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.BuildSequential(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Strategies() {
		pt, _, err := Build(s, d, 3)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !pt.Equal(ref) {
			t.Fatalf("%v: table differs on BN data", s)
		}
	}
}

func TestCountersReported(t *testing.T) {
	d := testData(t, 10000, 8, 2, 2)
	if _, c, err := Build(GlobalLock, d, 4); err != nil || c.LockAcquisitions != 10000 {
		t.Errorf("global-lock: counters %+v err %v (want 10000 lock acquisitions)", c, err)
	}
	if _, c, err := Build(StripedLock, d, 4); err != nil || c.LockAcquisitions != 10000 {
		t.Errorf("striped-lock: counters %+v err %v", c, err)
	}
	if _, c, err := Build(WaitFree, d, 4); err != nil || c.QueueTransfers == 0 {
		t.Errorf("wait-free: counters %+v err %v (expected queue transfers)", c, err)
	}
	if _, c, err := Build(Sequential, d, 1); err != nil || c != (Counters{}) {
		t.Errorf("sequential: counters %+v err %v (want zero)", c, err)
	}
}

func TestStrategyStringRoundTrip(t *testing.T) {
	for _, s := range Strategies() {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v: got %v err %v", s, got, err)
		}
	}
	if _, err := ParseStrategy("nope"); err == nil {
		t.Error("ParseStrategy accepted unknown name")
	}
	if Strategy(99).String() != "unknown" {
		t.Error("unknown strategy String")
	}
}

func TestBuildUnknownStrategy(t *testing.T) {
	d := testData(t, 10, 3, 2, 3)
	if _, _, err := Build(Strategy(99), d, 2); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestBuildRejectsOverflowingKeySpace(t *testing.T) {
	d := dataset.NewUniformCard(10, 64, 4)
	for _, s := range Strategies() {
		if _, _, err := Build(s, d, 2); err == nil {
			t.Errorf("%v accepted overflowing key space", s)
		}
	}
}

func TestCASTableBasics(t *testing.T) {
	ct := newCASTable(100)
	for i := 0; i < 50; i++ {
		if _, ok := ct.add(uint64(i % 10)); !ok {
			t.Fatal("add failed with room available")
		}
	}
	if got := ct.used.Load(); got != 10 {
		t.Fatalf("used = %d, want 10", got)
	}
	// Each of the 10 keys must have count 5.
	found := 0
	for i := range ct.keys {
		if k := ct.keys[i].Load(); k != emptyCASSlot {
			found++
			if c := ct.counts[i].Load(); c != 5 {
				t.Errorf("key %d count %d, want 5", k, c)
			}
		}
	}
	if found != 10 {
		t.Fatalf("found %d occupied slots", found)
	}
}

func TestCASTableExhaustion(t *testing.T) {
	ct := newCASTable(1) // capacity 64, limit 56
	overflowAt := -1
	for i := 0; i < 64; i++ {
		if _, ok := ct.add(uint64(i) * 7919); !ok {
			overflowAt = i
			break
		}
	}
	if overflowAt < 0 {
		t.Fatal("cas table never reported exhaustion")
	}
}

func TestCASMapOverflowSurfaceAsError(t *testing.T) {
	// A hint far below the distinct-key count must produce a clean error,
	// not a hang or corruption.
	d := testData(t, 5000, 10, 2, 4)
	codec, _ := d.Codec()
	if _, _, err := buildCASMap(d, codec, d.NumSamples(), 4, 10); err == nil {
		t.Fatal("expected capacity-exhausted error")
	}
}

func TestStripedLockPartitionCount(t *testing.T) {
	d := testData(t, 5000, 8, 2, 5)
	pt, _, err := Build(StripedLock, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Partitions() != stripeCount {
		t.Errorf("striped table has %d partitions, want %d", pt.Partitions(), stripeCount)
	}
	if pt.Total() != 5000 {
		t.Errorf("Total = %d", pt.Total())
	}
}

func TestMarginalizationWorksOnEveryStrategyOutput(t *testing.T) {
	// The potential tables from all strategies must be drop-in compatible
	// with the marginalization primitive.
	d := testData(t, 10000, 6, 2, 6)
	ref, _ := core.BuildSequential(d)
	wantMarg, err := ref.MarginalizeCtx(context.Background(), []int{1, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Strategies() {
		pt, _, err := Build(s, d, 3)
		if err != nil {
			t.Fatal(err)
		}
		mg, err := pt.MarginalizeCtx(context.Background(), []int{1, 4}, 3)
		if err != nil {
			t.Fatal(err)
		}
		for c := range wantMarg.Counts {
			if mg.Counts[c] != wantMarg.Counts[c] {
				t.Fatalf("%v: marginal cell %d = %d, want %d", s, c, mg.Counts[c], wantMarg.Counts[c])
			}
		}
	}
}
