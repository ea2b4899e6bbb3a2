package core

import (
	"strings"
	"testing"

	"waitfreebn/internal/dataset"
	"waitfreebn/internal/encoding"
	"waitfreebn/internal/spsc"
)

func uniformData(t testing.TB, m, n, r int, seed uint64) *dataset.Dataset {
	t.Helper()
	d := dataset.NewUniformCard(m, n, r)
	d.UniformIndependent(seed, 4)
	return d
}

// assertStatsInvariant checks the accounting identity every successful
// build must satisfy: the foreign key mass routed in stage 1 equals the key
// mass drained in stage 2. ForeignKeys counts logical keys before delta
// aggregation and Stage2Pops sums the drained deltas.
func assertStatsInvariant(t *testing.T, st Stats) {
	t.Helper()
	if st.Stage2Pops != st.ForeignKeys {
		t.Fatalf("stats invariant violated: Stage2Pops=%d != ForeignKeys=%d", st.Stage2Pops, st.ForeignKeys)
	}
}

func TestBuildSequentialCountsEveryRow(t *testing.T) {
	d := uniformData(t, 5000, 8, 2, 1)
	pt, err := BuildSequential(d)
	if err != nil {
		t.Fatal(err)
	}
	if pt.NumSamples() != 5000 {
		t.Fatalf("NumSamples = %d", pt.NumSamples())
	}
	if pt.Total() != 5000 {
		t.Fatalf("Total = %d", pt.Total())
	}
	// Recount with a plain map oracle.
	codec, _ := d.Codec()
	oracle := map[uint64]uint64{}
	for i := 0; i < d.NumSamples(); i++ {
		oracle[codec.Encode(d.Row(i))]++
	}
	if pt.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", pt.Len(), len(oracle))
	}
	for k, c := range oracle {
		if pt.Get(k) != c {
			t.Fatalf("Get(%d) = %d, oracle %d", k, pt.Get(k), c)
		}
	}
}

func TestBuildMatchesSequential(t *testing.T) {
	d := uniformData(t, 20000, 10, 2, 2)
	ref, err := BuildSequential(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		pt, st, err := Build(d, Options{P: p})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if !pt.Equal(ref) {
			t.Fatalf("P=%d: parallel table differs from sequential", p)
		}
		if st.LocalKeys+st.ForeignKeys != 20000 {
			t.Fatalf("P=%d: local %d + foreign %d != m", p, st.LocalKeys, st.ForeignKeys)
		}
		assertStatsInvariant(t, st)
		if st.DistinctKeys != ref.Len() {
			t.Fatalf("P=%d: DistinctKeys %d != %d", p, st.DistinctKeys, ref.Len())
		}
	}
}

func TestBuildAllOptionCombinations(t *testing.T) {
	d := uniformData(t, 8000, 8, 3, 3)
	ref, err := BuildSequential(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []PartitionKind{PartitionModulo, PartitionRange, PartitionHash} {
		for _, q := range []spsc.Kind{spsc.KindChunked, spsc.KindRing, spsc.KindMutex} {
			for _, tk := range []TableKind{TableOpenAddressing, TableChained, TableGoMap, TableDense} {
				for _, wb := range []int{1, 0} {
					opts := Options{P: 4, Partition: part, Queue: q, Table: tk, WriteBatch: wb}
					pt, st, err := Build(d, opts)
					if err != nil {
						t.Fatalf("%v/%v/%v/wb=%d: %v", part, q, tk, wb, err)
					}
					if !pt.Equal(ref) {
						t.Fatalf("%v/%v/%v/wb=%d: table differs from sequential", part, q, tk, wb)
					}
					assertStatsInvariant(t, st)
				}
			}
		}
	}
}

// TestBuildWriteBatchesMatchSequential is the bit-identity matrix of the
// write path: for every queue kind × table kind × P ∈ {1, 4, 8}, builds at
// several batch sizes (1 publishes each key alone; the others force
// mid-block and partial flushes) must equal the sequential oracle, with the
// key-mass accounting identity intact and the same local/foreign split at
// every size.
func TestBuildWriteBatchesMatchSequential(t *testing.T) {
	d := uniformData(t, 12000, 8, 3, 9)
	ref, err := BuildSequential(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4, 8} {
		for _, q := range []spsc.Kind{spsc.KindChunked, spsc.KindRing, spsc.KindMutex} {
			for _, tk := range []TableKind{TableOpenAddressing, TableChained, TableGoMap, TableDense} {
				var first Stats
				for i, wb := range []int{1, 2, 64, 4096} {
					pt, st, err := Build(d, Options{P: p, Queue: q, Table: tk, WriteBatch: wb})
					if err != nil {
						t.Fatalf("P=%d/%v/%v/wb=%d: %v", p, q, tk, wb, err)
					}
					if !pt.Equal(ref) {
						t.Fatalf("P=%d/%v/%v/wb=%d: table differs from sequential", p, q, tk, wb)
					}
					assertStatsInvariant(t, st)
					if i == 0 {
						first = st
					} else if st.ForeignKeys != first.ForeignKeys || st.LocalKeys != first.LocalKeys {
						t.Fatalf("P=%d/%v/%v/wb=%d: key accounting differs from wb=1: local %d/%d foreign %d/%d",
							p, q, tk, wb, st.LocalKeys, first.LocalKeys, st.ForeignKeys, first.ForeignKeys)
					}
					if p > 1 && st.ForeignKeys > 0 && st.BatchFlushes == 0 {
						t.Fatalf("P=%d/%v/%v/wb=%d: foreign keys routed but no batch flushes recorded", p, q, tk, wb)
					}
					if st.WriteBatch != wb {
						t.Fatalf("P=%d/%v/%v/wb=%d: Stats.WriteBatch = %d", p, q, tk, wb, st.WriteBatch)
					}
				}
			}
		}
	}
}

func TestBuildRespectsPartitionOwnership(t *testing.T) {
	d := uniformData(t, 10000, 6, 4, 4)
	for _, kind := range []PartitionKind{PartitionModulo, PartitionRange, PartitionHash} {
		pt, _, err := Build(d, Options{P: 4, Partition: kind})
		if err != nil {
			t.Fatal(err)
		}
		owner := kind.partitioner(4, pt.Codec().KeySpace())
		for w, part := range pt.liveParts() {
			part.Range(func(key, count uint64) bool {
				if owner(key) != w {
					t.Fatalf("%v: key %d stored in partition %d, owner %d", kind, key, w, owner(key))
				}
				return true
			})
		}
	}
}

func TestBuildRingOverflowReturnsError(t *testing.T) {
	d := uniformData(t, 10000, 6, 4, 5)
	_, _, err := Build(d, Options{P: 4, Queue: spsc.KindRing, RingCapacity: 2, NoSpill: true})
	if err == nil {
		t.Fatal("expected overflow error from undersized ring")
	}
	if !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("overflow error does not name the failure: %v", err)
	}
}

func TestBuildRingOverflowSpillsByDefault(t *testing.T) {
	// Without NoSpill the same undersized ring must degrade gracefully:
	// the build succeeds, the table matches the sequential oracle, and the
	// spill shows up in Stats.SpilledKeys.
	d := uniformData(t, 10000, 6, 4, 5)
	ref, err := BuildSequential(d)
	if err != nil {
		t.Fatal(err)
	}
	pt, st, err := Build(d, Options{P: 4, Queue: spsc.KindRing, RingCapacity: 2})
	if err != nil {
		t.Fatalf("spilling build failed: %v", err)
	}
	if !pt.Equal(ref) {
		t.Fatal("spilling build differs from sequential oracle")
	}
	if st.SpilledKeys == 0 {
		t.Fatal("undersized ring reported no spilled keys")
	}
	assertStatsInvariant(t, st)
}

func TestBuildNoSpillUnboundedQueueReportsZeroSpill(t *testing.T) {
	d := uniformData(t, 5000, 6, 4, 5)
	_, st, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.SpilledKeys != 0 {
		t.Fatalf("chunked queues spilled %d keys", st.SpilledKeys)
	}
}

func TestBuildKeysRingOverflowReturnsError(t *testing.T) {
	// Drive BuildKeys directly with a pre-encoded stream whose keys all
	// land on partition 1, so worker 0's queue to it must overflow a
	// 2-slot ring (ring capacity rounds up to a power of two, so capacity
	// 2 holds exactly 2 keys).
	codec, err := encoding.NewCodec([]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = 1 // owner 1 under modulo partitioning with P=2
	}
	// WriteBatch 1: every duplicate flushes as its own word, so 32
	// pushes into a 2-slot ring must overflow.
	_, _, err = BuildKeys(KeySourceFromSlice(keys), codec, len(keys),
		Options{P: 2, Queue: spsc.KindRing, RingCapacity: 2, NoSpill: true, WriteBatch: 1})
	if err == nil {
		t.Fatal("expected overflow error from undersized ring in BuildKeys")
	}
	if !strings.Contains(err.Error(), "ring capacity") {
		t.Fatalf("overflow error does not report the capacity: %v", err)
	}

	// Default batch: delta aggregation collapses the 32 duplicates into a
	// single (key, delta) word, so the same undersized ring now succeeds —
	// the write-combining buffer is itself a spill-avoidance mechanism.
	pt0, st0, err := BuildKeys(KeySourceFromSlice(keys), codec, len(keys),
		Options{P: 2, Queue: spsc.KindRing, RingCapacity: 2, NoSpill: true})
	if err != nil {
		t.Fatalf("batched build on undersized ring: %v", err)
	}
	assertStatsInvariant(t, st0)
	if pt0.Get(1) != uint64(len(keys)) {
		t.Fatalf("batched count for key 1 = %d, want %d", pt0.Get(1), len(keys))
	}

	// Distinct foreign keys cannot be combined, so the batched path still
	// overflows a NoSpill ring when the words themselves don't fit.
	wide, err := encoding.NewCodec([]int{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	distinct := make([]uint64, 64)
	for i := range distinct {
		distinct[i] = uint64(2*i + 1) // 64 distinct odd keys: all owner 1
	}
	_, _, err = BuildKeys(KeySourceFromSlice(distinct), wide, len(distinct),
		Options{P: 2, Queue: spsc.KindRing, RingCapacity: 2, NoSpill: true})
	if err == nil {
		t.Fatal("expected overflow error from batched build with distinct keys")
	}
	if !strings.Contains(err.Error(), "ring capacity") {
		t.Fatalf("batched overflow error does not report the capacity: %v", err)
	}

	// The same stream with the default (auto-sized) ring must succeed and
	// satisfy the accounting invariant.
	pt, st, err := BuildKeys(KeySourceFromSlice(keys), codec, len(keys),
		Options{P: 2, Queue: spsc.KindRing})
	if err != nil {
		t.Fatal(err)
	}
	assertStatsInvariant(t, st)
	if pt.Get(1) != uint64(len(keys)) {
		t.Fatalf("count for key 1 = %d, want %d", pt.Get(1), len(keys))
	}
}

func TestBuildRingDefaultCapacityNeverOverflows(t *testing.T) {
	d := uniformData(t, 10000, 6, 4, 6)
	pt, st, err := Build(d, Options{P: 4, Queue: spsc.KindRing})
	if err != nil {
		t.Fatal(err)
	}
	assertStatsInvariant(t, st)
	ref, _ := BuildSequential(d)
	if !pt.Equal(ref) {
		t.Fatal("ring-built table differs from sequential")
	}
}

func TestBuildDefaultsApplied(t *testing.T) {
	d := uniformData(t, 100, 4, 2, 7)
	pt, st, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.P < 1 {
		t.Fatalf("Stats.P = %d", st.P)
	}
	if pt.Partitions() != st.P {
		t.Fatalf("partitions %d != P %d", pt.Partitions(), st.P)
	}
	assertStatsInvariant(t, st)
}

func TestBuildEmptyDataset(t *testing.T) {
	d := dataset.NewUniformCard(0, 4, 2)
	pt, st, err := Build(d, Options{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Len() != 0 || pt.Total() != 0 || pt.NumSamples() != 0 {
		t.Fatalf("empty build: len=%d total=%d m=%d", pt.Len(), pt.Total(), pt.NumSamples())
	}
	if st.LocalKeys != 0 || st.ForeignKeys != 0 {
		t.Fatalf("empty build stats: %+v", st)
	}
	assertStatsInvariant(t, st)
}

func TestBuildSingleRow(t *testing.T) {
	d := dataset.NewUniformCard(1, 3, 2)
	d.Set(0, 0, 1)
	d.Set(0, 2, 1)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	codec, _ := d.Codec()
	key := codec.Encode([]uint8{1, 0, 1})
	if pt.Get(key) != 1 || pt.Len() != 1 {
		t.Fatalf("single-row table: Get=%d Len=%d", pt.Get(key), pt.Len())
	}
}

func TestBuildMoreWorkersThanRows(t *testing.T) {
	d := uniformData(t, 3, 4, 2, 8)
	ref, _ := BuildSequential(d)
	pt, _, err := Build(d, Options{P: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Equal(ref) {
		t.Fatal("P > m build differs from sequential")
	}
}

func TestBuildKeysFromSlice(t *testing.T) {
	d := uniformData(t, 5000, 8, 2, 9)
	codec, _ := d.Codec()
	keys := d.EncodeKeys(codec, 2)
	pt, st, err := BuildKeys(KeySourceFromSlice(keys), codec, len(keys), Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertStatsInvariant(t, st)
	ref, _ := BuildSequential(d)
	if !pt.Equal(ref) {
		t.Fatal("BuildKeys over pre-encoded slice differs from sequential")
	}
}

func TestBuildRejectsOverflowingCardinalities(t *testing.T) {
	// 64 four-state variables → 2^128 key space, must be rejected.
	d := dataset.NewUniformCard(10, 64, 4)
	if _, _, err := Build(d, Options{P: 2}); err == nil {
		t.Fatal("expected key-space overflow error")
	}
	if _, err := BuildSequential(d); err == nil {
		t.Fatal("expected key-space overflow error from sequential builder")
	}
}

func TestBuildSkewedDataStillCorrect(t *testing.T) {
	// Heavy skew concentrates keys in one partition; correctness must hold.
	d := dataset.NewUniformCard(20000, 8, 3)
	d.Zipf(10, 2.5, 4)
	ref, _ := BuildSequential(d)
	pt, st, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Equal(ref) {
		t.Fatal("skewed build differs from sequential")
	}
	if st.LocalKeys+st.ForeignKeys != 20000 {
		t.Fatalf("key accounting broken: %+v", st)
	}
	assertStatsInvariant(t, st)
}

func TestStage2DrainsAllQueues(t *testing.T) {
	// With P=2 and modulo partitioning, roughly half the keys are foreign;
	// verify foreign routing actually happened (the wait-free path is
	// exercised, not bypassed).
	d := uniformData(t, 10000, 8, 2, 10)
	_, st, err := Build(d, Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.ForeignKeys == 0 {
		t.Fatal("no foreign keys routed; stage 2 untested")
	}
	assertStatsInvariant(t, st)
	frac := float64(st.ForeignKeys) / 10000
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("foreign fraction %.3f, expected ~0.5 for P=2 uniform data", frac)
	}
}

func TestBuildStageTimesPopulated(t *testing.T) {
	d := uniformData(t, 50000, 10, 2, 11)
	_, st, err := Build(d, Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Stage1Time <= 0 {
		t.Error("Stage1Time not recorded")
	}
	if st.Stage2Time <= 0 {
		t.Error("Stage2Time not recorded")
	}
	// Stage 1 does O(m·n/P) work (encode + update) vs stage 2's O(m/P)
	// pops; stage 1 should dominate on this workload.
	if st.Stage2Time > st.Stage1Time*10 {
		t.Errorf("stage2 (%v) implausibly slower than stage1 (%v)", st.Stage2Time, st.Stage1Time)
	}
}
