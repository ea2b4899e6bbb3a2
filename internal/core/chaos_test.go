package core

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"waitfreebn/internal/encoding"
	"waitfreebn/internal/faultinject"
	"waitfreebn/internal/sched"
	"waitfreebn/internal/spsc"
)

// The chaos suite proves the fault-tolerant execution layer's guarantees:
// every injected fault must surface as a clean error — no deadlocked
// barrier, no leaked worker goroutine — and a plan whose points never fire
// must leave the result bit-identical to the sequential oracle. Run it
// under -race via `make chaos`.

// requireNoGoroutineLeak fails the test if the goroutine count does not
// return to the baseline within a grace period (worker exits race with the
// caller, so a few retries are expected).
func requireNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// chaosSeeds returns the seeds the multi-seed chaos tests sweep: 1..5 by
// default, extendable via the CHAOS_SEEDS environment variable
// (comma-separated uint64s) for longer soak runs.
func chaosSeeds(t *testing.T) []uint64 {
	seeds := []uint64{1, 2, 3, 4, 5}
	if env := os.Getenv("CHAOS_SEEDS"); env != "" {
		for _, f := range strings.Split(env, ",") {
			s, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				t.Fatalf("bad CHAOS_SEEDS entry %q: %v", f, err)
			}
			seeds = append(seeds, s)
		}
	}
	return seeds
}

func TestChaosNoFaultFiredIsBitIdentical(t *testing.T) {
	d := uniformData(t, 20000, 8, 3, 11)
	ref, err := BuildSequential(d)
	if err != nil {
		t.Fatal(err)
	}
	// An installed plan with every rate at zero must be indistinguishable
	// from no plan at all.
	restore := faultinject.Activate(faultinject.NewPlan(123))
	defer restore()
	pt, st, err := BuildCtx(context.Background(), d, Options{P: 4})
	if err != nil {
		t.Fatalf("no-fault build failed: %v", err)
	}
	if !pt.Equal(ref) {
		t.Fatal("no-fault build differs from sequential oracle")
	}
	if st.SpilledKeys != 0 {
		t.Fatalf("no-fault build spilled %d keys", st.SpilledKeys)
	}
}

func TestChaosPanicStage1Contained(t *testing.T) {
	d := uniformData(t, 20000, 8, 3, 11)
	base := runtime.NumGoroutine()
	plan := faultinject.NewPlan(7).WithRate(faultinject.PanicStage1, 1)
	plan.Worker = 1
	restore := faultinject.Activate(plan)
	defer restore()
	_, _, err := BuildCtx(context.Background(), d, Options{P: 4})
	if err == nil {
		t.Fatal("injected stage-1 panic did not surface")
	}
	var we *sched.WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("error %v (%T) is not a *sched.WorkerError", err, err)
	}
	if we.Worker != 1 {
		t.Errorf("panic attributed to worker %d, injected into worker 1", we.Worker)
	}
	if len(we.Stack) == 0 {
		t.Error("WorkerError carries no stack")
	}
	requireNoGoroutineLeak(t, base)
}

func TestChaosPanicStage2Contained(t *testing.T) {
	// Stage-2 panics happen after the barrier — the worst place to die for
	// the peers, which must still drain and exit cleanly.
	d := uniformData(t, 20000, 8, 3, 11)
	base := runtime.NumGoroutine()
	plan := faultinject.NewPlan(7).WithRate(faultinject.PanicStage2, 1)
	plan.Worker = 2
	restore := faultinject.Activate(plan)
	defer restore()
	_, _, err := BuildCtx(context.Background(), d, Options{P: 4})
	var we *sched.WorkerError
	if !errors.As(err, &we) || we.Worker != 2 {
		t.Fatalf("stage-2 panic not contained as WorkerError for worker 2: %v", err)
	}
	requireNoGoroutineLeak(t, base)
}

func TestChaosQueuePushFailSurfacesCleanly(t *testing.T) {
	d := uniformData(t, 20000, 8, 3, 11)
	base := runtime.NumGoroutine()
	restore := faultinject.Activate(
		faultinject.NewPlan(9).WithRate(faultinject.QueuePushFail, 0.01))
	defer restore()
	_, _, err := BuildCtx(context.Background(), d, Options{P: 4})
	if err == nil {
		t.Fatal("injected push failure did not surface")
	}
	if !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("push-failure error does not read as an overflow: %v", err)
	}
	var we *sched.WorkerError
	if errors.As(err, &we) {
		t.Fatalf("push failure surfaced as a panic: %v", err)
	}
	requireNoGoroutineLeak(t, base)
}

func TestChaosStallPlusTimeoutReturnsDeadlineExceeded(t *testing.T) {
	d := uniformData(t, 20000, 8, 3, 11)
	base := runtime.NumGoroutine()
	plan := faultinject.NewPlan(3).WithRate(faultinject.WorkerStall, 1)
	plan.StallDuration = 150 * time.Millisecond
	restore := faultinject.Activate(plan)
	defer restore()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := BuildCtx(ctx, d, Options{P: 4})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled build returned %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled build took %v to observe the deadline", elapsed)
	}
	requireNoGoroutineLeak(t, base)
}

func TestChaosTableGrowPressure(t *testing.T) {
	d := uniformData(t, 20000, 8, 3, 11)
	ref, err := BuildSequential(d)
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Activate(
		faultinject.NewPlan(5).WithRate(faultinject.TableGrowPressure, 1))
	defer restore()
	pt, st, err := BuildCtx(context.Background(), d, Options{P: 4})
	if err != nil {
		t.Fatalf("build under grow pressure failed: %v", err)
	}
	if st.TableHint != 1 {
		t.Fatalf("grow pressure left hint at %d", st.TableHint)
	}
	if !pt.Equal(ref) {
		t.Fatal("build under grow pressure differs from sequential oracle")
	}
}

func TestChaosMultiSeedSweep(t *testing.T) {
	// Mixed-fault sweep: for every seed the build must either succeed with
	// the exact oracle table or fail with a clean, classified error —
	// never deadlock, never leak a worker.
	d := uniformData(t, 20000, 8, 3, 11)
	ref, err := BuildSequential(d)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for _, seed := range chaosSeeds(t) {
		plan := faultinject.NewPlan(seed).
			WithRate(faultinject.QueuePushFail, 0.0005).
			WithRate(faultinject.PanicStage1, 0.1).
			WithRate(faultinject.PanicStage2, 0.1).
			WithRate(faultinject.WorkerStall, 0.5)
		restore := faultinject.Activate(plan)
		done := make(chan struct{})
		var pt *PotentialTable
		var st Stats
		var buildErr error
		go func() {
			defer close(done)
			pt, st, buildErr = BuildCtx(context.Background(), d, Options{P: 4})
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			restore()
			t.Fatalf("seed %d: build deadlocked", seed)
		}
		restore()
		if buildErr == nil {
			if !pt.Equal(ref) {
				t.Fatalf("seed %d: fault-free outcome differs from oracle", seed)
			}
			assertStatsInvariant(t, st)
		} else {
			var we *sched.WorkerError
			if !errors.As(buildErr, &we) && !strings.Contains(buildErr.Error(), "overflow") {
				t.Fatalf("seed %d: unclassified failure %v", seed, buildErr)
			}
		}
		requireNoGoroutineLeak(t, base)
	}
}

// TestChaosBatchedLegacyFaultEquivalence pins the fault-determinism
// contract of the write path: queue-push faults fire per logical key at
// buffer-append time, indexed by (worker, running foreign count), so under
// any deterministic plan a write-batch-1 build (every key published alone)
// and a default-batch build must agree — both fail, or both succeed with
// identical tables and identical key accounting. Without this, every
// recorded chaos seed would renumber when the batch size changed.
func TestChaosBatchedLegacyFaultEquivalence(t *testing.T) {
	d := uniformData(t, 20000, 8, 3, 11)
	base := runtime.NumGoroutine()
	for _, seed := range chaosSeeds(t) {
		type outcome struct {
			pt  *PotentialTable
			st  Stats
			err error
		}
		var outs [2]outcome
		for i, wb := range []int{1, defaultWriteBatch} {
			plan := faultinject.NewPlan(seed).
				WithRate(faultinject.QueuePushFail, 0.0005).
				WithRate(faultinject.PanicStage1, 0.1).
				WithRate(faultinject.PanicStage2, 0.1)
			restore := faultinject.Activate(plan)
			outs[i].pt, outs[i].st, outs[i].err = BuildCtx(context.Background(), d, Options{P: 4, WriteBatch: wb})
			restore()
		}
		single, batched := outs[0], outs[1]
		if (single.err == nil) != (batched.err == nil) {
			t.Fatalf("seed %d: wb=1 err %v, batched err %v — fault plans diverged", seed, single.err, batched.err)
		}
		if single.err == nil {
			if !batched.pt.Equal(single.pt) {
				t.Fatalf("seed %d: batched table differs from wb=1 under the same plan", seed)
			}
			assertStatsInvariant(t, single.st)
			assertStatsInvariant(t, batched.st)
			if single.st.ForeignKeys != batched.st.ForeignKeys {
				t.Fatalf("seed %d: foreign key mass %d (wb=1) != %d (batched)",
					seed, single.st.ForeignKeys, batched.st.ForeignKeys)
			}
		}
		requireNoGoroutineLeak(t, base)
	}
}

func TestBuildCtxCancelMidBuild(t *testing.T) {
	d := uniformData(t, 20000, 8, 3, 11)
	base := runtime.NumGoroutine()
	// Stall every worker long enough for the cancellation to land while
	// the build is provably still in flight.
	plan := faultinject.NewPlan(2).WithRate(faultinject.WorkerStall, 1)
	plan.StallDuration = 200 * time.Millisecond
	restore := faultinject.Activate(plan)
	defer restore()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	start := time.Now()
	go func() {
		_, _, err := BuildCtx(ctx, d, Options{P: 4})
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled build returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled build did not return in bounded time")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	requireNoGoroutineLeak(t, base)
}

func TestBuildKeysOverflowEarlyReturnDoesNotLeak(t *testing.T) {
	// The strict (NoSpill) overflow path returns early with some queues
	// partially filled and some workers parked at the barrier; all of them
	// must still exit, and the process must be reusable afterwards.
	d := uniformData(t, 10000, 6, 4, 5)
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		_, _, err := Build(d, Options{P: 4, Queue: spsc.KindRing, RingCapacity: 2, NoSpill: true})
		if err == nil {
			t.Fatal("expected overflow error")
		}
	}
	requireNoGoroutineLeak(t, base)
	// A clean build right after the failed ones must still work.
	ref, err := BuildSequential(d)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Equal(ref) {
		t.Fatal("post-failure build differs from oracle")
	}
}

func TestMarginalizeCtxCancellation(t *testing.T) {
	d := uniformData(t, 20000, 8, 3, 11)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pt.MarginalizeCtx(ctx, []int{0, 1}, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled marginalize returned %v", err)
	}
	if _, err := pt.AllPairsMICtx(ctx, 4, MIFused); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fused all-pairs returned %v", err)
	}
	if _, err := pt.AllPairsMICtx(ctx, 4, MIPairDynamic); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled dynamic all-pairs returned %v", err)
	}
	if _, err := pt.MarginalizeManyCtx(ctx, [][]int{{0}, {1, 2}}, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled marginalize-many returned %v", err)
	}
}

func TestBuilderAddBlockCtxCancelPoisons(t *testing.T) {
	codec, err := encoding.NewUniformCodec(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan(2).WithRate(faultinject.WorkerStall, 1)
	plan.StallDuration = 100 * time.Millisecond
	restore := faultinject.Activate(plan)
	defer restore()
	b := NewBuilder(codec, 1024, Options{P: 4})
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(i) % codec.KeySpace()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := b.AddKeysCtx(ctx, keys); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled block returned %v", err)
	}
	if err := b.AddKeys(keys); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("builder accepted a block after a failed one: %v", err)
	}
}
