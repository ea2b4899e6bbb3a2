package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"waitfreebn/internal/dataset"
	"waitfreebn/internal/spsc"
)

// TestQuickBuildMatchesOracle is the randomized differential test for the
// construction primitive: random shapes, cardinalities, worker counts and
// option combinations must all produce exactly the map-oracle counts.
func TestQuickBuildMatchesOracle(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(90))}
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(3000)
		n := 1 + r.Intn(8)
		card := make([]int, n)
		for i := range card {
			card[i] = 2 + r.Intn(4)
		}
		d := dataset.New(m, card)
		d.UniformIndependent(uint64(seed), 2)

		opts := Options{
			P:          1 + r.Intn(6),
			Partition:  PartitionKind(r.Intn(3)),
			Queue:      spsc.Kind(r.Intn(3)),
			Table:      TableKind(r.Intn(4)),
			WriteBatch: []int{0, 1, 2, 64}[r.Intn(4)],
		}
		pt, st, err := Build(d, opts)
		if err != nil {
			return false
		}
		codec, _ := d.Codec()
		oracle := map[uint64]uint64{}
		for i := 0; i < m; i++ {
			oracle[codec.Encode(d.Row(i))]++
		}
		if pt.Len() != len(oracle) || st.LocalKeys+st.ForeignKeys != uint64(m) {
			return false
		}
		ok := true
		pt.Range(func(key, count uint64) bool {
			if oracle[key] != count {
				ok = false
				return false
			}
			return true
		})
		return ok
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickMarginalInvariants checks, for random tables and random
// subsets: totals preserved, SumOver consistency, and the pair/subset
// decoder agreement.
func TestQuickMarginalInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(91))}
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 100 + r.Intn(2000)
		n := 2 + r.Intn(6)
		card := make([]int, n)
		for i := range card {
			card[i] = 2 + r.Intn(3)
		}
		d := dataset.New(m, card)
		d.UniformIndependent(uint64(seed)+7, 2)
		pt, _, err := Build(d, Options{P: 1 + r.Intn(4)})
		if err != nil {
			return false
		}
		// Random subset of 1..min(3,n) distinct variables.
		perm := r.Perm(n)
		k := 1 + r.Intn(min(3, n))
		vars := perm[:k]
		mg := marg(t, pt, vars, 1+r.Intn(4))
		if mg.Total() != uint64(m) {
			return false
		}
		// Summing any kept variable's 1-D marginal out of the joint must
		// match direct marginalization.
		keep := r.Intn(k)
		oneD := mg.SumOver(keep)
		direct := marg(t, pt, []int{vars[keep]}, 2)
		for c := range oneD.Counts {
			if oneD.Counts[c] != direct.Counts[c] {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickMISchedulesAgree: all four schedules produce identical MI
// matrices on random tables.
func TestQuickMISchedulesAgree(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(92))}
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 200 + r.Intn(2000)
		n := 2 + r.Intn(6)
		d := dataset.NewUniformCard(m, n, 2+r.Intn(3))
		d.UniformIndependent(uint64(seed)+13, 2)
		pt, _, err := Build(d, Options{P: 1 + r.Intn(4)})
		if err != nil {
			return false
		}
		p := 1 + r.Intn(4)
		ref := pt.AllPairsMI(p, MIFused)
		for _, sch := range []MISchedule{MIPartitionParallel, MIPairParallel, MIPairDynamic} {
			got := pt.AllPairsMI(p, sch)
			if !matricesEqual(got, ref, 1e-12) {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSerializationRoundTrip: random tables survive WriteTo/ReadTable
// bit-exactly.
func TestQuickSerializationRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(93))}
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := r.Intn(2000) // zero-sample tables round trip too
		n := 1 + r.Intn(7)
		card := make([]int, n)
		for i := range card {
			card[i] = 2 + r.Intn(5)
		}
		d := dataset.New(m, card)
		d.UniformIndependent(uint64(seed)+29, 2)
		pt, _, err := Build(d, Options{P: 1 + r.Intn(4)})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := pt.WriteTo(&buf); err != nil {
			return false
		}
		back, err := ReadTable(&buf, 1+r.Intn(4))
		if err != nil {
			return false
		}
		return back.Equal(pt) && back.NumSamples() == pt.NumSamples()
	}, cfg); err != nil {
		t.Error(err)
	}
}
