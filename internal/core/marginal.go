package core

import (
	"context"
	"fmt"
	"sync"

	"waitfreebn/internal/sched"
)

// Marginal is a dense marginal distribution table over an ordered subset of
// variables, produced by Algorithm 3. Counts are raw occurrence counts;
// Prob applies the deferred normalization by m (paper footnote 2,
// Algorithm 3 line 17).
type Marginal struct {
	Vars   []int    // the variables V, in table order
	Card   []int    // their cardinalities
	Counts []uint64 // flattened row-major counts, len = Π Card
	M      uint64   // total samples (the normalizer)
}

// Cells returns the number of cells in the marginal table.
func (mg *Marginal) Cells() int { return len(mg.Counts) }

// Count returns the raw count for the given states of Vars (same order).
func (mg *Marginal) Count(states ...uint8) uint64 {
	return mg.Counts[mg.cell(states)]
}

// Prob returns the empirical probability of the given states of Vars.
func (mg *Marginal) Prob(states ...uint8) float64 {
	if mg.M == 0 {
		return 0
	}
	return float64(mg.Counts[mg.cell(states)]) / float64(mg.M)
}

func (mg *Marginal) cell(states []uint8) int {
	if len(states) != len(mg.Vars) {
		panic(fmt.Sprintf("core: Marginal over %d variables indexed with %d states", len(mg.Vars), len(states)))
	}
	idx := 0
	for k, s := range states {
		if int(s) >= mg.Card[k] {
			panic(fmt.Sprintf("core: state %d out of range for variable %d (cardinality %d)", s, mg.Vars[k], mg.Card[k]))
		}
		idx = idx*mg.Card[k] + int(s)
	}
	return idx
}

// Total returns the sum of all counts (== M for a marginal over a complete
// table).
func (mg *Marginal) Total() uint64 {
	var total uint64
	for _, c := range mg.Counts {
		total += c
	}
	return total
}

// SumOver marginalizes further: it sums out every variable of mg except
// keep (an index into mg.Vars, not a variable id), returning the 1-D
// marginal of that variable. All-pairs MI uses this to derive P(x) and
// P(y) from P(x,y) instead of rescanning the table (Section IV-C).
func (mg *Marginal) SumOver(keep int) *Marginal {
	if keep < 0 || keep >= len(mg.Vars) {
		panic(fmt.Sprintf("core: SumOver(%d) on a %d-variable marginal", keep, len(mg.Vars)))
	}
	out := &Marginal{
		Vars:   []int{mg.Vars[keep]},
		Card:   []int{mg.Card[keep]},
		Counts: make([]uint64, mg.Card[keep]),
		M:      mg.M,
	}
	// Stride of `keep` in the row-major layout.
	stride := 1
	for k := keep + 1; k < len(mg.Card); k++ {
		stride *= mg.Card[k]
	}
	for cell, c := range mg.Counts {
		out.Counts[cell/stride%mg.Card[keep]] += c
	}
	return out
}

// SumOut marginalizes one variable away: it sums over axis (an index into
// mg.Vars, not a variable id) and returns the marginal of the remaining
// variables in their original order. Counts are exact, so the result equals
// a direct table scan over the reduced varset cell for cell; the CI search
// derives each greedy round's reduced marginals this way instead of
// rescanning the table.
func (mg *Marginal) SumOut(axis int) *Marginal {
	if axis < 0 || axis >= len(mg.Vars) {
		panic(fmt.Sprintf("core: SumOut(%d) on a %d-variable marginal", axis, len(mg.Vars)))
	}
	r := mg.Card[axis]
	inner := 1
	for _, c := range mg.Card[axis+1:] {
		inner *= c
	}
	out := &Marginal{
		Vars:   append(append(make([]int, 0, len(mg.Vars)-1), mg.Vars[:axis]...), mg.Vars[axis+1:]...),
		Card:   append(append(make([]int, 0, len(mg.Card)-1), mg.Card[:axis]...), mg.Card[axis+1:]...),
		Counts: make([]uint64, len(mg.Counts)/r),
		M:      mg.M,
	}
	// Row-major layout: cell = (outer·r + s)·inner + i, collapsing to
	// outer·inner + i once the axis state s is summed away.
	for o := 0; o < len(out.Counts)/inner; o++ {
		dst := out.Counts[o*inner : (o+1)*inner]
		for s := 0; s < r; s++ {
			src := mg.Counts[(o*r+s)*inner : (o*r+s+1)*inner]
			for i, c := range src {
				dst[i] += c
			}
		}
	}
	return out
}

// readP resolves the worker count for read-side (scan) primitives: p <= 0
// selects GOMAXPROCS. On a live table p is additionally capped at the
// partition count — partitions are the live path's unit of read parallelism
// — and the degradation is surfaced through the core_scan_clamped_total
// counter rather than silently. A frozen snapshot splits by index range, so
// no cap applies.
func (t *PotentialTable) readP(p int) int {
	if p <= 0 {
		p = sched.DefaultP()
	}
	if parts := t.liveParts(); t.frozen.Load() == nil && p > len(parts) {
		p = len(parts)
		if r := t.obs; r != nil {
			r.Help(metricScanClamped, "live scans whose worker count was capped at the partition count")
			r.Counter(metricScanClamped).Inc()
		}
	}
	return p
}

// mustScan converts an error from a Background-context scan into a panic:
// with no cancellation possible, the only failure mode left is a worker
// panic, which the legacy (non-ctx) entry points propagate loudly.
func mustScan(err error) {
	if err != nil {
		panic(err)
	}
}

// mergePartials sums partials[1:] into partials[0] and returns it.
func mergePartials(partials [][]uint64) []uint64 {
	counts := partials[0]
	for w := 1; w < len(partials); w++ {
		for c, v := range partials[w] {
			counts[c] += v
		}
	}
	return counts
}

// partialPool recycles the per-worker partial-count arrays of the scan
// kernels across queries. The lifetime rule every consumer follows:
// partials[0] escapes into the returned Marginal's Counts (and from there
// into the MarginalCache, which shares entries across requests), so it is
// always freshly allocated; only workers 1..p-1 draw from the pool, and
// they are returned immediately after mergePartials — at which point no
// reference to them survives.
var partialPool sync.Pool

// getPartials returns p per-worker partial arrays of cells zeroed counts.
// partials[0] is fresh (it will escape); the rest are pooled when a large
// enough array is available.
func getPartials(p, cells int) [][]uint64 {
	partials := make([][]uint64, p)
	partials[0] = make([]uint64, cells)
	for w := 1; w < p; w++ {
		partials[w] = pooledU64(cells)
	}
	return partials
}

func pooledU64(cells int) []uint64 {
	if v := partialPool.Get(); v != nil {
		s := *v.(*[]uint64)
		if cap(s) >= cells {
			s = s[:cells]
			clear(s)
			return s
		}
	}
	return make([]uint64, cells)
}

// putPartials releases partials[1:] back to the pool. partials[0] is left
// alone: its cells are the result the caller is about to hand out.
func putPartials(partials [][]uint64) {
	for w := 1; w < len(partials); w++ {
		s := partials[w]
		partialPool.Put(&s)
	}
}

// MarginalizeCtx computes the marginal distribution over vars using p
// workers (Algorithm 3). Each worker scans a disjoint subset of the
// partitions, decoding only the variables in vars from each key and
// accumulating a partial marginal; partials are then merged (line 16).
// p <= 0 selects GOMAXPROCS; on a live table p is additionally capped at
// the partition count, while a frozen table splits work by index range at
// any p (see readP).
//
// It runs under the fault-tolerant execution contract: workers observe ctx
// at chunk boundaries and the scan returns context.Canceled (or
// DeadlineExceeded) in bounded time. The per-key Cell loop is kept apart
// from MarginalizeManyCtx's block kernel, so either can check the other.
func (t *PotentialTable) MarginalizeCtx(ctx context.Context, vars []int, p int) (*Marginal, error) {
	p = t.readP(p)
	dec := t.codec.SubsetDecoder(vars)
	cells := dec.Cells()

	partials := getPartials(p, cells)
	if err := t.scanBlocksCtx(ctx, p, func(w int, keys, counts []uint64, _ bool) {
		pc := partials[w]
		for e, key := range keys {
			pc[dec.Cell(key)] += counts[e]
		}
	}); err != nil {
		return nil, err
	}

	card := make([]int, len(vars))
	for k, v := range vars {
		card[k] = t.codec.Cardinality(v)
	}
	counts := mergePartials(partials)
	putPartials(partials)
	return &Marginal{
		Vars:   append([]int(nil), vars...),
		Card:   card,
		Counts: counts,
		M:      t.m,
	}, nil
}

// MarginalizePairCtx is MarginalizeCtx for the two-variable case used by
// the drafting phase; it avoids the general subset-decoder indirection with
// a fixed-arity fast path. It runs under the same fault-tolerant execution
// contract.
func (t *PotentialTable) MarginalizePairCtx(ctx context.Context, i, j int, p int) (*Marginal, error) {
	p = t.readP(p)
	dec := t.codec.PairDecoder(i, j)
	ri, rj := t.codec.Cardinality(i), t.codec.Cardinality(j)
	cells := ri * rj

	partials := getPartials(p, cells)
	if err := t.scanBlocksCtx(ctx, p, func(w int, keys, counts []uint64, _ bool) {
		pc := partials[w]
		for e, key := range keys {
			pc[dec.Cell(key)] += counts[e]
		}
	}); err != nil {
		return nil, err
	}
	counts := mergePartials(partials)
	putPartials(partials)
	return &Marginal{
		Vars:   []int{i, j},
		Card:   []int{ri, rj},
		Counts: counts,
		M:      t.m,
	}, nil
}
