package core

import (
	"context"
	"sync"

	"waitfreebn/internal/encoding"
)

// MarginalizeManyCtx computes marginal tables for several variable subsets
// in a single pass over the potential table. Algorithm 3 scans all
// partitions once per marginal; when a consumer needs many marginals (the
// CI-test batches of thickening, or sufficient statistics for score-based
// search), fusing the scans amortizes the per-key cost the same way the
// fused all-pairs-MI schedule does: each key is visited once and contributes
// to every requested marginal.
//
// Each block of entries is decoded one varset at a time by the
// column-at-a-time SubsetDecoder.CellBlock kernel into a per-worker cell
// column, and one pass then adds the block's counts into that varset's
// tile. The result is index-aligned with varsets. p <= 0 selects
// GOMAXPROCS. It runs under the fault-tolerant execution contract (see
// MarginalizeCtx).
func (t *PotentialTable) MarginalizeManyCtx(ctx context.Context, varsets [][]int, p int) ([]*Marginal, error) {
	if len(varsets) == 0 {
		return nil, nil
	}
	p = t.readP(p)
	decs := make([]*encoding.SubsetDecoder, len(varsets))
	offsets := make([]int, len(varsets)+1)
	for k, vars := range varsets {
		decs[k] = t.codec.SubsetDecoder(vars)
		offsets[k+1] = offsets[k] + decs[k].Cells()
	}
	totalCells := offsets[len(varsets)]

	partials := getPartials(p, totalCells)
	cols := getCellColumns(p)
	defer putCellColumns(cols)
	if err := t.scanBlocksCtx(ctx, p, func(w int, keys, counts []uint64, sorted bool) {
		pc := partials[w]
		cells := (*cols[w])[:len(keys)]
		for k, dec := range decs {
			dec.CellBlock(keys, sorted, cells)
			tile := pc[offsets[k]:offsets[k+1]]
			for e, c := range cells {
				tile[c] += counts[e]
			}
		}
	}); err != nil {
		return nil, err
	}
	merged := mergePartials(partials)
	putPartials(partials)

	out := make([]*Marginal, len(varsets))
	for k, vars := range varsets {
		card := make([]int, len(vars))
		for i, v := range vars {
			card[i] = t.codec.Cardinality(v)
		}
		out[k] = &Marginal{
			Vars:   append([]int(nil), vars...),
			Card:   card,
			Counts: merged[offsets[k]:offsets[k+1]:offsets[k+1]],
			M:      t.m,
		}
	}
	return out, nil
}

// cellColumnPool recycles the per-worker cell columns MarginalizeManyCtx
// decodes each scan block into, so a scan allocates no scratch per block
// and, in steady state, none per call.
var cellColumnPool = sync.Pool{New: func() any {
	col := make([]uint64, scanBlockSize)
	return &col
}}

// getCellColumns returns p pooled cell columns of scanBlockSize entries.
func getCellColumns(p int) []*[]uint64 {
	cols := make([]*[]uint64, p)
	for w := range cols {
		cols[w] = cellColumnPool.Get().(*[]uint64)
	}
	return cols
}

func putCellColumns(cols []*[]uint64) {
	for _, col := range cols {
		cellColumnPool.Put(col)
	}
}
