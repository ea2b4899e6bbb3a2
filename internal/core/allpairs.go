package core

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"waitfreebn/internal/encoding"
	"waitfreebn/internal/sched"
	"waitfreebn/internal/stats"
)

// MISchedule selects how Algorithm 4 distributes the n(n-1)/2 pairwise
// mutual-information computations over workers (ablation A3).
type MISchedule int

const (
	// MIFused makes a single pass over the table per worker, decoding each
	// key once into its full state string and updating all n(n-1)/2
	// contingency tables; partial contingency sets are merged at the end.
	// This trades memory (n²r²/2 cells per worker) for touching each table
	// entry once instead of once per pair — an optimization beyond the
	// paper, and the zero value. The other schedules are ablation A3.
	MIFused MISchedule = iota
	// MIPartitionParallel runs Algorithm 4 as written: pairs are processed
	// one at a time, and for each pair all P workers cooperate on the
	// marginalization (Algorithm 3 with P cores), followed by a merge and
	// one Ent evaluation.
	MIPartitionParallel
	// MIPairParallel distributes pairs cyclically across workers; each
	// worker scans the whole table for each of its pairs and computes MI
	// locally. No synchronization per pair, but every worker reads every
	// partition.
	MIPairParallel
	// MIPairDynamic is MIPairParallel with dynamic chunk claiming instead
	// of static cyclic assignment: workers pull the next pair from a
	// shared atomic counter, so per-pair cost variation (mixed
	// cardinalities, rebalanced partitions) cannot strand a worker idle.
	MIPairDynamic
)

// String returns the schedule's human-readable name.
func (s MISchedule) String() string {
	switch s {
	case MIPartitionParallel:
		return "partition-parallel"
	case MIPairParallel:
		return "pair-parallel"
	case MIFused:
		return "fused"
	case MIPairDynamic:
		return "pair-dynamic"
	default:
		return "unknown"
	}
}

// MIMatrix holds I(X_i;X_j) for all unordered pairs i < j over n variables,
// stored as a flattened strictly-upper-triangular matrix.
type MIMatrix struct {
	N      int
	values []float64
}

// NewMIMatrix returns a zeroed matrix for n variables.
func NewMIMatrix(n int) *MIMatrix {
	if n < 1 {
		panic(fmt.Sprintf("core: NewMIMatrix with n = %d", n))
	}
	return &MIMatrix{N: n, values: make([]float64, n*(n-1)/2)}
}

// PairIndex flattens an unordered pair to its triangular index. It panics
// unless 0 <= i < j < n.
func (m *MIMatrix) PairIndex(i, j int) int {
	if i > j {
		i, j = j, i
	}
	if i < 0 || i == j || j >= m.N {
		panic(fmt.Sprintf("core: pair (%d,%d) invalid for n = %d", i, j, m.N))
	}
	// Offset of row i in the packed triangle plus the column offset.
	return i*(2*m.N-i-1)/2 + (j - i - 1)
}

// At returns I(X_i;X_j).
func (m *MIMatrix) At(i, j int) float64 { return m.values[m.PairIndex(i, j)] }

// Set assigns I(X_i;X_j).
func (m *MIMatrix) Set(i, j int, v float64) { m.values[m.PairIndex(i, j)] = v }

// NumPairs returns n(n-1)/2.
func (m *MIMatrix) NumPairs() int { return len(m.values) }

// ForEachPair calls fn(i, j, value) for every pair in (i, j) order.
func (m *MIMatrix) ForEachPair(fn func(i, j int, v float64)) {
	idx := 0
	for i := 0; i < m.N-1; i++ {
		for j := i + 1; j < m.N; j++ {
			fn(i, j, m.values[idx])
			idx++
		}
	}
}

// AllPairsMI computes the mutual information of every pair of variables
// from the potential table (Algorithm 4) using p workers and the given
// schedule. p <= 0 selects GOMAXPROCS.
//
// Deprecated: use AllPairsMICtx.
func (t *PotentialTable) AllPairsMI(p int, schedule MISchedule) *MIMatrix {
	mi, err := t.AllPairsMICtx(context.Background(), p, schedule)
	mustScan(err)
	return mi
}

// AllPairsMICtx is AllPairsMI under the fault-tolerant execution contract:
// workers observe ctx between pairs and at chunk boundaries within a scan,
// returning context.Canceled (or DeadlineExceeded) in bounded time with all
// workers joined.
func (t *PotentialTable) AllPairsMICtx(ctx context.Context, p int, schedule MISchedule) (*MIMatrix, error) {
	if p <= 0 {
		p = sched.DefaultP()
	}
	n := t.codec.NumVars()
	mi := NewMIMatrix(n)
	var err error
	switch schedule {
	case MIPartitionParallel:
		err = t.allPairsPartitionParallel(ctx, mi, p)
	case MIPairParallel:
		err = t.allPairsPairParallel(ctx, mi, p)
	case MIFused:
		err = t.allPairsFused(ctx, mi, p)
	case MIPairDynamic:
		err = t.allPairsPairDynamic(ctx, mi, p)
	default:
		panic("core: unknown MI schedule")
	}
	if err != nil {
		return nil, err
	}
	return mi, nil
}

// miPair is one unordered variable pair in the flattened work list.
type miPair struct{ i, j int }

func enumeratePairs(n int) []miPair {
	pairs := make([]miPair, 0, n*(n-1)/2)
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, miPair{i, j})
		}
	}
	return pairs
}

// pairMI scans the whole table once for one pair and returns its mutual
// information. On a frozen table the scan streams the columnar snapshot in
// blocks, observing ctx once per block; on a live table checkCtx threads the
// caller's shared per-worker cancellation countdown through the inner Range
// loop. Either returns a non-nil cause when the scan should abort.
func (t *PotentialTable) pairMI(ctx context.Context, pr miPair, checkCtx func() error) (float64, error) {
	dec := t.codec.PairDecoder(pr.i, pr.j)
	ri, rj := t.codec.Cardinality(pr.i), t.codec.Cardinality(pr.j)
	counts := make([]uint64, ri*rj)
	var cause error
	if ft := t.frozen.Load(); ft != nil {
		done := ctx.Done()
		for pi := range ft.parts {
			fp := &ft.parts[pi]
			(sched.Span{Lo: 0, Hi: len(fp.keys)}).Chunks(scanBlockSize, func(c sched.Span) bool {
				select {
				case <-done:
					cause = context.Cause(ctx)
					return false
				default:
				}
				blockCounts := fp.counts[c.Lo:c.Hi]
				for e, key := range fp.keys[c.Lo:c.Hi] {
					counts[dec.Cell(key)] += blockCounts[e]
				}
				return true
			})
			if cause != nil {
				return 0, cause
			}
		}
		return stats.MutualInfoCounts(counts, ri, rj), nil
	}
	for _, part := range t.liveParts() {
		part.Range(func(key, count uint64) bool {
			if cause = checkCtx(); cause != nil {
				return false
			}
			counts[dec.Cell(key)] += count
			return true
		})
		if cause != nil {
			return 0, cause
		}
	}
	return stats.MutualInfoCounts(counts, ri, rj), nil
}

// ctxChecker returns the countdown-based cancellation probe shared by the
// pair-scanning schedules: cheap (a decrement) on the fast path, consulting
// ctx only every cancelCheckStride calls.
func ctxChecker(ctx context.Context) func() error {
	done := ctx.Done()
	check := cancelCheckStride
	return func() error {
		if check--; check == 0 {
			check = cancelCheckStride
			select {
			case <-done:
				return context.Cause(ctx)
			default:
			}
		}
		return nil
	}
}

// allPairsPartitionParallel is Algorithm 4 as printed: a sequential loop
// over pairs, each marginalized by all P workers (Algorithm 3), with P(x)
// and P(y) recovered from the pairwise joint by summation.
func (t *PotentialTable) allPairsPartitionParallel(ctx context.Context, mi *MIMatrix, p int) error {
	n := mi.N
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n; j++ {
			joint, err := t.MarginalizePairCtx(ctx, i, j, p)
			if err != nil {
				return err
			}
			mi.Set(i, j, stats.MutualInfoCounts(joint.Counts, joint.Card[0], joint.Card[1]))
		}
	}
	return nil
}

// allPairsPairParallel distributes pairs cyclically across workers.
func (t *PotentialTable) allPairsPairParallel(ctx context.Context, mi *MIMatrix, p int) error {
	pairs := enumeratePairs(mi.N)
	assign := sched.CyclicAssign(len(pairs), p)
	return sched.RunCtx(ctx, p, func(ctx context.Context, w int) error {
		check := ctxChecker(ctx)
		for _, pi := range assign[w] {
			v, err := t.pairMI(ctx, pairs[pi], check)
			if err != nil {
				return err
			}
			mi.Set(pairs[pi].i, pairs[pi].j, v)
		}
		return nil
	})
}

// allPairsPairDynamic distributes pairs with dynamic claiming: workers pull
// the next pair index from a shared atomic counter. Each worker hoists one
// cancellation checker for its whole run — allocating a fresh checker per
// pair would reset the countdown every pair and never consult ctx on small
// tables.
func (t *PotentialTable) allPairsPairDynamic(ctx context.Context, mi *MIMatrix, p int) error {
	pairs := enumeratePairs(mi.N)
	var next atomic.Int64
	return sched.RunCtx(ctx, p, func(ctx context.Context, w int) error {
		check := ctxChecker(ctx)
		for {
			pi := int(next.Add(1)) - 1
			if pi >= len(pairs) {
				return nil
			}
			v, err := t.pairMI(ctx, pairs[pi], check)
			if err != nil {
				return err
			}
			mi.Set(pairs[pi].i, pairs[pi].j, v)
		}
	})
}

// planeWords is the length of one bit-sliced column: one bit per entry of a
// sorted block, packed into uint64 words.
const planeWords = frozenScanBlockSize / 64

// fusedScratch is one worker's per-block working set for allPairsFused.
type fusedScratch struct {
	// col holds the block's decoded states column-major: variable j's
	// states occupy col[j*scanBlockSize : j*scanBlockSize+b].
	col []uint8
	// constV[j] is variable j's state if it is constant across the current
	// (sorted) block, else -1.
	constV []int
	// runsHint[j] bounds how many value runs variable j can have in the
	// current sorted block (its stride-quotient span, clamped to the block
	// length).
	runsHint []int
	// hist is n per-variable block histograms, maxCard cells apiece,
	// built lazily per block (histOK tracks which are current).
	hist   []uint64
	histOK []bool
	// plane is n bit-sliced columns of planeWords words: bit e of plane j
	// is variable j's state for entry e, built for varying binary variables
	// of a sorted block.
	plane []uint64
	// h1 caches Σ state·count per binary variable (h1OK tracks currency).
	h1   []uint64
	h1OK []bool
	// rare lists the block entries whose count is not 1, so bit-parallel
	// paths can treat the block as unit-weight plus a short correction list.
	rare []int32
}

func newFusedScratch(n, maxCard int) *fusedScratch {
	return &fusedScratch{
		col:      make([]uint8, n*scanBlockSize),
		constV:   make([]int, n),
		runsHint: make([]int, n),
		hist:     make([]uint64, n*maxCard),
		histOK:   make([]bool, n),
		plane:    make([]uint64, n*planeWords),
		h1:       make([]uint64, n),
		h1OK:     make([]bool, n),
		rare:     make([]int32, 0, frozenScanBlockSize),
	}
}

// fusedScratchPool recycles fusedScratch working sets across scans. Safe
// because every per-block field (constV, runsHint, histOK, h1OK, rare) is
// re-derived at the top of each block; only the geometry must fit.
var fusedScratchPool sync.Pool

// getFusedScratch returns a worker scratch sized for (n, maxCard), reusing
// a pooled one when its geometry is large enough. newFusedScratch sizes all
// n-proportional fields together, so checking histOK (length n) and hist
// (length n·maxCard) covers the rest.
func getFusedScratch(n, maxCard int) *fusedScratch {
	if v := fusedScratchPool.Get(); v != nil {
		sc := v.(*fusedScratch)
		if len(sc.histOK) >= n && len(sc.hist) >= n*maxCard {
			return sc
		}
	}
	return newFusedScratch(n, maxCard)
}

func putFusedScratch(scratch []*fusedScratch) {
	for _, sc := range scratch {
		if sc != nil {
			fusedScratchPool.Put(sc)
		}
	}
}

// histFor returns variable j's histogram of the block's counts, building it
// on first use within the block. When the column's value runs are long the
// run accumulates in a register before touching the histogram cell; short
// runs take the direct build, whose store-to-load chains are bounded by the
// histogram's size anyway.
func (sc *fusedScratch) histFor(j, maxCard, b int, card []int, counts []uint64) []uint64 {
	h := sc.hist[j*maxCard : j*maxCard+card[j]]
	if sc.histOK[j] {
		return h
	}
	sc.histOK[j] = true
	for s := range h {
		h[s] = 0
	}
	colJ := sc.col[j*scanBlockSize : j*scanBlockSize+b]
	if 4*sc.runsHint[j] > b {
		for e := 0; e < b; e++ {
			h[colJ[e]] += counts[e]
		}
		return h
	}
	run, acc := colJ[0], counts[0]
	for e := 1; e < b; e++ {
		if colJ[e] != run {
			h[run] += acc
			run, acc = colJ[e], 0
		}
		acc += counts[e]
	}
	h[run] += acc
	return h
}

// h1For returns Σ state·count for a varying binary variable of a sorted
// block: the popcount of its bit plane plus corrections for non-unit
// counts. This is the variable's marginal one-count over the block.
func (sc *fusedScratch) h1For(j int, counts []uint64) uint64 {
	if sc.h1OK[j] {
		return sc.h1[j]
	}
	sc.h1OK[j] = true
	plane := sc.plane[j*planeWords : (j+1)*planeWords]
	var h uint64
	for _, w := range plane {
		h += uint64(bits.OnesCount64(w))
	}
	for _, e := range sc.rare {
		h += ((plane[e>>6] >> (uint(e) & 63)) & 1) * (counts[e] - 1)
	}
	sc.h1[j] = h
	return h
}

// allPairsFused scans the table once, decodes every key fully, and updates
// all pairwise contingency tables in one pass. The scan runs in blocks: each
// block's keys are first decoded column-by-column into a per-worker
// column-major state scratch (one reciprocal decoder per variable, no
// per-key dispatch), then the pair loop walks the block once per pair so
// each pair's contingency tile stays cache-resident across the whole block
// (pair-block tiling). Sorted blocks (the frozen snapshot) additionally take
// fusedSortedBlock, which collapses constant-digit work instead of walking
// every entry for every pair.
func (t *PotentialTable) allPairsFused(ctx context.Context, mi *MIMatrix, p int) error {
	n := mi.N
	p = t.readP(p)
	card := make([]int, n)
	decs := make([]encoding.VarDecoder, n)
	maxCard := 1
	for j := 0; j < n; j++ {
		card[j] = t.codec.Cardinality(j)
		decs[j] = t.codec.VarDecoder(j)
		if card[j] > maxCard {
			maxCard = card[j]
		}
	}
	// Per-pair contingency table offsets within one flat slice.
	offsets := make([]int, mi.NumPairs()+1)
	idx := 0
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n; j++ {
			offsets[idx+1] = offsets[idx] + card[i]*card[j]
			idx++
		}
	}
	totalCells := offsets[len(offsets)-1]

	partials := getPartials(p, totalCells)
	scratch := make([]*fusedScratch, p)
	if err := t.scanBlocksCtx(ctx, p, func(w int, keys, counts []uint64, sorted bool) {
		sc := scratch[w]
		if sc == nil {
			sc = getFusedScratch(n, maxCard)
			scratch[w] = sc
		}
		pc := partials[w]
		if sorted {
			fusedSortedBlock(sc, pc, offsets, card, decs, maxCard, keys, counts)
			return
		}
		b := len(keys)
		col := sc.col
		for j := 0; j < n; j++ {
			decs[j].DecodeBlock(keys, col[j*scanBlockSize:j*scanBlockSize+b])
		}
		pairIdx := 0
		for i := 0; i < n-1; i++ {
			colI := col[i*scanBlockSize : i*scanBlockSize+b]
			for j := i + 1; j < n; j++ {
				rj := card[j]
				colJ := col[j*scanBlockSize : j*scanBlockSize+b]
				tile := pc[offsets[pairIdx]:offsets[pairIdx+1]]
				for e := 0; e < b; e++ {
					tile[int(colI[e])*rj+int(colJ[e])] += counts[e]
				}
				pairIdx++
			}
		}
	}); err != nil {
		return err
	}
	putFusedScratch(scratch)

	merged := mergePartials(partials)
	putPartials(partials)
	idx = 0
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n; j++ {
			mi.Set(i, j, stats.MutualInfoCounts(merged[offsets[idx]:offsets[idx+1]], card[i], card[j]))
			idx++
		}
	}
	return nil
}

// fusedSortedBlock is the sorted-block arm of the fused kernel. In a sorted
// block each digit column is piecewise constant, changing only where the key
// crosses a multiple of the variable's stride (stride_j = Π_{k<j} r_k, so
// high-index variables move slowest), and the stride quotients of the
// block's first and last key tell how much a column can move: an equal
// quotient pins the digit for the whole block, and the quotient difference
// bounds its value runs. That collapses the pair loop's work by stride
// class:
//
//   - both digits constant: one add of the block's total count;
//   - the slow digit j constant: card_i adds of variable i's block
//     histogram into one tile column (the histogram is built once per
//     block per variable, shared by every such pair);
//   - both binary and varying: the states are bit-sliced into planes (one
//     bit per entry), and the 2×2 tile has one degree of freedom beyond the
//     marginals — N[1,1] = popcount(plane_i AND plane_j) over four words,
//     corrected for the block's rare non-unit counts; the other three cells
//     follow from the plane popcounts and the block total in exact modular
//     uint64 arithmetic;
//   - both varying with long cell runs: each run accumulates in a register
//     before one tile store — without this, sorted input serializes the
//     direct kernel on back-to-back read-modify-writes of a single cell;
//   - short runs: the direct kernel, which sorted input can no longer hurt
//     because short runs interleave cells just like hash order.
//
// The bit-plane path is what makes the frozen scan cheap: building the
// planes costs one decode per varying binary variable per entry, after
// which every binary pair is ~3 word operations per 64 entries instead of a
// load-multiply-add per entry. Non-unit counts are collected once per block
// into a rare list (in a freshly built sparse table almost every count is
// 1) and patched in exactly.
//
// Mixed-radix strides nest (stride_j is a multiple of stride_i for i < j),
// so a pair's cell can only change where the fast digit i's quotient steps —
// runsHint[i] bounds the pair's cell runs — and "fast digit constant but
// slow digit varying" cannot happen. Every path adds the same totals the
// per-entry kernel would, so the merged tiles are bit-identical.
func fusedSortedBlock(sc *fusedScratch, pc []uint64, offsets, card []int, decs []encoding.VarDecoder, maxCard int, keys, counts []uint64) {
	n := len(card)
	b := len(keys)
	first, last := keys[0], keys[b-1]
	sc.rare = sc.rare[:0]
	blockTotal := uint64(b)
	for e, c := range counts {
		if c != 1 {
			sc.rare = append(sc.rare, int32(e))
			blockTotal += c - 1
		}
	}
	// Classify each variable by its stride-quotient span, then materialize
	// the varying ones: binary variables as bit planes (plus a state column
	// only when some varying variable is non-binary, so the mixed run-length
	// and direct kernels have both columns), others as state columns.
	mixed := false
	for j := 0; j < n; j++ {
		sc.histOK[j], sc.h1OK[j] = false, false
		if d := decs[j].Quot(last) - decs[j].Quot(first); d == 0 {
			sc.constV[j] = int(decs[j].Decode(first))
			continue
		} else if d < uint64(b) {
			sc.runsHint[j] = int(d) + 1
		} else {
			sc.runsHint[j] = b
		}
		sc.constV[j] = -1
		if card[j] != 2 {
			mixed = true
		}
	}
	col := sc.col
	for j := 0; j < n; j++ {
		if sc.constV[j] >= 0 {
			continue
		}
		if card[j] == 2 {
			plane := sc.plane[j*planeWords : (j+1)*planeWords]
			for w := range plane {
				plane[w] = 0
			}
			for e := 0; e < b; e++ {
				plane[e>>6] |= uint64(decs[j].Decode(keys[e])) << (e & 63)
			}
			if !mixed {
				continue
			}
		}
		decs[j].DecodeBlock(keys, col[j*scanBlockSize:j*scanBlockSize+b])
	}
	pairIdx := 0
	for i := 0; i < n-1; i++ {
		ci := sc.constV[i]
		ri := card[i]
		colI := col[i*scanBlockSize : i*scanBlockSize+b]
		planeI := sc.plane[i*planeWords : (i+1)*planeWords]
		for j := i + 1; j < n; j++ {
			rj := card[j]
			tile := pc[offsets[pairIdx]:offsets[pairIdx+1]]
			pairIdx++
			cj := sc.constV[j]
			switch {
			case ci >= 0 && cj >= 0:
				tile[ci*rj+cj] += blockTotal
			case cj >= 0:
				if ri == 2 {
					h1 := sc.h1For(i, counts)
					tile[cj] += blockTotal - h1
					tile[rj+cj] += h1
					continue
				}
				h := sc.histFor(i, maxCard, b, card, counts)
				for s := 0; s < ri; s++ {
					tile[s*rj+cj] += h[s]
				}
			case ci >= 0:
				// Unreachable while strides nest (see above); kept so the
				// kernel stays correct for any future encoding.
				row := tile[ci*rj : ci*rj+rj]
				if rj == 2 {
					h1 := sc.h1For(j, counts)
					row[0] += blockTotal - h1
					row[1] += h1
					continue
				}
				h := sc.histFor(j, maxCard, b, card, counts)
				for s := 0; s < rj; s++ {
					row[s] += h[s]
				}
			case ri == 2 && rj == 2:
				planeJ := sc.plane[j*planeWords : (j+1)*planeWords]
				var n11 uint64
				for w := range planeI {
					n11 += uint64(bits.OnesCount64(planeI[w] & planeJ[w]))
				}
				for _, e := range sc.rare {
					both := (planeI[e>>6] >> (uint(e) & 63)) & (planeJ[e>>6] >> (uint(e) & 63)) & 1
					n11 += both * (counts[e] - 1)
				}
				hi1 := sc.h1For(i, counts)
				hj1 := sc.h1For(j, counts)
				tile[0] += blockTotal - hi1 - hj1 + n11
				tile[1] += hj1 - n11
				tile[2] += hi1 - n11
				tile[3] += n11
			default:
				colJ := col[j*scanBlockSize : j*scanBlockSize+b]
				if b >= 4*sc.runsHint[i] {
					run := int(colI[0])*rj + int(colJ[0])
					acc := counts[0]
					for e := 1; e < b; e++ {
						cell := int(colI[e])*rj + int(colJ[e])
						if cell != run {
							tile[run] += acc
							run, acc = cell, 0
						}
						acc += counts[e]
					}
					tile[run] += acc
				} else {
					for e := 0; e < b; e++ {
						tile[int(colI[e])*rj+int(colJ[e])] += counts[e]
					}
				}
			}
		}
	}
}
