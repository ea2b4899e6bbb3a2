// Package dataset defines the training-data representation (the m×n matrix
// D of Section II-B) and the synthetic workload generators used by the
// paper's evaluation.
//
// A Dataset stores one byte per observation cell, row-major, so row i is a
// contiguous state string D_i — the exact layout the table-construction
// primitive scans. Generators produce data deterministically from a seed,
// in parallel, with one RNG stream per worker so that the output is
// independent of P.
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"

	"waitfreebn/internal/encoding"
	"waitfreebn/internal/rng"
	"waitfreebn/internal/sched"
)

// Dataset is an m×n matrix of discrete observations. Cell (i, j) holds the
// state of variable j in sample i, with states in [0, Cardinality(j)).
type Dataset struct {
	m, n  int
	card  []int
	cells []uint8 // row-major, len = m*n
}

// New returns an all-zero dataset with m samples of the given per-variable
// cardinalities. It panics on m < 0, empty cardinalities, or a cardinality
// outside [1, 256].
func New(m int, cardinalities []int) *Dataset {
	if m < 0 {
		panic(fmt.Sprintf("dataset: negative sample count %d", m))
	}
	if len(cardinalities) == 0 {
		panic("dataset: no variables")
	}
	for j, r := range cardinalities {
		if r < 1 || r > 256 {
			panic(fmt.Sprintf("dataset: variable %d cardinality %d outside [1,256]", j, r))
		}
	}
	return &Dataset{
		m:     m,
		n:     len(cardinalities),
		card:  append([]int(nil), cardinalities...),
		cells: make([]uint8, m*len(cardinalities)),
	}
}

// NewUniformCard returns an all-zero dataset with m samples of n variables
// that all take r states.
func NewUniformCard(m, n, r int) *Dataset {
	card := make([]int, n)
	for i := range card {
		card[i] = r
	}
	return New(m, card)
}

// NumSamples returns m.
func (d *Dataset) NumSamples() int { return d.m }

// NumVars returns n.
func (d *Dataset) NumVars() int { return d.n }

// Cardinality returns the number of states of variable j.
func (d *Dataset) Cardinality(j int) int { return d.card[j] }

// Cardinalities returns a copy of the per-variable cardinalities.
func (d *Dataset) Cardinalities() []int { return append([]int(nil), d.card...) }

// Row returns sample i as a slice aliasing the dataset's storage. Callers
// must not modify it; use Set for writes.
func (d *Dataset) Row(i int) []uint8 {
	return d.cells[i*d.n : (i+1)*d.n : (i+1)*d.n]
}

// RowsFlat returns samples [lo, hi) as one contiguous row-major slab
// aliasing the dataset's storage — the input shape of the column-major
// block encode (encoding.Codec.EncodeFlat). Callers must not modify it.
func (d *Dataset) RowsFlat(lo, hi int) []uint8 {
	return d.cells[lo*d.n : hi*d.n : hi*d.n]
}

// Get returns the state of variable j in sample i.
func (d *Dataset) Get(i, j int) uint8 { return d.cells[i*d.n+j] }

// Set assigns the state of variable j in sample i. It panics if the state
// exceeds the variable's cardinality.
func (d *Dataset) Set(i, j int, s uint8) {
	if int(s) >= d.card[j] {
		panic(fmt.Sprintf("dataset: state %d out of range for variable %d (cardinality %d)", s, j, d.card[j]))
	}
	d.cells[i*d.n+j] = s
}

// Codec returns the key codec matching this dataset's cardinalities.
func (d *Dataset) Codec() (*encoding.Codec, error) {
	return encoding.NewCodec(d.card)
}

// genChunk is the number of rows generated from one RNG stream. Streams
// are a function of (seed, chunk index) only, so generated data is
// identical for every worker count p.
const genChunk = 4096

// chunkSeed derives the RNG stream for one chunk of rows.
func chunkSeed(seed uint64, chunk int) uint64 {
	return rng.Mix64(rng.Mix64(seed) ^ rng.Mix64(uint64(chunk)+0x9e37))
}

// forEachChunk runs gen(chunk, lo, hi) over fixed-size row chunks,
// distributing chunks cyclically across p workers.
func (d *Dataset) forEachChunk(p int, gen func(chunk, lo, hi int)) {
	if p <= 0 {
		p = sched.DefaultP()
	}
	chunks := (d.m + genChunk - 1) / genChunk
	if chunks == 0 {
		return
	}
	if p > chunks {
		p = chunks
	}
	sched.Run(p, func(w int) {
		for c := w; c < chunks; c += p {
			lo := c * genChunk
			hi := lo + genChunk
			if hi > d.m {
				hi = d.m
			}
			gen(c, lo, hi)
		}
	})
}

// UniformIndependent fills the dataset with independent uniform draws per
// variable — the exact workload of the paper's evaluation ("synthesized
// from uniform and independent distributions for each variable",
// Section V-A). Generation runs on p workers; the result depends only on
// seed, not on p.
func (d *Dataset) UniformIndependent(seed uint64, p int) {
	d.forEachChunk(p, func(chunk, lo, hi int) {
		src := rng.NewXoshiro256SS(chunkSeed(seed, chunk))
		for i := lo; i < hi; i++ {
			row := d.cells[i*d.n : (i+1)*d.n]
			for j := range row {
				row[j] = uint8(src.Uint64n(uint64(d.card[j])))
			}
		}
	})
}

// Zipf fills the dataset with independent draws per variable where state s
// of variable j has probability proportional to 1/(s+1)^skew. skew = 0
// degenerates to uniform. Skewed data concentrates keys in fewer distinct
// state strings, which stresses the contention behaviour of lock-based
// builders (hot keys) without changing the wait-free builder's path.
func (d *Dataset) Zipf(seed uint64, skew float64, p int) {
	// Precompute per-variable cumulative distributions.
	cdfs := make([][]float64, d.n)
	for j := 0; j < d.n; j++ {
		w := make([]float64, d.card[j])
		var sum float64
		for s := range w {
			w[s] = 1.0 / math.Pow(float64(s+1), skew)
			sum += w[s]
		}
		cdf := make([]float64, d.card[j])
		acc := 0.0
		for s := range w {
			acc += w[s] / sum
			cdf[s] = acc
		}
		cdf[len(cdf)-1] = 1.0
		cdfs[j] = cdf
	}
	d.forEachChunk(p, func(chunk, rowLo, rowHi int) {
		src := rng.NewXoshiro256SS(chunkSeed(seed, chunk))
		for i := rowLo; i < rowHi; i++ {
			row := d.cells[i*d.n : (i+1)*d.n]
			for j := range row {
				u := src.Float64()
				cdf := cdfs[j]
				lo, hi := 0, len(cdf)-1
				for lo < hi {
					mid := (lo + hi) / 2
					if cdf[mid] < u {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				row[j] = uint8(lo)
			}
		}
	})
}

// ZipfRows fills the dataset so that entire rows (joint state strings,
// i.e. the keys of the potential table) are Zipf-rank distributed over the
// whole key space: the rank-k row has probability proportional to 1/k^skew,
// with rank 1 being the all-zeros row. skew = 0 degenerates to (continuous
// approximation of) uniform. This is the hot-KEY workload: per-variable
// Zipf (the Zipf method) multiplies n nearly-independent mild skews and
// leaves even its hottest full row far below one percent of the mass,
// whereas skew-adaptive construction needs genuinely hot table keys —
// at skew 1.2 over a few hundred thousand ranks the top row alone carries
// roughly 1/ζ-normalized 14% of all samples. Sampling uses the bounded
// continuous inverse CDF over ranks [1, N] (exact in the N→∞ per-rank
// limit, monotone and O(1) per row); the result depends only on seed,
// not on p.
func (d *Dataset) ZipfRows(seed uint64, skew float64, p int) {
	nKeys := 1.0
	for _, c := range d.card {
		nKeys *= float64(c)
	}
	d.forEachChunk(p, func(chunk, lo, hi int) {
		src := rng.NewXoshiro256SS(chunkSeed(seed, chunk))
		for i := lo; i < hi; i++ {
			u := src.Float64()
			var rank float64
			switch {
			case skew == 0:
				rank = u * nKeys
			case skew == 1:
				// lim s→1 of the general branch: F(x) ∝ ln x.
				rank = math.Pow(nKeys, u) - 1
			default:
				// Inverse of F(x) = (x^(1-s) - 1)/(N^(1-s) - 1), x ∈ [1, N].
				rank = math.Pow(u*(math.Pow(nKeys, 1-skew)-1)+1, 1/(1-skew)) - 1
			}
			k := uint64(rank)
			if k >= uint64(nKeys) {
				k = uint64(nKeys) - 1
			}
			// Decompose the rank mixed-radix into a state string; the digit
			// order is an arbitrary fixed bijection rank→row.
			row := d.cells[i*d.n : (i+1)*d.n]
			for j := d.n - 1; j >= 0; j-- {
				c := uint64(d.card[j])
				row[j] = uint8(k % c)
				k /= c
			}
		}
	})
}

// EncodeKeys converts every row to its key (Eq. 3) using p workers,
// appending into dst. This is a convenience for tests and benches that
// need the key stream without the table; the construction primitive itself
// encodes on the fly.
func (d *Dataset) EncodeKeys(codec *encoding.Codec, p int) []uint64 {
	keys := make([]uint64, d.m)
	spans := sched.BlockPartition(d.m, p)
	sched.Run(p, func(w int) {
		span := spans[w]
		if span.Lo < span.Hi {
			codec.EncodeFlat(d.RowsFlat(span.Lo, span.Hi), keys[span.Lo:span.Hi])
		}
	})
	return keys
}

// WriteCSV writes the dataset with a header row "x0,x1,..." followed by one
// integer row per sample.
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for j := 0; j < d.n; j++ {
		if j > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, "x%d", j); err != nil {
			return err
		}
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	for i := 0; i < d.m; i++ {
		row := d.Row(i)
		for j, s := range row {
			if j > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(int(s))); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a dataset written by WriteCSV (or any integer CSV with a
// header row). Cardinalities are inferred as 1 + max observed state per
// column unless card is non-nil, in which case states are validated
// against it.
//
// The grammar:
//   - Lines end in "\n"; a "\r" before it is white space, and the last
//     line may lack its newline. Lines are numbered from 1 in error texts,
//     blank ones included.
//   - The first line is the header: its comma-separated fields, each
//     trimmed, are the column names, and their count is n. A header that
//     trims to nothing is an error.
//   - Every later line is trimmed of white space (Unicode white space
//     included); a line left empty is skipped. Any other line must have n
//     comma-separated fields. Each field, trimmed, is a decimal integer as
//     strconv.Atoi reads it: a sign and leading zeros are allowed, so "+01"
//     is state 1. States must lie in [0,255] and below card, if given.
//   - A line of 1 MiB or more before its newline fails with
//     bufio.ErrTooLong.
//
// The first error in line order is returned. A supplied cardinality
// outside [1,256] is an error too, reported once the body parses. The
// input is read in blocks of whole lines, each split at newlines across
// sched.DefaultP() workers; the result and any error are the same at every
// GOMAXPROCS.
func ReadCSV(r io.Reader, card []int) (*Dataset, error) {
	d, _, err := ReadCSVNamed(r, card)
	return d, err
}

// ReadCSVNamed is ReadCSV that additionally returns the header's column
// names, so downstream reporting can use the dataset's own labels.
func ReadCSVNamed(r io.Reader, card []int) (*Dataset, []string, error) {
	return readCSVNamed(r, card, sched.DefaultP(), csvBlockBytes)
}
