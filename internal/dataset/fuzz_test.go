package dataset

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadCSV: arbitrary text must never panic the CSV reader.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n0,1\n1,0\n")
	f.Add("")
	f.Add("x\n")
	f.Add("a,b\n0\n")
	f.Add("a\n-1\n")
	f.Add("a\n999999999999999999999\n")
	f.Add("a,a,a\n0,0,0\n\n\n1,1,1")
	f.Fuzz(func(t *testing.T, input string) {
		d, err := ReadCSV(strings.NewReader(input), nil)
		if err == nil && d == nil {
			t.Fatal("nil dataset with nil error")
		}
		if err == nil {
			// Parsed data must round trip.
			var buf bytes.Buffer
			if werr := d.WriteCSV(&buf); werr != nil {
				t.Fatalf("round trip write failed: %v", werr)
			}
			back, rerr := ReadCSV(&buf, d.Cardinalities())
			if rerr != nil {
				t.Fatalf("round trip read failed: %v", rerr)
			}
			if back.NumSamples() != d.NumSamples() {
				t.Fatalf("round trip lost rows: %d != %d", back.NumSamples(), d.NumSamples())
			}
		}
	})
}

// FuzzReadCSVMatchesReference: for any input, the block parser at one and
// two workers, with blocks of 1 to 512 bytes so that block seams and
// carried partial lines fall everywhere, must return exactly what
// readCSVReference returns: the same cells, cardinalities and names, or
// the same error text.
func FuzzReadCSVMatchesReference(f *testing.F) {
	// Each case twice: in blocks of 1-8 bytes, so seams fall between and
	// inside its lines, and in one 512-byte block, so that p=2 cuts it
	// into two chunks.
	for i, in := range csvCases {
		f.Add(in, uint16(i%8), uint8(i))
		f.Add(in, uint16(511), uint8(i))
	}
	f.Fuzz(func(t *testing.T, input string, block uint16, cardSel uint8) {
		card := csvCards[int(cardSel)%len(csvCards)]
		for _, p := range []int{1, 2} {
			if d := diffReference(input, card, p, int(block)%512+1); d != "" {
				t.Fatalf("card=%v p=%d block=%d: %s", card, p, int(block)%512+1, d)
			}
		}
	})
}

var errLine = regexp.MustCompile(`^dataset: line (\d+) `)

// FuzzStreamCSV: the streaming reader must deliver exactly the rows the
// batch reader returns, in order, for any input; when the input is bad,
// both must name the same line, and the stream must have delivered every
// full block of rows before that line and nothing more.
func FuzzStreamCSV(f *testing.F) {
	f.Add("a,b\n0,1\n1,0\n", uint16(0), uint8(3))
	f.Add("a\n0\n\n1\n", uint16(1), uint8(1))
	f.Add("a,b\n0\n", uint16(2), uint8(2))
	f.Add("a,b\n0,1\n1,0\n1,1\n\n0,0\n1,x\n0,0\n", uint16(5), uint8(2))
	f.Add("a,b\n0,1\n1,0\n1,1\n0,0\n0,2\n", uint16(300), uint8(1))
	for i, in := range csvCases {
		f.Add(in, uint16(i%8), uint8(i))
		f.Add(in, uint16(511), uint8(i))
	}
	card := []int{2, 2}
	f.Fuzz(func(t *testing.T, input string, block uint16, rowsPer uint8) {
		batch, batchErr := ReadCSV(strings.NewReader(input), card)
		bs := int(rowsPer)%8 + 1
		for _, p := range []int{1, 2} {
			var got []uint8
			streamErr := streamCSV(strings.NewReader(input), card, bs, func(rows [][]uint8) error {
				if len(rows) > bs {
					t.Fatalf("block of %d rows, want at most %d", len(rows), bs)
				}
				for _, r := range rows {
					got = append(got, r...)
				}
				return nil
			}, p, int(block)%512+1)
			if (batchErr == nil) != (streamErr == nil) {
				t.Fatalf("p=%d: accept/reject disagreement: batch=%v stream=%v", p, batchErr, streamErr)
			}
			var want []uint8
			if batchErr == nil {
				want = batch.cells
			} else {
				bl, sl := errLine.FindStringSubmatch(batchErr.Error()), errLine.FindStringSubmatch(streamErr.Error())
				if len(bl) != len(sl) || len(bl) > 0 && bl[1] != sl[1] {
					t.Fatalf("p=%d: errors name different lines: batch=%v stream=%v", p, batchErr, streamErr)
				}
				if bl == nil {
					continue
				}
				// The lines before the failing one parse cleanly, and the
				// stream has delivered their full blocks.
				line, _ := strconv.Atoi(bl[1])
				i := 0
				for k := 1; k < line; k++ {
					i += strings.IndexByte(input[i:], '\n') + 1
				}
				before, err := ReadCSV(strings.NewReader(input[:i]), card)
				if err != nil {
					t.Fatalf("p=%d: the lines before failing line %d do not parse: %v", p, line, err)
				}
				want = before.cells[:before.NumSamples()/bs*bs*len(card)]
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("p=%d: streamed rows differ from the batch rows", p)
			}
		}
	})
}
