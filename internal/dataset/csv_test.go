package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// diffReference parses input with readCSVReference and with the block
// parser on p workers reading block bytes at a time, and describes the
// first difference, or returns "" when they agree.
func diffReference(input string, card []int, p, block int) string {
	want, wantNames, wantErr := readCSVReference(strings.NewReader(input), card)
	got, gotNames, gotErr := readCSVNamed(strings.NewReader(input), card, p, block)
	if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return ""
	}
	switch {
	case !slices.Equal(gotNames, wantNames):
		return fmt.Sprintf("names %q, reference %q", gotNames, wantNames)
	case got.NumSamples() != want.NumSamples() || got.NumVars() != want.NumVars():
		return fmt.Sprintf("shape %dx%d, reference %dx%d", got.NumSamples(), got.NumVars(), want.NumSamples(), want.NumVars())
	case !slices.Equal(got.Cardinalities(), want.Cardinalities()):
		return fmt.Sprintf("cardinalities %v, reference %v", got.Cardinalities(), want.Cardinalities())
	case !bytes.Equal(got.cells, want.cells):
		return "cells differ"
	case cap(got.cells) != len(got.cells):
		return fmt.Sprintf("cells capacity %d, length %d", cap(got.cells), len(got.cells))
	}
	return ""
}

// csvCases covers every branch of the grammar; FuzzReadCSVMatchesReference
// and FuzzStreamCSV seed their corpora with it.
var csvCases = []string{
	"a,b\n0,1\n1,0\n",
	"",
	"\n",
	" \r\n0\n",
	"x\n",
	"a,b\n0\n",
	"a\n-1\n",
	"a\n256\n",
	"a\n999999999999999999999\n",
	"a,a,a\n0,0,0\n\n\n1,1,1",
	// CRLF, and a "\r" that is not before a newline.
	"a,b\r\n0,1\r\n1,0\r\n\r\n1,1\r\n",
	"a,b\n0\r,1\n1,0\r",
	// No final newline.
	"a,b\n0,1\n1,0",
	// Signs and leading zeros.
	"a,b\n+1,-0\n007,0000000000000000001\n",
	"a\n+\n",
	"a\n0x1\n",
	// Unicode white space around a field and around the line.
	"a,b\n\u00a00\u2003,\u30001\n\u0085 1,0\u00a0\n",
	// Empty fields and a header with empty names.
	"a,,b\n0,,1\n",
	",\n0,0\n",
	"a,b\n,\n",
	// Blank lines that land on block seams at small block sizes.
	"a\n0\n\n\n1\n\r\n\n0\n\n\n\n\n1\n",
	// Errors in several chunks: the lowest line must win at any p.
	"a\n0\nx\n1\n0\n1\n0\n1\n0\n0\ny\n0\n",
	"a\n0\n1\n0\n1\n0\n1\n0\n0\n5,5\n-1\n",
	// Long fields and wide rows.
	"a,b,c,d,e,f,g,h\n" + strings.Repeat("255,0,12,3,0,9,1,200\n", 40),
}

// csvCards are the fixed cardinality vectors the differential tests try
// besides inference.
var csvCards = [][]int{nil, {2, 2}, {1}, {256}, {10, 10, 10}}

func TestReadCSVMatchesReference(t *testing.T) {
	for _, in := range csvCases {
		for _, card := range csvCards {
			for _, p := range []int{1, 2, 3} {
				for _, block := range []int{1, 3, 16, csvBlockBytes} {
					if d := diffReference(in, card, p, block); d != "" {
						t.Errorf("%q card=%v p=%d block=%d: %s", in, card, p, block, d)
					}
				}
			}
		}
	}
}

type stalledReader struct{}

func (stalledReader) Read([]byte) (int, error) { return 0, nil }

// TestReadCSVReaderBehaviour checks short reads, data returned with
// io.EOF, read errors after a partial line, and a reader that never makes
// progress against the reference.
func TestReadCSVReaderBehaviour(t *testing.T) {
	errBroken := errors.New("broken pipe")
	readers := map[string]func(string) io.Reader{
		"one byte":   func(s string) io.Reader { return iotest.OneByteReader(strings.NewReader(s)) },
		"half":       func(s string) io.Reader { return iotest.HalfReader(strings.NewReader(s)) },
		"data+EOF":   func(s string) io.Reader { return iotest.DataErrReader(strings.NewReader(s)) },
		"then error": func(s string) io.Reader { return io.MultiReader(strings.NewReader(s), iotest.ErrReader(errBroken)) },
		"stalled":    func(s string) io.Reader { return io.MultiReader(strings.NewReader(s), stalledReader{}) },
	}
	for name, open := range readers {
		for _, in := range []string{"a,b\n0,1\n1,0\n", "a,b\n0,1\n1,0", "a,b\n0,1\n1,x", "", "a,b"} {
			want, _, wantErr := readCSVReference(open(in), nil)
			for _, p := range []int{1, 2} {
				got, _, gotErr := readCSVNamed(open(in), nil, p, 3)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("%s %q p=%d: error %v, reference %v", name, in, p, gotErr, wantErr)
				} else if wantErr == nil && !bytes.Equal(got.cells, want.cells) {
					t.Errorf("%s %q p=%d: cells differ", name, in, p)
				}
			}
		}
	}
}

// TestReadCSVCardinalityAbove256 checks that the 255 ceiling holds when a
// supplied cardinality is larger: the state is rejected before the
// cardinality is.
func TestReadCSVCardinalityAbove256(t *testing.T) {
	for _, in := range []string{"a\n256\n", "a\n0\n299\n"} {
		for _, p := range []int{1, 2} {
			if d := diffReference(in, []int{300}, p, csvBlockBytes); d != "" {
				t.Errorf("%q p=%d: %s", in, p, d)
			}
		}
	}
}

// TestReadCSVBadCardinalityIsAnError checks the inputs on which no state
// rules a supplied cardinality out before New would: every state below 256
// with a cardinality of 300, and a header with no rows with a cardinality of
// 0. Both are the error StreamCSV gives, not a panic.
func TestReadCSVBadCardinalityIsAnError(t *testing.T) {
	for _, tc := range []struct {
		in   string
		card []int
	}{
		{"a\n0\n", []int{300}},
		{"a\n", []int{0}},
		{"a,b\n", []int{2, 0}},
	} {
		want := fmt.Sprintf("dataset: variable %d cardinality %d outside [1,256]", len(tc.card)-1, tc.card[len(tc.card)-1])
		for _, p := range []int{1, 2} {
			_, _, err := readCSVNamed(strings.NewReader(tc.in), tc.card, p, csvBlockBytes)
			if err == nil || err.Error() != want {
				t.Errorf("%q card %v p=%d: err %v, want %q", tc.in, tc.card, p, err, want)
			}
		}
		if _, err := ReadCSV(strings.NewReader(tc.in), tc.card); err == nil || err.Error() != want {
			t.Errorf("ReadCSV %q card %v: err %v, want %q", tc.in, tc.card, err, want)
		}
		if err := StreamCSV(strings.NewReader(tc.in), tc.card, 0, func([][]uint8) error { return nil }); err == nil || err.Error() != want {
			t.Errorf("StreamCSV %q card %v: err %v, want %q", tc.in, tc.card, err, want)
		}
	}
}

func TestReadCSVMatchesReferenceOnGeneratedData(t *testing.T) {
	d := New(5000, []int{2, 3, 17, 256})
	d.UniformIndependent(7, 2)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		for _, block := range []int{100, 4096, csvBlockBytes} {
			if diff := diffReference(buf.String(), nil, p, block); diff != "" {
				t.Errorf("p=%d block=%d: %s", p, block, diff)
			}
		}
	}
}

// TestReadCSVLineLimit checks the 1 MiB line limit at its edge, for the
// header and a body line, with and without a final newline.
func TestReadCSVLineLimit(t *testing.T) {
	field := func(size int) string { return strings.Repeat("0", size-1) + "1" }
	for _, size := range []int{maxLineBytes - 1, maxLineBytes, maxLineBytes + 1} {
		for _, in := range []string{
			"a\n" + field(size) + "\n0\n",
			"a\n0\n" + field(size),
			"a\nx\n" + field(size) + "\n",
			strings.Repeat("h", size) + "\n0\n",
			strings.Repeat("h", size),
		} {
			for _, p := range []int{1, 2} {
				for _, block := range []int{4096, csvBlockBytes} {
					if d := diffReference(in, nil, p, block); d != "" {
						t.Errorf("line of %d bytes, p=%d block=%d: %s", size, p, block, d)
					}
				}
			}
		}
	}
	_, err := ReadCSV(strings.NewReader("a\n"+field(maxLineBytes)+"\n"), nil)
	if err == nil || err.Error() != "bufio.Scanner: token too long" {
		t.Fatalf("1 MiB line: err = %v", err)
	}
}

// BenchmarkReadCSV parses the perfbench learn shape, 100k rows of 30
// binary columns, with the block parser and with the reference.
func BenchmarkReadCSV(b *testing.B) {
	d := NewUniformCard(100_000, 30, 2)
	d.UniformIndependent(1, 2)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	in := buf.Bytes()
	for _, bc := range []struct {
		name string
		read func() (*Dataset, []string, error)
	}{
		{"parser", func() (*Dataset, []string, error) { return ReadCSVNamed(bytes.NewReader(in), nil) }},
		{"reference", func() (*Dataset, []string, error) { return readCSVReference(bytes.NewReader(in), nil) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(in)))
			for i := 0; i < b.N; i++ {
				if _, _, err := bc.read(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
