package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"waitfreebn/internal/sched"
)

// maxLineBytes bounds one CSV line: a line of this many bytes or more
// before its newline fails with bufio.ErrTooLong, the limit of the 1 MiB
// bufio.Scanner buffer the grammar was first defined with.
const maxLineBytes = 1 << 20

// csvBlockBytes is how much input the parser reads at a time. Each block's
// whole lines are split at newlines across the workers, so a block must be
// large enough that a worker's share outweighs starting it.
const csvBlockBytes = 1 << 20

// blockReader reads an input in blocks of whole lines, carrying the partial
// last line of one block into the next.
type blockReader struct {
	r        io.Reader
	block    int
	buf      []byte
	off, end int   // buf[off:end] is read but not yet returned
	err      error // io.EOF or the read error that ended the input
}

// next returns the next run of lines. Every line in it ends in '\n' except
// possibly the last, which is either the input's final line or the first
// maxLineBytes bytes of a longer one. At the end of the input it returns nil
// and the read error, nil at io.EOF. The run is valid until the next call.
func (b *blockReader) next() ([]byte, error) {
	b.end = copy(b.buf, b.buf[b.off:b.end])
	b.off = 0
	for b.err == nil {
		scanned := b.end
		b.fill()
		if b.err != nil {
			break
		}
		if i := bytes.LastIndexByte(b.buf[scanned:b.end], '\n'); i >= 0 {
			b.off = scanned + i + 1
			return b.buf[:b.off], nil
		}
		if b.end >= maxLineBytes {
			b.off = b.end
			return b.buf[:b.end], nil
		}
	}
	if b.end == 0 {
		if b.err == io.EOF {
			return nil, nil
		}
		return nil, b.err
	}
	b.off = b.end
	return b.buf[:b.end], nil
}

// fill reads up to block more bytes, stopping early only when the input
// ends. The buffer starts small and doubles as needed, so a small input
// costs little. Like bufio.Scanner, fill gives up on a reader that
// returns nothing many times in a row or claims more bytes than it was
// given room for.
func (b *blockReader) fill() {
	want := b.end + b.block
	for empties := 0; b.end < want; {
		if b.end == len(b.buf) {
			grown := make([]byte, max(2*len(b.buf), 64<<10))
			copy(grown, b.buf[:b.end])
			b.buf = grown
		}
		room := b.buf[b.end:min(want, len(b.buf))]
		n, err := b.r.Read(room)
		if n < 0 || n > len(room) {
			b.err = bufio.ErrBadReadCount
			return
		}
		b.end += n
		if err != nil {
			b.err = err
			return
		}
		if n > 0 {
			empties = 0
		} else if empties++; empties > 100 {
			b.err = io.ErrNoProgress
			return
		}
	}
}

// lineError is a grammar error on one numbered input line.
type lineError struct {
	line   int
	detail string
}

func (e *lineError) Error() string { return fmt.Sprintf("dataset: line %d %s", e.line, e.detail) }

// csvHeader reads the header line and returns its comma-separated fields,
// untrimmed, with the rest of the first block.
func csvHeader(src *blockReader) (fields []string, rest []byte, err error) {
	first, err := src.next()
	if first == nil {
		if err != nil {
			return nil, nil, err
		}
		return nil, nil, errors.New("dataset: empty input")
	}
	line := first
	if i := bytes.IndexByte(first, '\n'); i >= 0 {
		line, rest = first[:i], first[i+1:]
	}
	if len(line) >= maxLineBytes {
		return nil, nil, bufio.ErrTooLong
	}
	return strings.Split(strings.TrimSpace(string(line)), ","), rest, nil
}

// csvRows is the grammar of the lines after the header: n comma-separated
// integer states per line.
type csvRows struct {
	n int
	// card bounds each column's states; nil infers them (ReadCSV only).
	card []int
	// stream selects StreamCSV's single range error text.
	stream bool
}

// chunk is one worker's share of a block.
type chunk struct {
	cells []uint8 // rows parsed before err, row-major
	card  []int   // when inferring: per column, 1 + the largest state in cells
	lines int     // lines consumed, the failing one included
	err   error   // first error; a *lineError counts lines from the chunk
}

// parse reads the body of the CSV from rest and then src, parsing each
// block's lines on p workers, and calls emit with the parsed rows in input
// order. On an error it first emits every row before the failing line,
// then returns the error of the lowest-numbered failing line, as a serial
// scan would. When inferring it returns the inferred cardinalities.
func (g *csvRows) parse(src *blockReader, rest []byte, p int, emit func(cells []uint8) error) ([]int, error) {
	card := g.card
	if card == nil {
		card = ones(g.n)
	}
	line := 1 // the header
	for block := rest; ; {
		for _, c := range g.parseBlock(block, p) {
			if len(c.cells) > 0 {
				if err := emit(c.cells); err != nil {
					return nil, err
				}
			}
			if c.err != nil {
				var le *lineError
				if errors.As(c.err, &le) {
					le.line += line
				}
				return nil, c.err
			}
			line += c.lines
			for j, r := range c.card {
				card[j] = max(card[j], r)
			}
		}
		var err error
		if block, err = src.next(); block == nil {
			return card, err
		}
	}
}

// parseBlock splits block into p chunks at line starts and parses them in
// parallel. The chunks are returned in input order.
func (g *csvRows) parseBlock(block []byte, p int) []chunk {
	cut := make([]int, p+1)
	cut[p] = len(block)
	for w := 1; w < p; w++ {
		b := max(w*len(block)/p, cut[w-1])
		if b > 0 && b < len(block) {
			if i := bytes.IndexByte(block[b-1:], '\n'); i >= 0 {
				b += i
			} else {
				b = len(block)
			}
		}
		cut[w] = b
	}
	chunks := make([]chunk, p)
	sched.Run(p, func(w int) {
		chunks[w] = g.parseChunk(block[cut[w]:cut[w+1]])
	})
	return chunks
}

// parseChunk parses whole lines. A line of digits and commas ending in
// "\n" or "\r\n" takes the byte-level fast path; any other line is parsed
// by slowRow, which defines the grammar.
func (g *csvRows) parseChunk(data []byte) (c chunk) {
	n := g.n
	// A stored row took at least 2n bytes of data with its newline (n
	// non-empty fields, n-1 commas; only the last line may lack one), so
	// this capacity holds every row plus room for the line being parsed.
	c.cells = make([]uint8, 0, ((len(data)+1)/(2*n)+1)*n)
	lim := g.card
	if lim == nil {
		c.card = ones(n)
		lim = c.card
	}
	for i := 0; i < len(data); {
		c.lines++
		if data[i] == '\n' {
			i++
			continue
		}
		base := len(c.cells)
		row := c.cells[base : base+n]
		k := fastRow(data[i:], row, lim, g.card == nil)
		if k > maxLineBytes {
			c.err = bufio.ErrTooLong
			return c
		}
		if k == 0 {
			line := data[i:]
			if j := bytes.IndexByte(line, '\n'); j >= 0 {
				line = line[:j]
				k = j + 1
			} else {
				k = len(line)
			}
			blank, err := g.slowRow(line, row)
			if err != nil {
				var le *lineError
				if errors.As(err, &le) {
					le.line = c.lines
				}
				c.err = err
				return c
			}
			if blank {
				i += k
				continue
			}
			for j, r := range c.card {
				c.card[j] = max(r, int(row[j])+1)
			}
		}
		i += k
		c.cells = c.cells[:base+n]
	}
	return c
}

// ones returns n cardinalities of 1, the bound before any state is seen.
func ones(n int) []int {
	s := make([]int, n)
	for j := range s {
		s[j] = 1
	}
	return s
}

// fastRow parses one line of len(row) fields, each of one to nine digits,
// ending in "\n" or "\r\n". It returns the bytes consumed, or 0 when the
// line has any other form or a state above 255 or not below lim; when grow
// is set, lim instead rises to admit the state.
func fastRow(data []byte, row []uint8, lim []int, grow bool) int {
	lim = lim[:len(row)]
	if w := 2 * len(row); len(data) >= w && data[w-1] == '\n' && digitRow(data[:w-1], row, lim, grow) {
		return w
	}
	i := 0
	for col := range row {
		v, start := 0, i
		for ; i < len(data); i++ {
			d := data[i] - '0'
			if d > 9 {
				break
			}
			v = v*10 + int(d)
		}
		if i == start || i-start > 9 || i == len(data) || v > 255 {
			return 0
		}
		if v >= lim[col] {
			if !grow {
				return 0
			}
			lim[col] = v + 1
		}
		row[col] = uint8(v)
		c := data[i]
		i++
		switch {
		case col < len(row)-1:
			if c != ',' {
				return 0
			}
		case c == '\n':
			return i
		case c == '\r' && i < len(data) && data[i] == '\n':
			return i + 1
		default:
			return 0
		}
	}
	return 0
}

// digitRow is fastRow for the commonest line, n single digits separated by
// commas (line excludes the newline): with no field boundary to search
// for, it is about twice as fast.
func digitRow(line []byte, row []uint8, lim []int, grow bool) bool {
	lim = lim[:len(row)]
	line = line[:2*len(row)-1]
	for col := range row {
		d := line[2*col] - '0'
		if d > 9 || (col > 0 && line[2*col-1] != ',') {
			return false
		}
		if int(d) >= lim[col] {
			if !grow {
				return false
			}
			lim[col] = int(d) + 1
		}
		row[col] = d
	}
	return true
}

// slowRow parses one line, without its newline, by the full grammar: the
// line and each field trimmed of Unicode white space, a blank line
// skipped, each field an integer as strconv.Atoi reads it. It reports
// whether the line was blank; it fills row otherwise.
func (g *csvRows) slowRow(line []byte, row []uint8) (blank bool, err error) {
	if len(line) >= maxLineBytes {
		return false, bufio.ErrTooLong
	}
	text := strings.TrimSpace(string(line))
	if text == "" {
		return true, nil
	}
	fields := strings.Split(text, ",")
	if len(fields) != g.n {
		return false, &lineError{detail: fmt.Sprintf("has %d fields, want %d", len(fields), g.n)}
	}
	for j, f := range fields {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return false, &lineError{detail: fmt.Sprintf("column %d: %v", j, err)}
		}
		if g.stream {
			if v < 0 || v >= g.card[j] {
				return false, &lineError{detail: fmt.Sprintf("column %d: state %d outside [0,%d)", j, v, g.card[j])}
			}
		} else {
			if v < 0 || v > 255 {
				return false, &lineError{detail: fmt.Sprintf("column %d: state %d outside [0,255]", j, v)}
			}
			if g.card != nil && v >= g.card[j] {
				return false, &lineError{detail: fmt.Sprintf("column %d: state %d >= cardinality %d", j, v, g.card[j])}
			}
		}
		row[j] = uint8(v)
	}
	return false, nil
}

// readCSVNamed is ReadCSVNamed on p workers reading block bytes at a time.
func readCSVNamed(r io.Reader, card []int, p, block int) (*Dataset, []string, error) {
	src := &blockReader{r: r, block: block}
	header, rest, err := csvHeader(src)
	if err != nil {
		return nil, nil, err
	}
	n := len(header)
	if n == 1 && header[0] == "" {
		return nil, nil, errors.New("dataset: empty header")
	}
	names := make([]string, n)
	for j, h := range header {
		names[j] = strings.TrimSpace(h)
	}
	if card != nil && len(card) != n {
		return nil, nil, fmt.Errorf("dataset: header has %d columns, cardinalities has %d", n, len(card))
	}
	var parts [][]uint8
	m := 0
	card, err = (&csvRows{n: n, card: card}).parse(src, rest, p, func(cells []uint8) error {
		parts = append(parts, cells)
		m += len(cells) / n
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// A caller's cardinality outside [1,256] that no state ruled out first
	// (say 300 with every state below 256, or 0 with no rows) would panic
	// in New.
	if err := checkCard(card); err != nil {
		return nil, nil, err
	}
	d := New(m, card)
	off := 0
	for _, part := range parts {
		off += copy(d.cells[off:], part)
	}
	return d, names, nil
}

// checkCard reports the first cardinality outside [1,256], the range New
// accepts.
func checkCard(card []int) error {
	for j, c := range card {
		if c < 1 || c > 256 {
			return fmt.Errorf("dataset: variable %d cardinality %d outside [1,256]", j, c)
		}
	}
	return nil
}

// streamCSV is StreamCSV on p workers reading block bytes at a time.
func streamCSV(r io.Reader, card []int, blockSize int, fn func(rows [][]uint8) error, p, block int) error {
	if len(card) == 0 {
		return errors.New("dataset: no cardinalities supplied")
	}
	if err := checkCard(card); err != nil {
		return err
	}
	if blockSize <= 0 {
		blockSize = 1 << 14
	}
	src := &blockReader{r: r, block: block}
	header, rest, err := csvHeader(src)
	if err != nil {
		return err
	}
	n := len(card)
	if len(header) != n {
		return fmt.Errorf("dataset: header has %d columns, cardinalities %d", len(header), n)
	}

	backing := make([]uint8, blockSize*n)
	rows := make([][]uint8, 0, blockSize)
	flush := func() error {
		if len(rows) == 0 {
			return nil
		}
		err := fn(rows)
		rows = rows[:0]
		return err
	}
	_, err = (&csvRows{n: n, card: card, stream: true}).parse(src, rest, p, func(cells []uint8) error {
		for len(cells) > 0 {
			k := copy(backing[len(rows)*n:], cells) / n
			cells = cells[k*n:]
			for i := len(rows); k > 0; i, k = i+1, k-1 {
				rows = append(rows, backing[i*n:(i+1)*n:(i+1)*n])
			}
			if len(rows) == blockSize {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}
