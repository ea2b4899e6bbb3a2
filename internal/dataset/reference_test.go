package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// readCSVReference is the line-at-a-time CSV reader the byte-level parser
// replaced, kept verbatim as the oracle the differential tests and
// FuzzReadCSVMatchesReference compare ReadCSVNamed against: identical
// cells, cardinalities and names, or the identical error text.
func readCSVReference(r io.Reader, card []int) (*Dataset, []string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("dataset: empty input")
	}
	header := strings.Split(strings.TrimSpace(sc.Text()), ",")
	n := len(header)
	if n == 0 || (n == 1 && header[0] == "") {
		return nil, nil, fmt.Errorf("dataset: empty header")
	}
	names := make([]string, n)
	for j, h := range header {
		names[j] = strings.TrimSpace(h)
	}
	if card != nil && len(card) != n {
		return nil, nil, fmt.Errorf("dataset: header has %d columns, cardinalities has %d", n, len(card))
	}
	var rows [][]uint8
	maxState := make([]int, n)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != n {
			return nil, nil, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(fields), n)
		}
		row := make([]uint8, n)
		for j, f := range fields {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, nil, fmt.Errorf("dataset: line %d column %d: %v", line, j, err)
			}
			if v < 0 || v > 255 {
				return nil, nil, fmt.Errorf("dataset: line %d column %d: state %d outside [0,255]", line, j, v)
			}
			if card != nil && v >= card[j] {
				return nil, nil, fmt.Errorf("dataset: line %d column %d: state %d >= cardinality %d", line, j, v, card[j])
			}
			if v > maxState[j] {
				maxState[j] = v
			}
			row[j] = uint8(v)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if card == nil {
		card = make([]int, n)
		for j := range card {
			card[j] = maxState[j] + 1
		}
	}
	d := New(len(rows), card)
	for i, row := range rows {
		copy(d.cells[i*n:(i+1)*n], row)
	}
	return d, names, nil
}
