package dataset

import (
	"io"

	"waitfreebn/internal/sched"
)

// StreamCSV reads an integer CSV with a header row and delivers the rows
// in blocks of at most blockSize, without ever materializing the whole
// dataset — the companion to core.Builder for out-of-core construction.
//
// Cardinalities must be supplied (streaming cannot infer them by a second
// pass); every state is validated against them. The callback receives a
// block of rows whose backing memory is reused between calls: consume or
// copy before returning. Returning an error from fn aborts the stream.
//
// The grammar is ReadCSV's, parsed by the same code, except that the
// header must have len(card) fields and is otherwise unchecked, and a
// state outside [0, card[j]) is reported as such. Blocks arrive in input
// order; on an error in the input, every full block before the failing
// line has been delivered and the partial one is dropped. The input is
// consumed 1 MiB at a time, so a row reaches fn only once the read that
// holds it has filled its 1 MiB or hit the end of the input.
func StreamCSV(r io.Reader, card []int, blockSize int, fn func(rows [][]uint8) error) error {
	return streamCSV(r, card, blockSize, fn, sched.DefaultP(), csvBlockBytes)
}
