package pgv3

import (
	"encoding/binary"
	"io"
)

// Batch bounds: a batch closes once it holds BatchRows rows, BatchBytes
// bytes of row bodies or batchCells cells, whichever comes first, so its cut
// depends on the result alone and never on how the rows arrived on the
// socket. A row that takes the arena to BatchBytes or past it still joins
// the open batch, and ends it.
const (
	BatchRows  = 1024
	BatchBytes = 256 << 10
	batchCells = 32 << 10
)

// Batch is a run of consecutive DataRows of one result, held as they came
// off the wire: one arena of the rows' bodies, and one flat index of where
// each cell lies in it, row by row. A receiver reads it a column at a time
// through Cell; the batch is only valid during the call that delivers it.
type Batch struct {
	width int       // cells per row
	rows  int       // rows held
	data  []byte    // the arena
	cells []cellRef // cell j of row i is cells[i*width+j]
}

// cellRef places one cell in a batch's arena; n is -1 for NULL.
type cellRef struct{ off, n int32 }

// Reset empties the batch for rows of width cells.
func (b *Batch) Reset(width int) {
	b.width, b.rows = width, 0
	b.data, b.cells = b.data[:0], b.cells[:0]
}

// Rows reports how many rows the batch holds.
func (b *Batch) Rows() int { return b.rows }

// Width reports the cells per row.
func (b *Batch) Width() int { return b.width }

// Cell returns cell col of row row: nil for SQL NULL, and otherwise a
// non-nil slice of the arena (empty for an empty string), in its column's
// format.
func (b *Batch) Cell(row, col int) []byte {
	r := b.cells[row*b.width+col]
	if r.n < 0 {
		return nil
	}
	return b.data[r.off : r.off+r.n : r.off+r.n]
}

// AppendRow copies one row of exactly Width cells into the batch, a nil
// cell as NULL: how a batch is built from rows that did not come off a
// wire.
func (b *Batch) AppendRow(cells [][]byte) {
	if b.data == nil {
		b.data = make([]byte, 0, 512) // an empty cell slices a non-nil arena
	}
	for _, c := range cells {
		if c == nil {
			b.cells = append(b.cells, cellRef{n: -1})
			continue
		}
		b.cells = append(b.cells, cellRef{off: int32(len(b.data)), n: int32(len(c))})
		b.data = append(b.data, c...)
	}
	b.rows++
}

// full reports whether the batch reached one of its bounds.
func (b *Batch) full() bool {
	return b.rows >= BatchRows || len(b.data) >= BatchBytes || len(b.cells) >= batchCells
}

// readRow reads an n-byte DataRow body from r onto the end of the arena and
// indexes its cells, each binary cell checked against its column's width in
// widths (0 for a text column). A malformed row is taken back out of the
// batch and reported as bad; ioErr is a failed read, after which the
// connection is unusable.
func (b *Batch) readRow(r io.Reader, n int, widths []int) (bad, ioErr error) {
	start := len(b.data)
	var err error
	if b.data, err = appendBody(r, b.data, n); err != nil {
		b.data = b.data[:start]
		return nil, err
	}
	if err := b.index(start, widths); err != nil {
		b.data, b.cells = b.data[:start], b.cells[:b.rows*b.width]
		return err, nil
	}
	b.rows++
	return nil, nil
}

// index records the cells of the row body at data[start:]. The field count
// must match the description and each binary cell must have its type's
// width.
func (b *Batch) index(start int, widths []int) error {
	body := b.data[start:]
	if len(body) < 2 {
		return errf("short DataRow")
	}
	n := int(binary.BigEndian.Uint16(body))
	if n != len(widths) {
		return errf("DataRow has %d fields, RowDescription %d columns", n, len(widths))
	}
	pos := 2
	for i, w := range widths {
		if len(body)-pos < 4 {
			return errf("short field length")
		}
		ln := int32(binary.BigEndian.Uint32(body[pos:]))
		pos += 4
		if ln < 0 {
			b.cells = append(b.cells, cellRef{n: -1})
			continue
		}
		if int(ln) > len(body)-pos {
			return errf("field overruns message")
		}
		if w != 0 && int(ln) != w {
			return errf("binary field %d is %d bytes, want %d", i, ln, w)
		}
		b.cells = append(b.cells, cellRef{off: int32(start + pos), n: ln})
		pos += int(ln)
	}
	return nil
}

// trim drops storage grown past maxRetained, as ServerConn.Flush does with
// its output buffer: one huge result must not pin its arena for the
// connection's life.
func (b *Batch) trim() {
	if cap(b.data) > maxRetained {
		b.data = nil
	}
	if cap(b.cells)*8 > maxRetained {
		b.cells = nil
	}
}
