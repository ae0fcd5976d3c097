// Package colbuf provides pooled, typed column builders for the result
// pipeline (paper §4.2): backend rows arrive a batch at a time and decode a
// column at a time into typed slices, presized from the row count of the
// text's last run, which finish directly as qval vectors — no per-cell atom
// boxing and no text round-trip. A sync.Pool recycles builder scratch (the
// builder struct, per-column headers, decode buffers) across results; the
// column data slices themselves are handed off to the finished vectors by
// Build and are never pooled, so a served table can never alias a later
// result.
package colbuf

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"hyperq/internal/qlang/qval"
	"hyperq/internal/wire/pgv3"
)

// Spec describes one result column to build: its name, the Q type the
// finished vector gets (the caller maps SQL types via xtra.QTypeForSQL),
// whether the column is translation plumbing to drop from the result (the
// implicit order column), and whether its wire cells arrive in PostgreSQL
// binary format rather than text.
type Spec struct {
	Name    string
	QType   qval.Type
	Discard bool
	Binary  bool
}

// column is one column under construction. Exactly one storage slice is
// active, selected by the spec's Q type; Build transfers it to the finished
// vector and nils it here.
type column struct {
	bools []bool
	i16   []int16
	i32   []int32
	i64   []int64 // long and the integer-backed temporals
	f32   []float32
	f64   []float64
	syms  []string
}

// TableBuilder accumulates one result set column-wise. Obtain with Get,
// configure with Reset, feed with AppendBatch (the batch's cells follow the
// Spec order, discarded columns included), finish with Build, and return
// the scratch with Release.
type TableBuilder struct {
	specs []Spec
	cols  []column
	rows  int
	// interns holds, per column, the symbol strings text cells have produced
	// so far in this result (see symbol).
	interns []map[string]string
}

// internBound caps each column's intern table, so a column of mostly
// distinct text (keys, free text) costs a bounded map, not one entry per
// row; cells past the bound still decode, as strings of their own.
const internBound = 1024

// pool recycles builder scratch. Column data slices never return here: Build
// transfers their ownership to the produced vectors (see Release).
var pool = sync.Pool{New: func() any { return &TableBuilder{} }}

// Get returns a builder from the pool. Call Reset before use and Release
// when done.
func Get() *TableBuilder {
	return pool.Get().(*TableBuilder)
}

// Release returns the builder's scratch to the pool. Any column data not
// taken by Build is dropped (the references are cleared so pooled builders
// cannot pin large results).
func (b *TableBuilder) Release() {
	for i := range b.cols {
		b.cols[i] = column{}
	}
	b.cols = b.cols[:0]
	b.specs = nil
	b.rows = 0
	b.clearInterns()
	pool.Put(b)
}

// Reset configures the builder for a new result. capHint, when positive,
// preallocates each kept column for that many rows; a column fed past it
// grows by append. The wire does not announce a result's size: sessions pass
// the row count of the text's last run on the connection (the PG v3
// client's describe cache), or -1 for a text it has not run. That count is
// rewritten after every run, so a result that shrank over-allocates once,
// to at most the size of the run before it.
func (b *TableBuilder) Reset(specs []Spec, capHint int) {
	b.specs = specs
	b.rows = 0
	if cap(b.cols) < len(specs) {
		b.cols = make([]column, len(specs))
	} else {
		b.cols = b.cols[:len(specs)]
		for i := range b.cols {
			b.cols[i] = column{}
		}
	}
	b.clearInterns()
	for len(b.interns) < len(specs) {
		b.interns = append(b.interns, nil)
	}
	if capHint <= 0 {
		return
	}
	for j, sp := range specs {
		if sp.Discard {
			continue
		}
		c := &b.cols[j]
		switch sp.QType {
		case qval.KBool:
			c.bools = make([]bool, 0, capHint)
		case qval.KShort:
			c.i16 = make([]int16, 0, capHint)
		case qval.KInt:
			c.i32 = make([]int32, 0, capHint)
		case qval.KReal:
			c.f32 = make([]float32, 0, capHint)
		case qval.KFloat:
			c.f64 = make([]float64, 0, capHint)
		case qval.KLong, qval.KDate, qval.KTime, qval.KTimestamp:
			c.i64 = make([]int64, 0, capHint)
		default:
			c.syms = make([]string, 0, capHint)
		}
	}
}

// Rows returns how many rows AppendBatch has added.
func (b *TableBuilder) Rows() int { return b.rows }

// AppendBatch decodes a batch of wire rows into the columns, one column at
// a time: each kept column picks its decoder once from its spec and runs it
// down the batch. A NULL cell appends the type's null — integer minimums,
// NaN for floats, the empty symbol, false for booleans (kdb+'s conventions,
// qval.Null). A binary column (Spec.Binary) decodes the fixed-width forms
// of the PG v3 binary set (decodeBinary); a text column decodes with
// core.parseQAtom's semantics, a symbol column interning its cells. The
// batch must have one cell per spec in each row. A cell that fails to
// decode fails the batch, naming its column, and leaves the builder to be
// released.
func (b *TableBuilder) AppendBatch(bt *pgv3.Batch) error {
	if bt.Width() != len(b.specs) {
		return fmt.Errorf("batch of %d columns for %d", bt.Width(), len(b.specs))
	}
	for j, sp := range b.specs {
		if sp.Discard {
			continue
		}
		var err error
		if sp.Binary {
			err = b.decodeBinary(j, bt)
		} else {
			err = b.decodeText(j, bt)
		}
		if err != nil {
			return fmt.Errorf("column %s: %w", sp.Name, err)
		}
	}
	b.rows += bt.Rows()
	return nil
}

// decodeText decodes text column j of bt.
func (b *TableBuilder) decodeText(j int, bt *pgv3.Batch) error {
	c := &b.cols[j]
	var err error
	switch b.specs[j].QType {
	case qval.KBool:
		c.bools, err = decodeCol(c.bools, bt, j, false, func(cell []byte) (bool, error) { return textIsTrue(cell), nil })
	case qval.KShort:
		c.i16, err = decodeCol(c.i16, bt, j, qval.NullShort, func(cell []byte) (int16, error) {
			n, err := ParseIntText(cell, 16)
			return int16(n), err
		})
	case qval.KInt:
		c.i32, err = decodeCol(c.i32, bt, j, qval.NullInt, func(cell []byte) (int32, error) {
			n, err := ParseIntText(cell, 32)
			return int32(n), err
		})
	case qval.KLong:
		c.i64, err = decodeCol(c.i64, bt, j, qval.NullLong, func(cell []byte) (int64, error) { return ParseIntText(cell, 64) })
	case qval.KReal:
		c.f32, err = decodeCol(c.f32, bt, j, float32(math.NaN()), func(cell []byte) (float32, error) {
			f, err := parseFloatText(cell, 32)
			return float32(f), err
		})
	case qval.KFloat:
		c.f64, err = decodeCol(c.f64, bt, j, math.NaN(), func(cell []byte) (float64, error) { return parseFloatText(cell, 64) })
	case qval.KDate:
		c.i64, err = decodeCol(c.i64, bt, j, qval.NullLong, ParseDateText[[]byte])
	case qval.KTime:
		c.i64, err = decodeCol(c.i64, bt, j, qval.NullLong, ParseTimeText[[]byte])
	case qval.KTimestamp:
		c.i64, err = decodeCol(c.i64, bt, j, qval.NullLong, ParseTimestampText[[]byte])
	default:
		c.syms = b.decodeSymbols(c.syms, j, bt)
	}
	return err
}

// decodeCol appends column j of bt to dst, null for a NULL cell and what dec
// makes of any other.
func decodeCol[T any](dst []T, bt *pgv3.Batch, j int, null T, dec func([]byte) (T, error)) ([]T, error) {
	for i := range bt.Rows() {
		cell := bt.Cell(i, j)
		if cell == nil {
			dst = append(dst, null)
			continue
		}
		v, err := dec(cell)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// decodeSymbols appends symbol column j of bt to dst, interned (symbol).
func (b *TableBuilder) decodeSymbols(dst []string, j int, bt *pgv3.Batch) []string {
	for i := range bt.Rows() {
		dst = append(dst, b.symbol(j, bt.Cell(i, j)))
	}
	return dst
}

// decodeBinary decodes binary column j of bt: the fixed-width form of the
// column's type in the PG v3 binary set — boolean (one byte), smallint,
// integer and bigint (2, 4 and 8 bytes big-endian, bigint also carrying an
// interval's nanoseconds), double precision (an IEEE float64, any NaN
// canonical), date (int32 days since 2000-01-01, the kdb+ epoch) and time
// (int64 microseconds since midnight, truncated to kdb+ milliseconds as the
// text form's first three fraction digits are). A cell of the wrong width,
// or in a column of another type, is an error.
func (b *TableBuilder) decodeBinary(j int, bt *pgv3.Batch) error {
	c := &b.cols[j]
	var err error
	switch qt := b.specs[j].QType; qt {
	case qval.KBool:
		c.bools, err = decodeFixed(c.bools, bt, j, 1, false, func(cell []byte) bool { return cell[0] != 0 })
	case qval.KShort:
		c.i16, err = decodeFixed(c.i16, bt, j, 2, qval.NullShort, func(cell []byte) int16 { return int16(binary.BigEndian.Uint16(cell)) })
	case qval.KInt:
		c.i32, err = decodeFixed(c.i32, bt, j, 4, qval.NullInt, func(cell []byte) int32 { return int32(binary.BigEndian.Uint32(cell)) })
	case qval.KDate:
		c.i64, err = decodeFixed(c.i64, bt, j, 4, qval.NullLong, func(cell []byte) int64 { return int64(int32(binary.BigEndian.Uint32(cell))) })
	case qval.KLong:
		c.i64, err = decodeFixed(c.i64, bt, j, 8, qval.NullLong, func(cell []byte) int64 { return int64(binary.BigEndian.Uint64(cell)) })
	case qval.KTime:
		c.i64, err = decodeFixed(c.i64, bt, j, 8, qval.NullLong, func(cell []byte) int64 { return int64(binary.BigEndian.Uint64(cell)) / 1000 })
	case qval.KFloat:
		c.f64, err = decodeFixed(c.f64, bt, j, 8, math.NaN(), func(cell []byte) float64 {
			f := math.Float64frombits(binary.BigEndian.Uint64(cell))
			if math.IsNaN(f) {
				f = math.NaN()
			}
			return f
		})
	default:
		for i := range bt.Rows() {
			if bt.Cell(i, j) != nil {
				return fmt.Errorf("binary cell in %s column", qval.TypeName(qt))
			}
		}
		b.decodeText(j, bt) // every cell NULL
	}
	return err
}

// decodeFixed appends binary column j of bt to dst: null for a NULL cell,
// and dec's value of any other, which must be width bytes.
func decodeFixed[T any](dst []T, bt *pgv3.Batch, j, width int, null T, dec func([]byte) T) ([]T, error) {
	for i := range bt.Rows() {
		cell := bt.Cell(i, j)
		switch len(cell) {
		case width:
			dst = append(dst, dec(cell))
		case 0:
			if cell == nil {
				dst = append(dst, null)
				continue
			}
			fallthrough
		default:
			return dst, fmt.Errorf("binary cell of %d bytes, want %d", len(cell), width)
		}
	}
	return dst, nil
}

// symbol returns field as a string, shared with every earlier equal cell of
// column j while the column's intern table has room: a result's symbol
// columns mostly repeat a few distinct values, so a cell usually costs a
// map probe instead of an allocation.
func (b *TableBuilder) symbol(j int, field []byte) string {
	m := b.interns[j]
	if s, ok := m[string(field)]; ok { // the lookup key is not allocated
		return s
	}
	s := string(field)
	if m == nil {
		m = make(map[string]string)
		b.interns[j] = m
	}
	if len(m) < internBound {
		m[s] = s
	}
	return s
}

// clearInterns empties the intern tables, keeping their storage for the
// next result but no reference to this one's strings.
func (b *TableBuilder) clearInterns() {
	for _, m := range b.interns {
		clear(m)
	}
}

// Build finishes the kept columns as qval vectors, transferring ownership of
// the storage slices: the builder drops its references, so Release cannot
// recycle memory a served table still points at. Column order follows the
// specs with discarded columns removed; with no kept columns both returns
// are nil, mirroring core.ResultToQ on a column-free result.
func (b *TableBuilder) Build() (names []string, data []qval.Value) {
	for j := range b.specs {
		sp := b.specs[j]
		if sp.Discard {
			b.cols[j] = column{}
			continue
		}
		names = append(names, sp.Name)
		data = append(data, b.take(j, sp.QType))
	}
	return names, data
}

// take finishes column j as a typed vector and clears the builder's
// reference to its storage.
func (b *TableBuilder) take(j int, qt qval.Type) qval.Value {
	c := &b.cols[j]
	defer func() { *c = column{} }()
	switch qt {
	case qval.KBool:
		if c.bools == nil {
			return qval.BoolVec{}
		}
		return qval.BoolVec(c.bools)
	case qval.KShort:
		if c.i16 == nil {
			return qval.ShortVec{}
		}
		return qval.ShortVec(c.i16)
	case qval.KInt:
		if c.i32 == nil {
			return qval.IntVec{}
		}
		return qval.IntVec(c.i32)
	case qval.KReal:
		if c.f32 == nil {
			return qval.RealVec{}
		}
		return qval.RealVec(c.f32)
	case qval.KFloat:
		if c.f64 == nil {
			return qval.FloatVec{}
		}
		return qval.FloatVec(c.f64)
	case qval.KLong:
		if c.i64 == nil {
			return qval.LongVec{}
		}
		return qval.LongVec(c.i64)
	case qval.KDate, qval.KTime, qval.KTimestamp:
		v := c.i64
		if v == nil {
			v = []int64{}
		}
		return qval.TemporalVec{T: qt, V: v}
	default:
		if c.syms == nil {
			return qval.SymbolVec{}
		}
		return qval.SymbolVec(c.syms)
	}
}
