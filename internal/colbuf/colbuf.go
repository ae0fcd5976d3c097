// Package colbuf provides pooled, typed column builders for the result
// pipeline (paper §4.2): backend rows stream cell-by-cell into preallocated
// typed slices, which finish directly as qval vectors — no per-cell atom
// boxing and no text round-trip. A sync.Pool recycles builder scratch
// (the builder struct, per-column headers, decode buffers) across results;
// the column data slices themselves are handed off to the finished vectors
// by Build and are never pooled, so a served table can never alias a later
// result.
package colbuf

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"hyperq/internal/qlang/qval"
)

// Spec describes one result column to build: its name, the Q type the
// finished vector gets (the caller maps SQL types via xtra.QTypeForSQL),
// whether the column is translation plumbing to drop from the result (the
// implicit order column), and whether its wire cells arrive in PostgreSQL
// binary format (AppendBinary) rather than text (AppendText).
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
// configure with Reset, feed with the Append methods (column index j follows
// the Spec order, discarded columns included), finish with Build, and return
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
// preallocates each kept column for that many rows (a wire result does not
// announce its size, so sessions pass -1).
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

// NumCols returns the configured column count (kept and discarded).
func (b *TableBuilder) NumCols() int { return len(b.specs) }

// Rows returns how many rows FinishRow has sealed.
func (b *TableBuilder) Rows() int { return b.rows }

// FinishRow marks the end of one appended row (row accounting only; cells
// are stored as they arrive).
func (b *TableBuilder) FinishRow() { b.rows++ }

// AppendNull appends the per-type null to column j: integer minimums, NaN
// for floats, the empty symbol, false for booleans — kdb+ null conventions
// (qval.Null).
func (b *TableBuilder) AppendNull(j int) {
	sp := b.specs[j]
	if sp.Discard {
		return
	}
	c := &b.cols[j]
	switch sp.QType {
	case qval.KBool:
		c.bools = append(c.bools, false)
	case qval.KShort:
		c.i16 = append(c.i16, qval.NullShort)
	case qval.KInt:
		c.i32 = append(c.i32, qval.NullInt)
	case qval.KReal:
		c.f32 = append(c.f32, float32(math.NaN()))
	case qval.KFloat:
		c.f64 = append(c.f64, math.NaN())
	case qval.KLong, qval.KDate, qval.KTime, qval.KTimestamp:
		c.i64 = append(c.i64, qval.NullLong)
	default:
		c.syms = append(c.syms, "")
	}
}

// AppendText decodes a PG text-format cell into column j with the same
// semantics as core.parseQAtom — the typed decode the pgv3 wire path uses,
// chosen once per column from the row description. field must be non-nil
// (NULL cells go through AppendNull).
func (b *TableBuilder) AppendText(j int, field []byte) error {
	sp := b.specs[j]
	if sp.Discard {
		return nil
	}
	c := &b.cols[j]
	switch sp.QType {
	case qval.KBool:
		c.bools = append(c.bools, textIsTrue(field))
	case qval.KShort:
		n, err := ParseIntText(field, 16)
		if err != nil {
			return err
		}
		c.i16 = append(c.i16, int16(n))
	case qval.KInt:
		n, err := ParseIntText(field, 32)
		if err != nil {
			return err
		}
		c.i32 = append(c.i32, int32(n))
	case qval.KLong:
		n, err := ParseIntText(field, 64)
		if err != nil {
			return err
		}
		c.i64 = append(c.i64, n)
	case qval.KReal:
		f, err := parseFloatText(field, 32)
		if err != nil {
			return err
		}
		c.f32 = append(c.f32, float32(f))
	case qval.KFloat:
		f, err := parseFloatText(field, 64)
		if err != nil {
			return err
		}
		c.f64 = append(c.f64, f)
	case qval.KDate:
		d, err := ParseDateText(field)
		if err != nil {
			return err
		}
		c.i64 = append(c.i64, d)
	case qval.KTime:
		ms, err := ParseTimeText(field)
		if err != nil {
			return err
		}
		c.i64 = append(c.i64, ms)
	case qval.KTimestamp:
		ns, err := ParseTimestampText(field)
		if err != nil {
			return err
		}
		c.i64 = append(c.i64, ns)
	default:
		c.syms = append(c.syms, b.symbol(j, field))
	}
	return nil
}

// AppendBinary decodes a PostgreSQL binary-format cell into column j, the
// fixed-width form of the column's type in the PG v3 binary set: boolean
// (one byte), smallint, integer and bigint (2, 4 and 8 bytes big-endian,
// bigint also carrying an interval's nanoseconds), double precision (an
// IEEE float64), date (int32 days since 2000-01-01, the kdb+ epoch) and time
// (int64 microseconds since midnight, truncated to kdb+ milliseconds as the
// text form's first three fraction digits are). A cell of the wrong width,
// or in a column of another type, is an error. cell must be non-nil (NULL
// cells go through AppendNull).
func (b *TableBuilder) AppendBinary(j int, cell []byte) error {
	sp := b.specs[j]
	if sp.Discard {
		return nil
	}
	width := 0
	switch sp.QType {
	case qval.KBool:
		width = 1
	case qval.KShort:
		width = 2
	case qval.KInt, qval.KDate:
		width = 4
	case qval.KLong, qval.KFloat, qval.KTime:
		width = 8
	default:
		return fmt.Errorf("binary cell in %s column", qval.TypeName(sp.QType))
	}
	if len(cell) != width {
		return fmt.Errorf("binary %s cell of %d bytes", qval.TypeName(sp.QType), len(cell))
	}
	c := &b.cols[j]
	switch sp.QType {
	case qval.KBool:
		c.bools = append(c.bools, cell[0] != 0)
	case qval.KShort:
		c.i16 = append(c.i16, int16(binary.BigEndian.Uint16(cell)))
	case qval.KInt:
		c.i32 = append(c.i32, int32(binary.BigEndian.Uint32(cell)))
	case qval.KDate:
		c.i64 = append(c.i64, int64(int32(binary.BigEndian.Uint32(cell))))
	case qval.KLong:
		c.i64 = append(c.i64, int64(binary.BigEndian.Uint64(cell)))
	case qval.KTime:
		c.i64 = append(c.i64, int64(binary.BigEndian.Uint64(cell))/1000)
	case qval.KFloat:
		f := math.Float64frombits(binary.BigEndian.Uint64(cell))
		if math.IsNaN(f) {
			f = math.NaN()
		}
		c.f64 = append(c.f64, f)
	}
	return nil
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
