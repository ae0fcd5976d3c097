package core

import (
	"context"
	"fmt"
	"sync"

	"hyperq/internal/colbuf"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/xtra"
)

// RowSink receives one backend result set as a stream: a schema, then
// rows in PG v3 wire form, then the command tag. Implementations must
// tolerate the stream stopping early on error.
type RowSink interface {
	// Schema starts a result. hint, when >= 0, is the expected row count.
	Schema(cols []BackendCol, hint int) error
	// WireRow delivers one row of PG v3 DataRow cells, each in its column's
	// wire format: PostgreSQL binary for a BackendCol marked Binary, text
	// otherwise. A nil cell is SQL NULL; a non-nil empty cell is an empty
	// string. The slices are only valid during the call.
	WireRow(fields [][]byte) error
	// Tag delivers the command tag after the last row.
	Tag(tag string)
}

// StreamBackend is the streaming result API every Backend has: rows reach
// the sink as they come off the wire instead of as a materialized text
// BackendResult.
type StreamBackend interface {
	ExecStream(ctx context.Context, sql string, sink RowSink) error
}

// TableSink builds a Q table from a streamed result using pooled column
// builders: cells decode into typed slices chosen once per column from the
// schema, and Table finishes them as qval vectors without per-cell atom
// boxing.
type TableSink struct {
	b     *colbuf.TableBuilder
	specs []colbuf.Spec
	tag   string
}

var tableSinkPool = sync.Pool{New: func() any { return &TableSink{} }}

// GetTableSink returns a pooled sink ready for one ExecStream call.
func GetTableSink() *TableSink {
	return tableSinkPool.Get().(*TableSink)
}

// Release returns the sink (and its builder scratch) to their pools. Vectors
// already taken by Table are unaffected: the builder hands off column
// storage on Build.
func (s *TableSink) Release() {
	if s.b != nil {
		s.b.Release()
		s.b = nil
	}
	s.specs = s.specs[:0]
	s.tag = ""
	tableSinkPool.Put(s)
}

// Schema implements RowSink.
func (s *TableSink) Schema(cols []BackendCol, hint int) error {
	if s.b == nil {
		s.b = colbuf.Get()
	}
	s.specs = s.specs[:0]
	for _, c := range cols {
		s.specs = append(s.specs, colbuf.Spec{
			Name:    c.Name,
			QType:   xtra.QTypeForSQL(c.SQLType),
			Discard: c.Name == xtra.OrdCol || c.Name == "hq_rn",
			Binary:  c.Binary,
		})
	}
	s.b.Reset(s.specs, hint)
	return nil
}

// WireRow implements RowSink for wire cells, decoding each by its column's
// format.
func (s *TableSink) WireRow(fields [][]byte) error {
	b := s.b
	for j, f := range fields {
		var err error
		switch {
		case f == nil:
			b.AppendNull(j)
		case s.specs[j].Binary:
			err = b.AppendBinary(j, f)
		default:
			err = b.AppendText(j, f)
		}
		if err != nil {
			return fmt.Errorf("column %s: %w", s.specs[j].Name, err)
		}
	}
	b.FinishRow()
	return nil
}

// Tag implements RowSink.
func (s *TableSink) Tag(tag string) { s.tag = tag }

// Table finishes the built columns as a Q table (ownership of column
// storage transfers to the table; the sink can then be Released).
func (s *TableSink) Table() *qval.Table {
	var names []string
	var data []qval.Value
	if s.b != nil { // nil when no schema arrived: a result without columns
		names, data = s.b.Build()
	}
	if data == nil {
		data = []qval.Value{}
	}
	return qval.NewTable(names, data)
}

// emptyCell marks a non-NULL empty text cell in replayed rows (a nil cell
// means NULL).
var emptyCell = []byte{}

// ReplayResult streams an already-materialized text result into a sink. Its
// last caller is the benchmark's traced replay (bench/tracedrun.go), which
// times the column builders apart from the wire.
func ReplayResult(res *BackendResult, sink RowSink) error {
	if err := sink.Schema(res.Cols, len(res.Rows)); err != nil {
		return err
	}
	fields := make([][]byte, len(res.Cols))
	for _, row := range res.Rows {
		for j := range row {
			f := &row[j]
			switch {
			case f.Null:
				fields[j] = nil
			case len(f.Text) == 0:
				fields[j] = emptyCell
			default:
				fields[j] = []byte(f.Text)
			}
		}
		if err := sink.WireRow(fields); err != nil {
			return err
		}
	}
	sink.Tag(res.Tag)
	return nil
}
