package core

import (
	"context"
	"fmt"
	"sync"

	"hyperq/internal/colbuf"
	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/xtra"
)

// RowSink receives one backend result set as a stream: a schema, then rows
// (typed or wire form depending on the backend), then the command tag.
// Implementations must tolerate the stream stopping early on error.
type RowSink interface {
	// Schema starts a result. hint, when >= 0, is the expected row count
	// (exact for the embedded engine, an estimate for wire backends).
	Schema(cols []BackendCol, hint int) error
	// Row delivers one row of engine-typed values (nil, bool, int64,
	// float64, string — the pgdb value vocabulary). The slice is only valid
	// during the call.
	Row(vals []any) error
	// WireRow delivers one row of PG v3 DataRow cells, each in its column's
	// wire format: PostgreSQL binary for a BackendCol marked Binary, text
	// otherwise. A nil cell is SQL NULL; a non-nil empty cell is an empty
	// string. The slices are only valid during the call.
	WireRow(fields [][]byte) error
	// Tag delivers the command tag after the last row.
	Tag(tag string)
}

// StreamBackend is the typed, streaming result API (the columnar result
// pipeline). Backends that implement it deliver rows to the sink as they are
// produced instead of materializing a text BackendResult; Session prefers it
// when the columnar result path is configured.
type StreamBackend interface {
	ExecStream(ctx context.Context, sql string, sink RowSink) error
}

// TableSink builds a Q table from a streamed result using pooled column
// builders: cells append into typed slices chosen once per column from the
// schema, and Table finishes them as qval vectors without per-cell atom
// boxing. Cells whose runtime type doesn't match the column's mapped Q type
// fall back to the text rendering + text parse the materialized path uses,
// so both paths agree cell-for-cell by construction.
type TableSink struct {
	b       *colbuf.TableBuilder
	specs   []colbuf.Spec
	sqlType []string
	scratch []byte
	tag     string
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
	s.sqlType = s.sqlType[:0]
	s.tag = ""
	tableSinkPool.Put(s)
}

// Schema implements RowSink.
func (s *TableSink) Schema(cols []BackendCol, hint int) error {
	if s.b == nil {
		s.b = colbuf.Get()
	}
	s.specs = s.specs[:0]
	s.sqlType = s.sqlType[:0]
	for _, c := range cols {
		s.specs = append(s.specs, colbuf.Spec{
			Name:    c.Name,
			QType:   xtra.QTypeForSQL(c.SQLType),
			Discard: c.Name == xtra.OrdCol || c.Name == "hq_rn",
			Binary:  c.Binary,
		})
		s.sqlType = append(s.sqlType, c.SQLType)
	}
	s.b.Reset(s.specs, hint)
	return nil
}

// Row implements RowSink for engine-typed values.
func (s *TableSink) Row(vals []any) error {
	b := s.b
	for j, v := range vals {
		if v == nil {
			b.AppendNull(j)
			continue
		}
		var err error
		switch sp := &s.specs[j]; sp.QType {
		case qval.KBool:
			if x, ok := v.(bool); ok {
				b.AppendBool(j, x)
			} else {
				err = s.textCell(j, v)
			}
		case qval.KShort, qval.KInt, qval.KLong, qval.KDate, qval.KTime, qval.KTimestamp:
			if x, ok := v.(int64); ok {
				err = b.AppendInt(j, x)
			} else {
				err = s.textCell(j, v)
			}
		case qval.KReal, qval.KFloat:
			switch x := v.(type) {
			case float64:
				err = b.AppendFloat(j, x)
			case int64:
				err = b.AppendFloat(j, float64(x))
			default:
				err = s.textCell(j, v)
			}
		default:
			if x, ok := v.(string); ok {
				b.AppendSym(j, x)
			} else {
				err = s.textCell(j, v)
			}
		}
		if err != nil {
			return fmt.Errorf("column %s: %w", s.specs[j].Name, err)
		}
	}
	b.FinishRow()
	return nil
}

// textCell is the typed-mismatch fallback: render the engine value exactly
// as the text path would (pgdb.FormatValue) into reused scratch, then decode
// with the shared text parser.
func (s *TableSink) textCell(j int, v any) error {
	s.scratch = pgdb.AppendValue(s.scratch[:0], v, s.sqlType[j])
	return s.b.AppendText(j, s.scratch)
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

// CommandTag returns the streamed statement's command tag.
func (s *TableSink) CommandTag() string { return s.tag }

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

// FeedResult streams a materialized embedded-engine result into a sink —
// the DirectBackend half of the columnar pipeline. The context is polled at
// the same 1024-row boundaries the engine uses during execution.
func FeedResult(ctx context.Context, res *pgdb.Result, sink RowSink) error {
	cols := make([]BackendCol, len(res.Cols))
	for j, c := range res.Cols {
		cols[j] = BackendCol{Name: c.Name, SQLType: c.Type}
	}
	if err := sink.Schema(cols, len(res.Rows)); err != nil {
		return err
	}
	for i, row := range res.Rows {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := sink.Row(row); err != nil {
			return err
		}
	}
	sink.Tag(res.Tag)
	return nil
}

// emptyCell marks a non-NULL empty text cell in replayed rows (a nil cell
// means NULL).
var emptyCell = []byte{}

// ReplayResult streams an already-materialized text result into a sink. It
// is the compatibility bridge for backends that only implement Exec.
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
