package core

import (
	"context"
	"sync"

	"hyperq/internal/colbuf"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/wire/pgv3"
	"hyperq/internal/xtra"
)

// RowSink receives one backend result set as a stream: a schema, then
// batches of rows in PG v3 wire form, then the command tag.
// Implementations must tolerate the stream stopping early on error.
type RowSink interface {
	// Schema starts a result. hint, when >= 0, is the expected row count.
	Schema(cols []BackendCol, hint int) error
	// WireBatch delivers the next rows, a batch of PG v3 DataRow cells, each
	// in its column's wire format: PostgreSQL binary for a BackendCol marked
	// Binary, text otherwise. A nil cell is SQL NULL; a non-nil empty cell
	// is an empty string. The batch is only valid during the call.
	WireBatch(b *pgv3.Batch) error
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
// builders: each batch decodes a column at a time into typed slices chosen
// once per column from the schema, and Table finishes them as qval vectors
// without per-cell atom boxing.
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

// WireBatch implements RowSink, decoding each column by its format.
func (s *TableSink) WireBatch(b *pgv3.Batch) error { return s.b.AppendBatch(b) }

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

// ReplayResult streams an already-materialized text result into a sink, in
// batches of the wire's row bound. Its last caller is the benchmark's
// traced replay (bench/tracedrun.go), which times the column builders apart
// from the wire.
func ReplayResult(res *BackendResult, sink RowSink) error {
	if err := sink.Schema(res.Cols, len(res.Rows)); err != nil {
		return err
	}
	var b pgv3.Batch
	b.Reset(len(res.Cols))
	fields := make([][]byte, len(res.Cols))
	// the row's cells, back to back; never nil, so an empty cell is not NULL
	text := make([]byte, 0, 256)
	for i, row := range res.Rows {
		text = text[:0]
		for j := range row {
			text = append(text, row[j].Text...)
		}
		at := 0
		for j := range row {
			f := &row[j]
			fields[j] = nil
			if !f.Null {
				fields[j] = text[at : at+len(f.Text) : at+len(f.Text)]
			}
			at += len(f.Text)
		}
		b.AppendRow(fields)
		if b.Rows() == pgv3.BatchRows || i == len(res.Rows)-1 {
			if err := sink.WireBatch(&b); err != nil {
				return err
			}
			b.Reset(len(res.Cols))
		}
	}
	sink.Tag(res.Tag)
	return nil
}
