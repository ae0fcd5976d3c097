// Package core is the Hyper-Q platform (paper §3): it drives the query life
// cycle — parse, algebrize (bind), transform, serialize, execute, convert —
// over a pluggable backend, manages the variable-scope hierarchy and eager
// materialization of intermediate results (§4.3), and instruments every
// translation stage with the timers behind Figures 6 and 7.
package core

import (
	"context"

	"hyperq/internal/pgdb"
)

// Field is one backend result cell: text representation plus a null flag,
// mirroring the PG v3 DataRow encoding where NULL is length -1.
type Field struct {
	Null bool
	Text string
}

// BackendCol describes one result column from the backend.
type BackendCol struct {
	Name    string
	SQLType string
	// Binary marks a streamed column whose wire cells are in PostgreSQL
	// binary format rather than text (RowSink.WireBatch).
	Binary bool
}

// BackendResult is a backend result set in text form — what arrives over the
// PG v3 wire before Hyper-Q pivots it into QIPC column format (§4.2).
type BackendResult struct {
	Cols []BackendCol
	Rows [][]Field
	Tag  string
}

// Backend abstracts the PostgreSQL-compatible database behind Hyper-Q. It
// is implemented by the PG v3 gateway (package gateway), over TCP to a
// networked server or over a socket pair to the embedded engine in this
// process (§3.1), and by wrappers around gateways such as the pool's
// SessionBackend. A session runs every query through ExecStream, so each
// result it reads crossed the wire.
// The context on every call is the request's: its deadline bounds the
// statement (mapped onto socket I/O) and its cancellation aborts execution
// with an error satisfying errors.Is(err, ctx.Err()).
type Backend interface {
	StreamBackend
	// Exec runs one SQL statement under ctx and returns its whole result in
	// text form (DDL, loading).
	Exec(ctx context.Context, sql string) (*BackendResult, error)
	// QueryCatalog runs a metadata query under ctx, returning text rows
	// (MDI use).
	QueryCatalog(ctx context.Context, sql string) ([][]string, error)
	// Close releases the backend connection/session.
	Close() error
}

// DirectBackend runs SQL against an embedded pgdb session in-process,
// returning engine results untouched. It is not a Backend: sessions reach
// the embedded engine through gateway.Pipe. Its last caller is the
// benchmark's traced replay (bench/tracedrun.go), which times the engine
// alone.
type DirectBackend struct {
	session *pgdb.Session
}

// NewDirectBackend opens a session on an embedded database.
func NewDirectBackend(db *pgdb.DB) *DirectBackend {
	return &DirectBackend{session: db.NewSession()}
}

// ExecTyped runs sql and returns the engine result itself, its Go values
// untouched by any rendering.
func (b *DirectBackend) ExecTyped(ctx context.Context, sql string) (*pgdb.Result, error) {
	return b.session.ExecContext(ctx, sql)
}

// Close ends the session.
func (b *DirectBackend) Close() error {
	b.session.Close()
	return nil
}

// ToBackendResult renders an embedded-engine result into the text rows a
// PG v3 server would send. Its last caller is the benchmark's traced replay
// (bench/tracedrun.go).
func ToBackendResult(res *pgdb.Result) *BackendResult {
	out := &BackendResult{Tag: res.Tag}
	for _, c := range res.Cols {
		out.Cols = append(out.Cols, BackendCol{Name: c.Name, SQLType: c.Type})
	}
	for _, row := range res.Rows {
		r := make([]Field, len(row))
		for j, v := range row {
			if v == nil {
				r[j] = Field{Null: true}
			} else {
				r[j] = Field{Text: pgdb.FormatValue(v, res.Cols[j].Type)}
			}
		}
		out.Rows = append(out.Rows, r)
	}
	return out
}
