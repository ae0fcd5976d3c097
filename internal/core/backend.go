// Package core is the Hyper-Q platform (paper §3): it drives the query life
// cycle — parse, algebrize (bind), transform, serialize, execute, convert —
// over a pluggable backend, manages the variable-scope hierarchy and eager
// materialization of intermediate results (§4.3), and instruments every
// translation stage with the timers behind Figures 6 and 7.
package core

import (
	"context"
	"time"

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
	// binary format rather than text (RowSink.WireRow).
	Binary bool
}

// BackendResult is a backend result set in text form — what arrives over the
// PG v3 wire before Hyper-Q pivots it into QIPC column format (§4.2).
type BackendResult struct {
	Cols []BackendCol
	Rows [][]Field
	Tag  string
}

// Backend abstracts the PostgreSQL-compatible database behind Hyper-Q. The
// in-process implementation runs the embedded pgdb engine directly; the
// networked implementation is the Gateway speaking PG v3 over TCP (§3.1).
// The context on every call is the request's: its deadline bounds the
// statement (mapped onto socket I/O by networked backends, polled at
// row-batch boundaries by the embedded engine) and its cancellation aborts
// execution with an error satisfying errors.Is(err, ctx.Err()).
type Backend interface {
	// Exec runs one SQL statement under ctx.
	Exec(ctx context.Context, sql string) (*BackendResult, error)
	// QueryCatalog runs a metadata query under ctx, returning text rows
	// (MDI use).
	QueryCatalog(ctx context.Context, sql string) ([][]string, error)
	// Close releases the backend connection/session.
	Close() error
}

// DirectBackend runs SQL against an embedded pgdb session in-process.
type DirectBackend struct {
	session *pgdb.Session
	// Delay injects artificial per-statement latency, used by benchmarks to
	// model a networked MPP backend.
	Delay time.Duration
}

// NewDirectBackend opens a session on an embedded database.
func NewDirectBackend(db *pgdb.DB) *DirectBackend {
	return &DirectBackend{session: db.NewSession()}
}

// Exec implements Backend. The artificial Delay models a networked
// backend's data motion, so cancellation interrupts it the way it would
// abort in-flight I/O.
func (b *DirectBackend) Exec(ctx context.Context, sql string) (*BackendResult, error) {
	if b.Delay > 0 {
		timer := time.NewTimer(b.Delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}
	res, err := b.session.ExecContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	return ToBackendResult(res), nil
}

// ExecStream implements StreamBackend: engine-typed values flow straight
// into the sink with no text rendering. The artificial Delay applies as in
// Exec.
func (b *DirectBackend) ExecStream(ctx context.Context, sql string, sink RowSink) error {
	if b.Delay > 0 {
		timer := time.NewTimer(b.Delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
	}
	res, err := b.session.ExecContext(ctx, sql)
	if err != nil {
		return err
	}
	return FeedResult(ctx, res, sink)
}

// ExecTyped runs sql and returns the engine result itself, its Go values
// untouched by any rendering. The artificial Delay applies as in Exec.
func (b *DirectBackend) ExecTyped(ctx context.Context, sql string) (*pgdb.Result, error) {
	if b.Delay > 0 {
		timer := time.NewTimer(b.Delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}
	return b.session.ExecContext(ctx, sql)
}

// QueryCatalog implements Backend.
func (b *DirectBackend) QueryCatalog(ctx context.Context, sql string) ([][]string, error) {
	res, err := b.session.ExecContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	out := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		r := make([]string, len(row))
		for j, v := range row {
			r[j] = pgdb.FormatValue(v, res.Cols[j].Type)
		}
		out[i] = r
	}
	return out, nil
}

// Ping reports whether the backend session is usable (pool health checks).
// It bypasses the artificial Delay — a health probe models no data motion.
func (b *DirectBackend) Ping() error {
	_, err := b.session.Exec("SELECT 1")
	return err
}

// Close implements Backend.
func (b *DirectBackend) Close() error {
	b.session.Close()
	return nil
}

// ToBackendResult renders an embedded-engine result into the text form the
// materialized path consumes — the conversion the columnar pipeline's
// ExecStream avoids (kept as the fallback and as the benchmark baseline).
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
