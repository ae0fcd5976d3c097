// Package gateway is Hyper-Q's PG-specific plugin (paper §3.1, Figure 1):
// it packs translated SQL into PG v3 messages, transmits them to the
// backend database over TCP, and extracts row sets from the result
// messages. It implements core.Backend, so a platform session is oblivious
// to whether it runs in-process or against a networked backend — exactly
// the plugin boundary the paper describes.
package gateway

import (
	"context"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/wire/pgv3"
)

// pingTimeout bounds the health-probe round trip so a dead backend cannot
// wedge a pool checkout.
const pingTimeout = 5 * time.Second

// Gateway is a PG v3 backend connection.
type Gateway struct {
	conn *pgv3.ClientConn
}

// Dial connects and authenticates to a PG v3 server. The context bounds the
// dial and handshake only; per-query deadlines flow through Exec's context.
func Dial(ctx context.Context, addr, user, password, database string) (*Gateway, error) {
	conn, err := pgv3.Connect(ctx, addr, user, password, database)
	if err != nil {
		return nil, err
	}
	return &Gateway{conn: conn}, nil
}

// Exec implements core.Backend. The context's deadline maps onto the socket
// I/O deadline and cancellation aborts the query; an abort surfaces as a
// typed error satisfying errors.Is(err, ctx.Err()).
func (g *Gateway) Exec(ctx context.Context, sql string) (*core.BackendResult, error) {
	res, err := g.conn.Query(ctx, sql)
	if err != nil {
		return nil, err
	}
	out := &core.BackendResult{Tag: res.Tag}
	for _, c := range res.Cols {
		out.Cols = append(out.Cols, core.BackendCol{Name: c.Name, SQLType: pgv3.TypeForOID(c.TypeOID)})
	}
	for _, row := range res.Rows {
		r := make([]core.Field, len(row))
		for j, f := range row {
			r[j] = core.Field{Null: f.Null, Text: f.Text}
		}
		out.Rows = append(out.Rows, r)
	}
	return out, nil
}

// ExecStream implements core.StreamBackend: the statement runs through the
// extended query cycle, and DataRow messages decode incrementally into the
// sink as they arrive off the wire, with no [][]Field materialization in
// between. From a text's second run on the connection, its numeric, boolean,
// date and time columns arrive as binary cells (pgv3.QueryExtended), which
// the sink decodes without a text round trip. Cancellation and abort
// semantics match Exec's.
func (g *Gateway) ExecStream(ctx context.Context, sql string, sink core.RowSink) error {
	return g.conn.QueryExtended(ctx, sql, &streamAdapter{sink: sink})
}

// streamAdapter bridges pgv3.RowReceiver onto core.RowSink, mapping wire
// OIDs to SQL type names and format codes to binary flags once per result.
type streamAdapter struct {
	sink core.RowSink
	cols []core.BackendCol
}

func (a *streamAdapter) Describe(cols []pgv3.ColDesc) error {
	a.cols = a.cols[:0]
	for _, c := range cols {
		a.cols = append(a.cols, core.BackendCol{
			Name:    c.Name,
			SQLType: pgv3.TypeForOID(c.TypeOID),
			Binary:  c.Format == pgv3.FormatBinary,
		})
	}
	// no row-count hint: the wire protocol does not announce result size
	return a.sink.Schema(a.cols, -1)
}

func (a *streamAdapter) DataRow(fields [][]byte) error { return a.sink.WireRow(fields) }

func (a *streamAdapter) Complete(tag string) { a.sink.Tag(tag) }

// QueryCatalog implements core.Backend: the binder's metadata lookups run
// as ordinary catalog queries over the same connection (paper §3.2.3).
func (g *Gateway) QueryCatalog(ctx context.Context, sql string) ([][]string, error) {
	res, err := g.conn.Query(ctx, sql)
	if err != nil {
		return nil, err
	}
	out := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		r := make([]string, len(row))
		for j, f := range row {
			r[j] = f.Text
		}
		out[i] = r
	}
	return out, nil
}

// Ping performs a trivial round trip, verifying the connection is alive —
// the pool's checkout health probe. It carries its own short deadline.
func (g *Gateway) Ping() error {
	ctx, cancel := context.WithTimeout(context.Background(), pingTimeout)
	defer cancel()
	_, err := g.conn.Query(ctx, "SELECT 1")
	return err
}

// Close implements core.Backend.
func (g *Gateway) Close() error { return g.conn.Close() }
