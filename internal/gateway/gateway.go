// Package gateway is Hyper-Q's PG-specific plugin (paper §3.1, Figure 1):
// it packs translated SQL into PG v3 messages, transmits them to the
// backend database, and extracts row sets from the result messages. It
// implements core.Backend, and it is the only one: a session reads every
// result off the PG v3 wire, whether the backend is a networked server
// (Dial) or the embedded engine in this process (Pipe) — exactly the plugin
// boundary the paper describes.
package gateway

import (
	"context"
	"fmt"
	"net"
	"os"
	"syscall"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/pgdb"
	"hyperq/internal/wire/pgv3"
)

// pingTimeout bounds the health-probe round trip so a dead backend cannot
// wedge a pool checkout.
const pingTimeout = 5 * time.Second

// Gateway is a PG v3 backend connection.
type Gateway struct {
	conn *pgv3.ClientConn
	// stop and served are set for an in-process gateway (Pipe): stop
	// cancels its server's context and served closes when the server
	// goroutine has returned.
	stop   context.CancelFunc
	served chan struct{}
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

// Pipe opens a gateway to db in this process: pgdb.ServeConn serves one
// session on one end of a connection pair and the gateway speaks PG v3 on
// the other, with trust auth and no listener. ctx is the served session's
// life, as for pgdb.Serve: canceling it aborts the session's statements.
//
// The pair is a kernel socket pair (AF_UNIX, SOCK_STREAM), not net.Pipe.
// Both ends must buffer writes: the client writes an extended-cycle batch
// (Parse … Execute, Sync) while the server may already be answering it, and
// the server flushes its reply in 64 KB pieces. Over net.Pipe, whose writes
// block until the peer reads them, a batch whose Execute/Sync boundary lands
// on the server's read-buffer edge deadlocks against a reply that flushes
// mid-Execute: the server blocks writing rows while the client still blocks
// writing Sync. A socket pair also keeps the client's deadlines working,
// which map a request's context onto the connection. Loopback TCP would do
// the same but expose a trust-auth port to every local user.
func Pipe(ctx context.Context, db *pgdb.DB) (*Gateway, error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("gateway: socket pair: %w", err)
	}
	client, err := fileConn(fds[0], "pgv3-client")
	if err != nil {
		syscall.Close(fds[1])
		return nil, err
	}
	server, err := fileConn(fds[1], "pgv3-server")
	if err != nil {
		client.Close()
		return nil, err
	}
	sctx, stop := context.WithCancel(ctx)
	served := make(chan struct{})
	go func() {
		defer close(served)
		pgdb.ServeConn(sctx, server, db, pgdb.AuthConfig{Method: pgv3.AuthMethodTrust})
	}()
	conn, err := pgv3.NewClientConn(ctx, client, "hyperq", "", "hyperq")
	if err != nil {
		client.Close()
		stop()
		<-served
		return nil, err
	}
	return &Gateway{conn: conn, stop: stop, served: served}, nil
}

// fileConn wraps one socket-pair descriptor as a net.Conn, which owns a
// duplicate of it; the descriptor itself is closed.
func fileConn(fd int, name string) (net.Conn, error) {
	f := os.NewFile(uintptr(fd), name)
	defer f.Close()
	conn, err := net.FileConn(f)
	if err != nil {
		return nil, fmt.Errorf("gateway: socket pair: %w", err)
	}
	return conn, nil
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
// OIDs to SQL type names and format codes to binary flags once per result,
// and passing the remembered row count on as the sink's size hint.
type streamAdapter struct {
	sink core.RowSink
	cols []core.BackendCol
}

func (a *streamAdapter) Describe(cols []pgv3.ColDesc, rows int) error {
	a.cols = a.cols[:0]
	for _, c := range cols {
		a.cols = append(a.cols, core.BackendCol{
			Name:    c.Name,
			SQLType: pgv3.TypeForOID(c.TypeOID),
			Binary:  c.Format == pgv3.FormatBinary,
		})
	}
	// the wire does not announce a result's size; the text's last run on
	// this connection, which the describe cache remembers, sizes the sink
	return a.sink.Schema(a.cols, rows)
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

// Close implements core.Backend. An in-process gateway's Close returns only
// after its server goroutine has: the session, its temp tables and its
// statement are gone, so closing the database next cannot race them.
func (g *Gateway) Close() error {
	err := g.conn.Close()
	if g.served != nil {
		g.stop()
		<-g.served
	}
	return err
}
