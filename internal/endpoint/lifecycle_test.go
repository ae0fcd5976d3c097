// Request-lifecycle tests over real TCP: mid-query client disconnects,
// per-request timeouts and graceful drain, exercising the context chain from
// the accepted socket down to the pooled backend connection.
package endpoint

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/pool"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/wire/qipc"
)

// blockingConn is a pool.Conn whose Exec parks until the request context
// dies, standing in for a long-running backend query.
type blockingConn struct {
	started chan struct{} // receives one token per Exec that begins
}

func (c *blockingConn) Exec(ctx context.Context, sql string) (*core.BackendResult, error) {
	c.started <- struct{}{}
	<-ctx.Done()
	return nil, ctx.Err()
}

func (c *blockingConn) ExecStream(ctx context.Context, sql string, sink core.RowSink) error {
	_, err := c.Exec(ctx, sql)
	return err
}

func (c *blockingConn) QueryCatalog(ctx context.Context, sql string) ([][]string, error) {
	return nil, nil
}

func (c *blockingConn) Ping() error  { return nil }
func (c *blockingConn) Close() error { return nil }

// startLifecycleStack serves the endpoint with a handler that runs every
// query on a pooled blocking backend, reporting each request's final error.
func startLifecycleStack(t *testing.T, ctx context.Context, cfg Config, p *pool.Pool) (string, chan error) {
	t.Helper()
	handlerErr := make(chan error, 8)
	cfg.NewHandler = func(*qipc.Credentials) (Handler, func(), error) {
		b := p.SessionBackend()
		return HandlerFunc(func(ctx context.Context, q string) (qval.Value, error) {
			_, err := b.Exec(ctx, q)
			handlerErr <- err
			if err != nil {
				return nil, err
			}
			return qval.Long(1), nil
		}), func() { b.Close() }, nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go Serve(ctx, l, cfg)
	return l.Addr().String(), handlerErr
}

// TestMidQueryClientDisconnectCancelsAndReleasesBackend is the
// client-disconnect half of the request lifecycle: a Q client that vanishes
// mid-query must cancel the in-flight request context, and the backend
// connection it was holding must come back to the pool.
func TestMidQueryClientDisconnectCancelsAndReleasesBackend(t *testing.T) {
	backend := &blockingConn{started: make(chan struct{}, 8)}
	p := pool.New(pool.Config{
		Size: 1,
		Dial: func(ctx context.Context) (pool.Conn, error) { return backend, nil },
	})
	t.Cleanup(func() { p.Close() })
	addr, handlerErr := startLifecycleStack(t, context.Background(), Config{}, p)

	conn := dialQ(t, addr, "app", "")
	if err := qipc.WriteMessage(conn, qipc.Sync, qval.CharVec("select from slow")); err != nil {
		t.Fatal(err)
	}
	<-backend.started // the query is executing on the backend
	conn.Close()      // the client vanishes mid-query

	select {
	case err := <-handlerErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("in-flight request err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("client disconnect never canceled the in-flight request")
	}
	// the backend connection must return to the pool (context aborts are not
	// transport failures; the connection is intact)
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().InUse != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("backend connection never released: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// a second client gets the (sole) recycled connection and full service
	conn2 := dialQ(t, addr, "app2", "")
	if err := qipc.WriteMessage(conn2, qipc.Sync, qval.CharVec("select from slow")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-backend.started:
	case <-time.After(2 * time.Second):
		t.Fatal("recycled backend connection never served the next client")
	}
}

// TestRequestTimeoutRendersAsTimeoutError covers the deadline half: a query
// exceeding RequestTimeout is aborted and the client receives kdb+'s terse
// 'timeout error while the connection stays usable.
func TestRequestTimeoutRendersAsTimeoutError(t *testing.T) {
	backend := &blockingConn{started: make(chan struct{}, 8)}
	p := pool.New(pool.Config{
		Size: 1,
		Dial: func(ctx context.Context) (pool.Conn, error) { return backend, nil },
	})
	t.Cleanup(func() { p.Close() })
	addr, _ := startLifecycleStack(t, context.Background(),
		Config{RequestTimeout: 50 * time.Millisecond}, p)

	conn := dialQ(t, addr, "app", "")
	if err := qipc.WriteMessage(conn, qipc.Sync, qval.CharVec("select from slow")); err != nil {
		t.Fatal(err)
	}
	msg, err := qipc.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	qe, ok := msg.Value.(*qval.QError)
	if !ok {
		t.Fatalf("response = %T (%v), want QError", msg.Value, msg.Value)
	}
	if qe.Msg != "timeout" {
		t.Fatalf("error = %q, want %q", qe.Msg, "timeout")
	}
}

// TestGracefulDrainCancelsStragglers covers shutdown: canceling the serve
// context refuses new connections at once, and a request still running when
// DrainTimeout lapses is hard-canceled so Serve returns.
func TestGracefulDrainCancelsStragglers(t *testing.T) {
	backend := &blockingConn{started: make(chan struct{}, 8)}
	p := pool.New(pool.Config{
		Size: 1,
		Dial: func(ctx context.Context) (pool.Conn, error) { return backend, nil },
	})
	t.Cleanup(func() { p.Close() })

	serveCtx, shutdown := context.WithCancel(context.Background())
	defer shutdown()
	handlerErr := make(chan error, 8)
	cfg := Config{
		DrainTimeout: 50 * time.Millisecond,
		NewHandler: func(*qipc.Credentials) (Handler, func(), error) {
			b := p.SessionBackend()
			return HandlerFunc(func(ctx context.Context, q string) (qval.Value, error) {
				_, err := b.Exec(ctx, q)
				handlerErr <- err
				return nil, err
			}), func() { b.Close() }, nil
		},
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	served := make(chan error, 1)
	go func() { served <- Serve(serveCtx, l, cfg) }()

	conn := dialQ(t, addr(t, l), "app", "")
	if err := qipc.WriteMessage(conn, qipc.Sync, qval.CharVec("select from slow")); err != nil {
		t.Fatal(err)
	}
	<-backend.started // the straggler is mid-query
	shutdown()

	// new connections are refused immediately (listener closed)
	if c, err := net.DialTimeout("tcp", l.Addr().String(), time.Second); err == nil {
		// the dial may land in the OS backlog; the handshake must still die
		if herr := qipc.ClientHandshake(c, "late", ""); herr == nil {
			c.Close()
			t.Fatal("draining server accepted a new session")
		}
		c.Close()
	}
	select {
	case err := <-handlerErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("straggler err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drain window never canceled the straggler")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve never returned after the drain")
	}
}

// handoffListener gives Serve the connections the test sends it. Close does
// nothing, so a connection can reach Accept after shutdown began, as one
// that races a real listener's close does.
type handoffListener struct{ conns chan net.Conn }

func (l handoffListener) Accept() (net.Conn, error) { return <-l.conns, nil }
func (l handoffListener) Close() error              { return nil }
func (l handoffListener) Addr() net.Addr            { return &net.TCPAddr{} }

// TestShutdownRefusesRacingConnection: a connection that Accept returns
// after the serve context is canceled is closed unserved, and Serve returns.
func TestShutdownRefusesRacingConnection(t *testing.T) {
	serveCtx, shutdown := context.WithCancel(context.Background())
	l := handoffListener{conns: make(chan net.Conn)}
	served := make(chan error, 1)
	go func() {
		served <- Serve(serveCtx, l, Config{
			NewHandler: func(*qipc.Credentials) (Handler, func(), error) {
				return HandlerFunc(func(context.Context, string) (qval.Value, error) { return qval.Long(1), nil }), nil, nil
			},
		})
	}()
	shutdown()
	client, server := net.Pipe()
	defer client.Close()
	l.conns <- server
	if err := qipc.ClientHandshake(client, "late", ""); err == nil {
		t.Fatal("draining server accepted a new session")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve never returned after shutdown")
	}
}

func addr(t *testing.T, l net.Listener) string {
	t.Helper()
	return l.Addr().String()
}
