package endpoint

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/pool"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/wire/pgv3"
	"hyperq/internal/wire/qipc"
)

// startPanicStack serves the endpoint with a handler that panics on the
// query "boom" and answers 1 to anything else, decoding inbound messages
// with decode (nil: qipc.ReadMessage). logged returns what the endpoint has
// logged so far.
func startPanicStack(t *testing.T, decode func(io.Reader) (*qipc.Message, error)) (addr string, logged func() string) {
	t.Helper()
	logf, logged := captureLog()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go Serve(context.Background(), l, Config{
		NewHandler: func(*qipc.Credentials) (Handler, func(), error) {
			return HandlerFunc(func(ctx context.Context, q string) (qval.Value, error) {
				if q == "boom" {
					panic("handler bug")
				}
				return qval.Long(1), nil
			}), nil, nil
		},
		decode: decode,
		Logf:   logf,
	})
	return l.Addr().String(), logged
}

// captureLog returns a Config.Logf that records what it is given, and a
// func returning what has been logged so far.
func captureLog() (logf func(format string, args ...any), logged func() string) {
	var mu sync.Mutex
	var logs strings.Builder
	return func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(&logs, format+"\n", args...)
		}, func() string {
			mu.Lock()
			defer mu.Unlock()
			return logs.String()
		}
}

// wantPanicReplyThenClose reads an error reply naming the panic, then the
// end of the connection, and checks that the panic's stack was logged.
func wantPanicReplyThenClose(t *testing.T, conn net.Conn, panicMsg string, logged func() string) {
	t.Helper()
	msg, err := qipc.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	qe, ok := msg.Value.(*qval.QError)
	if !ok || !strings.Contains(qe.Msg, panicMsg) {
		t.Fatalf("reply = %v, want an error naming %q", msg.Value, panicMsg)
	}
	if _, err := qipc.ReadMessage(conn); !errors.Is(err, io.EOF) {
		t.Fatalf("after the panic reply: %v, want the connection closed", err)
	}
	if log := logged(); !strings.Contains(log, panicMsg) || !strings.Contains(log, "goroutine ") {
		t.Fatalf("log %q holds no stack of the panic", log)
	}
}

// TestHandlerPanicFailsOneRequest: a query whose handler panics gets an
// error reply and its connection closes; hyperq serves other connections.
func TestHandlerPanicFailsOneRequest(t *testing.T) {
	addr, logged := startPanicStack(t, nil)
	first := dialQ(t, addr, "app", "")
	if err := qipc.WriteMessage(first, qipc.Sync, qval.CharVec("boom")); err != nil {
		t.Fatal(err)
	}
	wantPanicReplyThenClose(t, first, "handler bug", logged)
	if v := query(t, dialQ(t, addr, "app", ""), "ok"); v != qval.Long(1) {
		t.Fatalf("second connection got %v, want 1", v)
	}
}

// TestDecoderPanicFailsOneConnection: a panic while decoding an inbound
// message answers that connection with an error and closes it; hyperq
// serves other connections.
func TestDecoderPanicFailsOneConnection(t *testing.T) {
	addr, logged := startPanicStack(t, func(r io.Reader) (*qipc.Message, error) {
		msg, err := qipc.ReadMessage(r)
		if err != nil {
			return nil, err
		}
		if cv, ok := msg.Value.(qval.CharVec); ok && string(cv) == "bad frame" {
			panic("decoder bug")
		}
		return msg, nil
	})
	first := dialQ(t, addr, "app", "")
	if err := qipc.WriteMessage(first, qipc.Sync, qval.CharVec("bad frame")); err != nil {
		t.Fatal(err)
	}
	wantPanicReplyThenClose(t, first, "decoder bug", logged)
	if v := query(t, dialQ(t, addr, "app", ""), "ok"); v != qval.Long(1) {
		t.Fatalf("second connection got %v, want 1", v)
	}
}

// rowsConn is a pool.Conn whose ExecStream delivers a one-column result of
// three rows to the sink.
type rowsConn struct{}

func (rowsConn) Exec(ctx context.Context, sql string) (*core.BackendResult, error) {
	return &core.BackendResult{Tag: "SELECT 0"}, nil
}

func (rowsConn) ExecStream(ctx context.Context, sql string, sink core.RowSink) error {
	if err := sink.Schema([]core.BackendCol{{Name: "x", SQLType: "bigint"}}, -1); err != nil {
		return err
	}
	var b pgv3.Batch
	b.Reset(1)
	for _, cell := range []string{"1", "2", "3"} {
		b.AppendRow([][]byte{[]byte(cell)})
	}
	if err := sink.WireBatch(&b); err != nil {
		return err
	}
	sink.Tag("SELECT 3")
	return nil
}

func (rowsConn) QueryCatalog(ctx context.Context, sql string) ([][]string, error) { return nil, nil }
func (rowsConn) Ping() error                                                      { return nil }
func (rowsConn) Close() error                                                     { return nil }

// countSink counts a streamed result's rows, panicking on the second row
// when panics is set.
type countSink struct {
	panics bool
	rows   int
}

func (s *countSink) Schema([]core.BackendCol, int) error { return nil }
func (s *countSink) Tag(string)                          {}
func (s *countSink) WireBatch(b *pgv3.Batch) error {
	for range b.Rows() {
		if s.rows++; s.panics && s.rows == 2 {
			panic("sink bug")
		}
	}
	return nil
}

// TestSinkPanicReleasesPooledConn: a panic in the result sink mid-stream
// fails that request, and the pool of one connection still serves the next
// client instead of waiting out its checkout timeout.
func TestSinkPanicReleasesPooledConn(t *testing.T) {
	p := pool.New(pool.Config{
		Size:            1,
		CheckoutTimeout: time.Second,
		Dial:            func(ctx context.Context) (pool.Conn, error) { return rowsConn{}, nil },
	})
	t.Cleanup(func() { p.Close() })
	logf, logged := captureLog()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go Serve(context.Background(), l, Config{
		NewHandler: func(*qipc.Credentials) (Handler, func(), error) {
			b := p.SessionBackend()
			return HandlerFunc(func(ctx context.Context, q string) (qval.Value, error) {
				sink := &countSink{panics: q == "boom"}
				if err := b.ExecStream(ctx, q, sink); err != nil {
					return nil, err
				}
				return qval.Long(int64(sink.rows)), nil
			}), func() { b.Close() }, nil
		},
		Logf: logf,
	})
	addr := l.Addr().String()
	first := dialQ(t, addr, "app", "")
	if err := qipc.WriteMessage(first, qipc.Sync, qval.CharVec("boom")); err != nil {
		t.Fatal(err)
	}
	wantPanicReplyThenClose(t, first, "sink bug", logged)
	if v := query(t, dialQ(t, addr, "app", ""), "ok"); v != qval.Long(3) {
		t.Fatalf("second connection got %v, want 3 rows", v)
	}
	if st := p.Stats(); st.Discards != 1 || st.Dials != 2 {
		t.Fatalf("pool after the panic: %+v, want the panicked connection discarded and a new one dialed", st)
	}
}
