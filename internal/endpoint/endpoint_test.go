// Integration tests for the full Figure 1 deployment: a Q application
// speaking QIPC over TCP to the Hyper-Q endpoint, the cross compiler
// translating, and the Gateway speaking PG v3 over TCP to the backend
// database server. Every byte crosses real sockets.
package endpoint

import (
	"context"
	"net"
	"testing"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/taq"
	"hyperq/internal/wire/pgv3"
	"hyperq/internal/wire/qipc"
	"hyperq/internal/xc"
)

// startStack launches pgserver + hyperq endpoint on loopback and returns the
// QIPC address.
func startStack(t *testing.T, auth func(u, p string) bool) string {
	t.Helper()
	db := pgdb.NewDB()
	loader, err := gateway.Pipe(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	defer loader.Close()
	data := taq.Generate(taq.Config{Seed: 3, Trades: 500, Quotes: 1000, WideCols: 4,
		Symbols: []string{"AAPL", "IBM"}})
	for _, tb := range []struct {
		name string
		tbl  *qval.Table
	}{{"trades", data.Trades}, {"quotes", data.Quotes}, {"daily", data.Daily}} {
		if err := core.LoadQTable(context.Background(), loader, tb.name, tb.tbl); err != nil {
			t.Fatal(err)
		}
	}
	pgL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pgL.Close() })
	go pgdb.Serve(context.Background(), pgL, db, pgdb.AuthConfig{
		Method: pgv3.AuthMethodMD5,
		Users:  map[string]string{"hq": "pw"},
	})

	platform := core.NewPlatform()
	qL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { qL.Close() })
	go Serve(context.Background(), qL, Config{
		Auth: auth,
		NewHandler: func(creds *qipc.Credentials) (Handler, func(), error) {
			gw, err := gateway.Dial(context.Background(), pgL.Addr().String(), "hq", "pw", "db")
			if err != nil {
				return nil, nil, err
			}
			session := platform.NewSession(gw, core.Config{})
			compiler := xc.New(session)
			return HandlerFunc(func(ctx context.Context, q string) (qval.Value, error) {
				v, _, err := compiler.HandleQuery(ctx, q)
				return v, err
			}), func() { session.Close() }, nil
		},
	})
	return qL.Addr().String()
}

func dialQ(t *testing.T, addr, user, pass string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := qipc.ClientHandshake(conn, user, pass); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	return conn
}

func query(t *testing.T, conn net.Conn, q string) qval.Value {
	t.Helper()
	if err := qipc.WriteMessage(conn, qipc.Sync, qval.CharVec(q)); err != nil {
		t.Fatal(err)
	}
	msg, err := qipc.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != qipc.Response {
		t.Fatalf("message type = %v", msg.Type)
	}
	return msg.Value
}

func TestEndToEndSelect(t *testing.T) {
	addr := startStack(t, nil)
	conn := dialQ(t, addr, "app", "")
	v := query(t, conn, "select Price from trades where Symbol=`AAPL")
	tbl, ok := v.(*qval.Table)
	if !ok {
		t.Fatalf("result = %T (%v)", v, v)
	}
	if tbl.Len() == 0 {
		t.Fatal("no rows")
	}
	if _, ok := tbl.Column("Price"); !ok {
		t.Fatalf("cols = %v", tbl.Cols)
	}
}

func TestEndToEndAsOfJoin(t *testing.T) {
	addr := startStack(t, nil)
	conn := dialQ(t, addr, "app", "")
	v := query(t, conn, "aj[`Symbol`Time; select Symbol, Time, Price from trades; select Symbol, Time, Bid, Ask from quotes]")
	tbl, ok := v.(*qval.Table)
	if !ok {
		t.Fatalf("result = %T", v)
	}
	if _, ok := tbl.Column("Bid"); !ok {
		t.Fatalf("cols = %v", tbl.Cols)
	}
}

func TestEndToEndErrorsAsQErrors(t *testing.T) {
	addr := startStack(t, nil)
	conn := dialQ(t, addr, "app", "")
	v := query(t, conn, "select from nosuchtable")
	qe, ok := v.(*qval.QError)
	if !ok {
		t.Fatalf("result = %T, want QError", v)
	}
	if qe.Msg == "" {
		t.Fatal("empty error message")
	}
}

func TestEndToEndAuthRejected(t *testing.T) {
	addr := startStack(t, func(u, p string) bool { return u == "good" })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := qipc.ClientHandshake(conn, "bad", "x"); err == nil {
		t.Fatal("bad credentials should be rejected (connection closed)")
	}
}

func TestEndToEndStateAcrossQueries(t *testing.T) {
	// variables persist within a connection's session
	addr := startStack(t, nil)
	conn := dialQ(t, addr, "app", "")
	query(t, conn, "cutoff:100.0")
	v := query(t, conn, "select from trades where Price>cutoff")
	if _, ok := v.(*qval.Table); !ok {
		t.Fatalf("session variable lost: %v", v)
	}
}

func TestEndToEndFunctionDefinitionAndCall(t *testing.T) {
	addr := startStack(t, nil)
	conn := dialQ(t, addr, "app", "")
	query(t, conn, "f:{[s] :select max Price from trades where Symbol=s;}")
	v := query(t, conn, "f[`IBM]")
	tbl, ok := v.(*qval.Table)
	if !ok || tbl.Len() != 1 {
		t.Fatalf("f[`IBM] = %v", v)
	}
}

func TestEndToEndAsyncMessages(t *testing.T) {
	addr := startStack(t, nil)
	conn := dialQ(t, addr, "app", "")
	// async: no response expected
	if err := qipc.WriteMessage(conn, qipc.Async, qval.CharVec("asyncvar:1.5")); err != nil {
		t.Fatal(err)
	}
	// sync query sees the async statement's effect (serialized per conn)
	v := query(t, conn, "select from trades where Price>asyncvar")
	if _, ok := v.(*qval.Table); !ok {
		t.Fatalf("async statement lost: %v", v)
	}
}

func TestTwoConnectionsShareServerScope(t *testing.T) {
	// paper §3.2.3: session vars promote to server scope on session close,
	// making functions visible to later sessions
	addr := startStack(t, nil)
	conn1 := dialQ(t, addr, "one", "")
	query(t, conn1, "shared:{[s] :select from trades where Symbol=s;}")
	conn1.Close()
	// closing tears down the session asynchronously; retry via fresh conn
	conn2 := dialQ(t, addr, "two", "")
	deadline := 50
	for i := 0; i < deadline; i++ {
		v := query(t, conn2, "shared[`AAPL]")
		if _, ok := v.(*qval.Table); ok {
			return
		}
	}
	t.Fatal("promoted function never became visible to the second session")
}
