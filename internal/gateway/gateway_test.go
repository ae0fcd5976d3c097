package gateway

import (
	"context"
	"net"
	"strings"
	"testing"

	"hyperq/internal/core"
	"hyperq/internal/pgdb"
	"hyperq/internal/wire/pgv3"
)

var ctx = context.Background()

func startBackend(t *testing.T) (string, *pgdb.DB) {
	t.Helper()
	db := pgdb.NewDB()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go pgdb.Serve(ctx, l, db, pgdb.AuthConfig{
		Method: pgv3.AuthMethodCleartext,
		Users:  map[string]string{"hq": "pw"},
	})
	return l.Addr().String(), db
}

func TestGatewayExecOverWire(t *testing.T) {
	addr, _ := startBackend(t)
	gw, err := Dial(ctx, addr, "hq", "pw", "db")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if _, err := gw.Exec(ctx, "CREATE TABLE t (a bigint, b varchar)"); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Exec(ctx, "INSERT INTO t VALUES (1, 'x'), (2, NULL)"); err != nil {
		t.Fatal(err)
	}
	res, err := gw.Exec(ctx, "SELECT a, b FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 2 || res.Cols[0].SQLType != "bigint" {
		t.Fatalf("cols = %+v", res.Cols)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Text != "1" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if !res.Rows[1][1].Null {
		t.Fatal("NULL not preserved across the wire")
	}
}

func TestGatewayQueryCatalog(t *testing.T) {
	addr, _ := startBackend(t)
	gw, err := Dial(ctx, addr, "hq", "pw", "db")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if _, err := gw.Exec(ctx, "CREATE TABLE trades (ordcol bigint, price double precision)"); err != nil {
		t.Fatal(err)
	}
	rows, err := gw.QueryCatalog(ctx, "SELECT column_name, data_type, ordinal_position FROM information_schema.columns WHERE table_name = 'trades' ORDER BY ordinal_position")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != "ordcol" || rows[1][1] != "double precision" {
		t.Fatalf("catalog rows = %v", rows)
	}
}

func TestGatewayAsCoreBackend(t *testing.T) {
	// the full platform runs over the networked gateway exactly as over the
	// in-process one (the plugin boundary of §3.1)
	addr, _ := startBackend(t)
	gw, err := Dial(ctx, addr, "hq", "pw", "db")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Exec(ctx, "CREATE TABLE trades (ordcol bigint, \"Symbol\" varchar, \"Price\" double precision)"); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Exec(ctx, "INSERT INTO trades VALUES (0, 'A', 1.5), (1, 'B', 2.5)"); err != nil {
		t.Fatal(err)
	}
	s := core.NewPlatform().NewSession(gw, core.Config{})
	defer s.Close()
	v, _, err := s.Run(ctx, "select Price from trades where Symbol=`B")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v.String(), "2.5") {
		t.Fatalf("result = %v", v)
	}
}

func TestGatewayErrorsKeepSQLSTATE(t *testing.T) {
	addr, _ := startBackend(t)
	gw, err := Dial(ctx, addr, "hq", "pw", "db")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	_, err = gw.Exec(ctx, "SELECT * FROM missing")
	se, ok := err.(*pgv3.ServerError)
	if !ok || se.Code != "42P01" {
		t.Fatalf("err = %v", err)
	}
}
