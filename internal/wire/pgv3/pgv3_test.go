package pgv3

import (
	"context"
	"net"
	"slices"
	"strings"
	"testing"
)

// echoServer serves canned responses on one connection with the given auth
// method.
func echoServer(t *testing.T, conn net.Conn, method AuthMethod, users map[string]string) {
	t.Helper()
	sc := NewServerConn(conn)
	defer sc.Close()
	if err := sc.Startup(); err != nil {
		t.Errorf("startup: %v", err)
		return
	}
	verify := func(user, response string, salt [4]byte) bool {
		stored, ok := users[user]
		if !ok {
			return false
		}
		if method == AuthMethodMD5 {
			return response == MD5Response(user, stored, salt)
		}
		return response == stored
	}
	if err := sc.Authenticate(method, verify); err != nil {
		return
	}
	sc.Serve(&cannedHandler{sc: sc, run: func(sql string) (*cannedResult, error) {
		if strings.Contains(sql, "boom") {
			return nil, &ServerError{Severity: "ERROR", Code: "42P01", Message: "relation does not exist"}
		}
		return &cannedResult{
			cols: []ColDesc{{Name: "a", TypeOID: OidInt8}, {Name: "b", TypeOID: OidVarchar}},
			rows: [][]any{{"1", "x"}, {"2", nil}},
			tag:  "SELECT 2",
		}, nil
	}})
}

// cannedHandler is a Handler whose statements all answer what run returns
// for their text.
type cannedHandler struct {
	sc  *ServerConn
	run func(sql string) (*cannedResult, error)
}

// cannedResult is a Result of fixed rows. A string cell goes out as is in
// either format (a binary cell's bytes are the test's to get right), a nil
// cell is NULL.
type cannedResult struct {
	sc   *ServerConn
	cols []ColDesc
	rows [][]any
	tag  string
}

func (h *cannedHandler) Query(sql string) ([]Result, error) {
	res, err := h.result(sql)
	if res == nil {
		return nil, err
	}
	return []Result{res}, err
}

func (h *cannedHandler) result(sql string) (*cannedResult, error) {
	res, err := h.run(sql)
	if res != nil {
		res.sc = h.sc
	}
	return res, err
}

func (h *cannedHandler) Parse(sql string) (Statement, error) { return cannedStmt{h, sql}, nil }

type cannedStmt struct {
	h   *cannedHandler
	sql string
}

func (s cannedStmt) Run() (Result, error) {
	res, err := s.h.result(s.sql)
	if res == nil {
		return nil, err
	}
	return res, err
}

func (r *cannedResult) Columns() []ColDesc { return slices.Clone(r.cols) }

func (r *cannedResult) WriteRows([]ColDesc) error {
	for _, row := range r.rows {
		if err := sendRow(r.sc, row...); err != nil {
			return err
		}
	}
	return nil
}

func (r *cannedResult) Tag() string { return r.tag }

// sendRow writes one DataRow: a string cell is text, a nil cell is NULL.
func sendRow(sc *ServerConn, cells ...any) error {
	sc.BeginDataRow(len(cells))
	for _, c := range cells {
		if c == nil {
			sc.NullCell()
			continue
		}
		sc.EndCell(append(sc.BeginCell(), c.(string)...))
	}
	return sc.EndDataRow()
}

func startEcho(t *testing.T, method AuthMethod, users map[string]string) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed by the test's cleanup
			}
			echoServer(t, conn, method, users)
		}
	}()
	return l.Addr().String()
}

func TestTrustAuthAndSimpleQuery(t *testing.T) {
	addr := startEcho(t, AuthMethodTrust, nil)
	c, err := Connect(context.Background(), addr, "u", "", "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query(context.Background(), "SELECT a, b FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 2 || res.Cols[0].Name != "a" || res.Cols[0].TypeOID != OidInt8 {
		t.Fatalf("cols = %+v", res.Cols)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Text != "1" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if !res.Rows[1][1].Null {
		t.Fatal("null field lost")
	}
	if res.Tag != "SELECT 2" {
		t.Fatalf("tag = %q", res.Tag)
	}
}

func TestCleartextAuth(t *testing.T) {
	addr := startEcho(t, AuthMethodCleartext, map[string]string{"alice": "pw"})
	c, err := Connect(context.Background(), addr, "alice", "pw", "db")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := Connect(context.Background(), addr, "alice", "wrong", "db"); err == nil {
		t.Fatal("wrong password should be rejected")
	}
}

func TestMD5Auth(t *testing.T) {
	addr := startEcho(t, AuthMethodMD5, map[string]string{"bob": "hunter2"})
	c, err := Connect(context.Background(), addr, "bob", "hunter2", "db")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := Connect(context.Background(), addr, "bob", "nope", "db"); err == nil {
		t.Fatal("wrong MD5 password should be rejected")
	}
}

func TestServerErrorSurfaces(t *testing.T) {
	addr := startEcho(t, AuthMethodTrust, nil)
	c, err := Connect(context.Background(), addr, "u", "", "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Query(context.Background(), "boom")
	se, ok := err.(*ServerError)
	if !ok || se.Code != "42P01" {
		t.Fatalf("err = %v", err)
	}
	// connection still usable after an error (ReadyForQuery resumed)
	if _, err := c.Query(context.Background(), "SELECT 1"); err != nil {
		t.Fatalf("connection dead after error: %v", err)
	}
}

func TestMD5ResponseFormat(t *testing.T) {
	// known-answer test: PostgreSQL md5 scheme
	got := MD5Response("user", "pass", [4]byte{1, 2, 3, 4})
	if !strings.HasPrefix(got, "md5") || len(got) != 35 {
		t.Fatalf("md5 response = %q", got)
	}
	// deterministic
	if got != MD5Response("user", "pass", [4]byte{1, 2, 3, 4}) {
		t.Fatal("md5 response not deterministic")
	}
	if got == MD5Response("user", "pass", [4]byte{9, 9, 9, 9}) {
		t.Fatal("salt ignored")
	}
}

func TestOIDRoundTrip(t *testing.T) {
	for _, typ := range []string{"boolean", "smallint", "integer", "bigint",
		"real", "double precision", "numeric", "date", "time", "timestamp", "varchar", "text"} {
		if got := TypeForOID(OIDForType(typ)); got != typ {
			t.Errorf("OID round trip %q -> %q", typ, got)
		}
	}
}
