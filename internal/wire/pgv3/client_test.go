package pgv3

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// streamCollector is a RowReceiver that records everything it is handed.
type streamCollector struct {
	cols  []ColDesc
	hints []int // each Describe's remembered row count
	rows  [][]string
	nulls int
	tag   string
	// onRow, when set, runs after each delivered row
	onRow func(n int)
	// rowErr, when set, is returned from DataRow
	rowErr error
}

func (sc *streamCollector) Describe(cols []ColDesc, rows int) error {
	sc.cols = cols
	sc.hints = append(sc.hints, rows)
	return nil
}

func (sc *streamCollector) DataRow(fields [][]byte) error {
	if sc.rowErr != nil {
		return sc.rowErr
	}
	row := make([]string, len(fields))
	for j, f := range fields {
		if f == nil {
			sc.nulls++
			continue
		}
		row[j] = string(f)
	}
	sc.rows = append(sc.rows, row)
	if sc.onRow != nil {
		sc.onRow(len(sc.rows))
	}
	return nil
}

func (sc *streamCollector) Complete(tag string) { sc.tag = tag }

func TestQueryStreamDelivers(t *testing.T) {
	addr := startEcho(t, AuthMethodTrust, nil)
	c, err := Connect(context.Background(), addr, "u", "", "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var sc streamCollector
	if err := c.QueryStream(context.Background(), "SELECT a, b FROM t", &sc); err != nil {
		t.Fatal(err)
	}
	if len(sc.cols) != 2 || sc.cols[0].Name != "a" || sc.cols[0].TypeOID != OidInt8 {
		t.Fatalf("cols = %+v", sc.cols)
	}
	if len(sc.rows) != 2 || sc.rows[0][0] != "1" || sc.rows[1][0] != "2" {
		t.Fatalf("rows = %+v", sc.rows)
	}
	if sc.nulls != 1 {
		t.Fatalf("nulls = %d", sc.nulls)
	}
	if sc.tag != "SELECT 2" {
		t.Fatalf("tag = %q", sc.tag)
	}
	// the same connection still serves the materialized path
	res, err := c.Query(context.Background(), "SELECT a, b FROM t")
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("follow-up Query: %v, %+v", err, res)
	}
}

func TestQueryStreamServerError(t *testing.T) {
	addr := startEcho(t, AuthMethodTrust, nil)
	c, err := Connect(context.Background(), addr, "u", "", "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var sc streamCollector
	err = c.QueryStream(context.Background(), "boom", &sc)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != "42P01" {
		t.Fatalf("err = %v", err)
	}
	if err := c.QueryStream(context.Background(), "SELECT 1", &sc); err != nil {
		t.Fatalf("connection dead after server error: %v", err)
	}
}

// startBulkServer serves connections where any query returns rows numbered
// 0..n-1 in a single flushed burst, then CommandComplete/ReadyForQuery.
func startBulkServer(t *testing.T, n int) string {
	t.Helper()
	return startCanned(t, func(string) (*cannedResult, error) {
		res := &cannedResult{cols: []ColDesc{{Name: "n", TypeOID: OidInt8}}, tag: fmt.Sprintf("SELECT %d", n)}
		for i := 0; i < n; i++ {
			res.rows = append(res.rows, []any{strconv.Itoa(i)})
		}
		return res, nil
	})
}

// TestCancelMidStreamStopsDelivery pins the fix for the canceled-statement
// drain: once the statement context is canceled, remaining rows must not
// keep accumulating — delivery stops at the cancellation point.
func TestCancelMidStreamStopsDelivery(t *testing.T) {
	const total = 5000
	addr := startBulkServer(t, total)
	c, err := Connect(context.Background(), addr, "u", "", "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc := &streamCollector{}
	sc.onRow = func(n int) {
		if n == 3 {
			cancel() // cancel synchronously inside row delivery
		}
	}
	err = c.QueryStream(ctx, "SELECT n FROM big", sc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// the row already being delivered lands; nothing after it may
	if len(sc.rows) != 3 {
		t.Fatalf("delivered %d rows after cancel at 3", len(sc.rows))
	}
	if sc.tag != "" {
		t.Fatalf("tag delivered on canceled stream: %q", sc.tag)
	}
}

// TestReceiverErrorDrainsProtocol: a sink error stops delivery but drains to
// ReadyForQuery, so the connection survives for the next statement.
func TestReceiverErrorDrainsProtocol(t *testing.T) {
	addr := startBulkServer(t, 100)
	c, err := Connect(context.Background(), addr, "u", "", "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	boom := errors.New("sink exploded")
	sc := &streamCollector{rowErr: boom}
	if err := c.QueryStream(context.Background(), "SELECT n FROM big", sc); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want sink error", err)
	}
	good := &streamCollector{}
	if err := c.QueryStream(context.Background(), "SELECT n FROM big", good); err != nil {
		t.Fatalf("connection dead after sink error: %v", err)
	}
	if len(good.rows) != 100 {
		t.Fatalf("follow-up rows = %d", len(good.rows))
	}
}

// TestDescribeCacheRemembersRowCount: an extended run is described with the
// row count of its text's last successful run on the connection, -1 for a
// text not remembered. A failed run forgets the count, and so does a run
// whose remembered formats turned stale: its rerun in text is described
// with -1. The count is a hint, so a run may deliver more or fewer rows.
func TestDescribeCacheRemembersRowCount(t *testing.T) {
	var mu sync.Mutex
	rows, oid, fail := 3, uint32(OidVarchar), false
	set := func(n int, o uint32, f bool) {
		mu.Lock()
		defer mu.Unlock()
		rows, oid, fail = n, o, f
	}
	addr := startCanned(t, func(string) (*cannedResult, error) {
		mu.Lock()
		defer mu.Unlock()
		if fail {
			return nil, &ServerError{Severity: "ERROR", Code: "22012", Message: "division by zero"}
		}
		res := &cannedResult{cols: []ColDesc{{Name: "v", TypeOID: oid}}, tag: fmt.Sprintf("SELECT %d", rows)}
		for i := 0; i < rows; i++ {
			// eight bytes: a bigint's binary width, and a text cell too
			res.rows = append(res.rows, []any{fmt.Sprintf("%08d", i)})
		}
		return res, nil
	})
	c, err := Connect(context.Background(), addr, "u", "", "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	run := func(sql string) (*streamCollector, error) {
		t.Helper()
		sc := &streamCollector{}
		err := c.QueryExtended(context.Background(), sql, sc)
		if err == nil && len(sc.rows) != rows {
			t.Fatalf("%s: %d rows delivered, want %d", sql, len(sc.rows), rows)
		}
		return sc, err
	}
	expect := func(step string, sql string, want ...int) *streamCollector {
		t.Helper()
		sc, err := run(sql)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if !slices.Equal(sc.hints, want) {
			t.Fatalf("%s: described with %v, want %v", step, sc.hints, want)
		}
		return sc
	}
	const sql = "SELECT v FROM t"
	expect("first run", sql, -1)
	expect("second run", sql, 3)
	expect("other text", "SELECT v FROM u", -1)
	set(5, OidVarchar, false)
	expect("grown result", sql, 3)
	expect("after growth", sql, 5)
	set(2, OidVarchar, false)
	expect("shrunk result", sql, 5)
	expect("after shrinking", sql, 2)

	set(2, OidVarchar, true)
	if _, err := run(sql); err == nil {
		t.Fatal("failing run succeeded")
	}
	set(2, OidVarchar, false)
	expect("after a failed run", sql, -1)
	expect("remembered again", sql, 2)

	// a bigint column: the next run asks for its cells in binary
	set(4, OidInt8, false)
	expect("new types", sql, 2)
	if sc := expect("binary run", sql, 4); sc.cols[0].Format != FormatBinary {
		t.Fatal("the bigint column was not asked for in binary")
	}
	set(4, OidVarchar, false)
	expect("stale formats rerun in text", sql, -1)
	expect("after the rerun", sql, 4)
}

// startCanned serves connections whose statements answer what run returns.
func startCanned(t *testing.T, run func(sql string) (*cannedResult, error)) string {
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
				return
			}
			go func(conn net.Conn) {
				sc := NewServerConn(conn)
				defer sc.Close()
				if err := sc.Startup(); err != nil {
					return
				}
				if err := sc.Authenticate(AuthMethodTrust, nil); err != nil {
					return
				}
				sc.Serve(&cannedHandler{sc: sc, run: run})
			}(conn)
		}
	}()
	return l.Addr().String()
}
