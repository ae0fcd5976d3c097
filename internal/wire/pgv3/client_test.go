package pgv3

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"testing"
)

// streamCollector is a RowReceiver that records everything it is handed.
type streamCollector struct {
	cols  []ColDesc
	rows  [][]string
	nulls int
	tag   string
	// onRow, when set, runs after each delivered row
	onRow func(n int)
	// rowErr, when set, is returned from DataRow
	rowErr error
}

func (sc *streamCollector) Describe(cols []ColDesc) error {
	sc.cols = cols
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

// startBulkServer serves one connection: any query returns rows numbered
// 0..n-1 in a single flushed burst, then CommandComplete/ReadyForQuery.
func startBulkServer(t *testing.T, n int) string {
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
				sc.Serve(&cannedHandler{sc: sc, run: func(string) (*cannedResult, error) {
					res := &cannedResult{cols: []ColDesc{{Name: "n", TypeOID: OidInt8}}, tag: fmt.Sprintf("SELECT %d", n)}
					for i := 0; i < n; i++ {
						res.rows = append(res.rows, []any{strconv.Itoa(i)})
					}
					return res, nil
				}})
			}(conn)
		}
	}()
	return l.Addr().String()
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
