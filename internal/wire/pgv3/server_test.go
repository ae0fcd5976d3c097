package pgv3

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// rawClient speaks the frontend side of PG v3 message by message, so tests
// can send sequences the ClientConn never would and see every reply.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	out  frame
	buf  []byte
}

// reply is one backend message as a rawClient reads it.
type reply struct {
	typ  byte
	body []byte
}

// dialServe serves one connection with Serve over h's results and returns a
// rawClient past startup.
func dialServe(t *testing.T, run func(sql string) (*cannedResult, error)) *rawClient {
	t.Helper()
	return dialConn(t, func(sc *ServerConn) *cannedHandler { return &cannedHandler{sc: sc, run: run} })
}

// dialConn is dialServe over the handler handler makes for the connection.
func dialConn(t *testing.T, handler func(sc *ServerConn) *cannedHandler) *rawClient {
	t.Helper()
	client, server := net.Pipe()
	go func() {
		sc := NewServerConn(server)
		defer sc.Close()
		if sc.Startup() != nil || sc.Authenticate(AuthMethodTrust, nil) != nil {
			return
		}
		sc.Serve(handler(sc))
	}()
	rc := &rawClient{t: t, conn: client}
	t.Cleanup(func() { client.Close() })
	rc.out.beginUntyped()
	rc.out.int32(ProtocolVersion)
	rc.out.cstr("user")
	rc.out.cstr("u")
	rc.out.byte1(0)
	rc.out.end()
	rc.send()
	for rc.next().typ != 'Z' {
	}
	return rc
}

func (rc *rawClient) send() {
	rc.t.Helper()
	if _, err := rc.conn.Write(rc.out.b); err != nil {
		rc.t.Fatal(err)
	}
	rc.out.b = rc.out.b[:0]
}

// next reads one reply, failing the test if none arrives within a second.
func (rc *rawClient) next() reply {
	rc.t.Helper()
	r, err := rc.read(time.Second)
	if err != nil {
		rc.t.Fatal(err)
	}
	return r
}

func (rc *rawClient) read(wait time.Duration) (reply, error) {
	rc.conn.SetReadDeadline(time.Now().Add(wait))
	typ, body, buf, err := readTyped(rc.conn, rc.buf)
	rc.buf = buf
	return reply{typ, append([]byte(nil), body...)}, err
}

// until reads replies through the next ReadyForQuery and returns their type
// bytes, an ErrorResponse as 'E' followed by its SQLSTATE.
func (rc *rawClient) until() string {
	rc.t.Helper()
	var got []byte
	for {
		r := rc.next()
		got = append(got, r.typ)
		if r.typ == 'E' {
			got = append(got, parseServerError(r.body).Code...)
		}
		if r.typ == 'Z' {
			return string(got)
		}
	}
}

func (rc *rawClient) parse(name, sql string, params ...int32) {
	rc.out.begin('P')
	rc.out.cstr(name)
	rc.out.cstr(sql)
	rc.out.int16(int16(len(params)))
	for _, p := range params {
		rc.out.int32(p)
	}
	rc.out.end()
}

func (rc *rawClient) bind(portal, stmt string, nparams int, formats ...int16) {
	rc.out.begin('B')
	rc.out.cstr(portal)
	rc.out.cstr(stmt)
	rc.out.int16(0)
	rc.out.int16(int16(nparams))
	for i := 0; i < nparams; i++ {
		rc.out.int32(1)
		rc.out.byte1('7')
	}
	rc.out.int16(int16(len(formats)))
	for _, f := range formats {
		rc.out.int16(f)
	}
	rc.out.end()
}

func (rc *rawClient) msg(typ byte, body ...byte) {
	rc.out.begin(typ)
	rc.out.b = append(rc.out.b, body...)
	rc.out.end()
}

func (rc *rawClient) describe(kind byte, name string) {
	rc.msg('D', append(append([]byte{kind}, name...), 0)...)
}

func (rc *rawClient) execute(name string, limit int32) {
	rc.msg('E', binary.BigEndian.AppendUint32(append([]byte(name), 0), uint32(limit))...)
}

// twoRows answers every statement with two rows of an int8 and a varchar.
func twoRows(string) (*cannedResult, error) {
	return &cannedResult{
		cols: []ColDesc{{Name: "a", TypeOID: OidInt8}, {Name: "b", TypeOID: OidVarchar}},
		rows: [][]any{{"1", "x"}, {"2", nil}},
		tag:  "SELECT 2",
	}, nil
}

// TestFlushIsNotSync: Flush writes out what is queued and nothing more; only
// Sync answers ReadyForQuery.
func TestFlushIsNotSync(t *testing.T) {
	rc := dialServe(t, twoRows)
	rc.parse("", "SELECT a, b FROM t")
	rc.bind("", "", 0)
	rc.describe('P', "")
	rc.execute("", 0)
	rc.msg('H')
	rc.send()
	var got []byte
	for _, want := range "12TDDC" {
		r := rc.next()
		got = append(got, r.typ)
		if r.typ != byte(want) {
			t.Fatalf("replies %q, want 12TDDC", got)
		}
	}
	if r, err := rc.read(100 * time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("after Flush: %q, %v; want nothing until Sync", r.typ, err)
	}
	rc.msg('S')
	rc.send()
	if got := rc.until(); got != "Z" {
		t.Fatalf("Sync answered %q", got)
	}
}

// TestExtendedCycle runs the unnamed statement and portal through the
// cycles the server supports, and the refusals around them.
func TestExtendedCycle(t *testing.T) {
	empty := func(sql string) (*cannedResult, error) {
		if sql == "" {
			return nil, nil
		}
		if sql == "INSERT" {
			return &cannedResult{tag: "INSERT 0 1"}, nil
		}
		return twoRows(sql)
	}
	for _, tc := range []struct {
		name string
		send func(rc *rawClient)
		want string
	}{
		{"describe-execute", func(rc *rawClient) {
			rc.parse("", "SELECT")
			rc.bind("", "", 0)
			rc.describe('P', "")
			rc.execute("", 0)
		}, "12TDDCZ"},
		{"execute-without-describe", func(rc *rawClient) {
			rc.parse("", "SELECT")
			rc.bind("", "", 0)
			rc.execute("", 0)
		}, "12DDCZ"},
		{"no-rows", func(rc *rawClient) {
			rc.parse("", "INSERT")
			rc.bind("", "", 0)
			rc.describe('P', "")
			rc.execute("", 0)
		}, "12nCZ"},
		{"empty-query", func(rc *rawClient) {
			rc.parse("", "")
			rc.bind("", "", 0)
			rc.describe('P', "")
			rc.execute("", 0)
		}, "12nIZ"},
		{"binary-int8", func(rc *rawClient) {
			rc.parse("", "SELECT")
			rc.bind("", "", 0, FormatBinary, FormatText)
			rc.describe('P', "")
		}, "12TZ"},
		{"binary-varchar", func(rc *rawClient) {
			rc.parse("", "SELECT")
			rc.bind("", "", 0, FormatBinary)
			rc.describe('P', "")
			rc.execute("", 0)
		}, "12E0A000Z"},
		{"format-count", func(rc *rawClient) {
			rc.parse("", "SELECT")
			rc.bind("", "", 0, 0, 0, 0)
			rc.execute("", 0)
		}, "12E08P01Z"},
		{"format-code", func(rc *rawClient) {
			rc.parse("", "SELECT")
			rc.bind("", "", 0, 2)
			rc.execute("", 0)
		}, "12E22023Z"},
		{"named-statement", func(rc *rawClient) {
			rc.parse("s1", "SELECT")
			rc.bind("", "", 0)
			rc.execute("", 0)
		}, "E0A000Z"},
		{"parameter-types", func(rc *rawClient) {
			rc.parse("", "SELECT", OidInt8)
		}, "E0A000Z"},
		{"parameters", func(rc *rawClient) {
			rc.parse("", "SELECT")
			rc.bind("", "", 1)
			rc.execute("", 0)
		}, "1E0A000Z"},
		{"named-portal", func(rc *rawClient) {
			rc.parse("", "SELECT")
			rc.bind("p1", "", 0)
		}, "1E0A000Z"},
		{"row-limit", func(rc *rawClient) {
			rc.parse("", "SELECT")
			rc.bind("", "", 0)
			rc.execute("", 1)
		}, "12E0A000Z"},
		{"describe-statement", func(rc *rawClient) {
			rc.parse("", "SELECT")
			rc.describe('S', "")
		}, "1E0A000Z"},
		{"bind-without-parse", func(rc *rawClient) {
			rc.bind("", "", 0)
		}, "E26000Z"},
		{"execute-without-bind", func(rc *rawClient) {
			rc.parse("", "SELECT")
			rc.execute("", 0)
		}, "1E34000Z"},
		{"re-execute", func(rc *rawClient) {
			rc.parse("", "SELECT")
			rc.bind("", "", 0)
			rc.execute("", 0)
			rc.execute("", 0)
		}, "12DDCE0A000Z"},
		{"close", func(rc *rawClient) {
			rc.parse("", "SELECT")
			rc.bind("", "", 0)
			rc.msg('C', 'P', 0)
			rc.execute("", 0)
		}, "123E34000Z"},
		{"malformed-bind", func(rc *rawClient) {
			rc.parse("", "SELECT")
			rc.msg('B', 0)
		}, "1E08P01Z"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc := dialServe(t, empty)
			tc.send(rc)
			rc.msg('S')
			rc.send()
			if got := rc.until(); got != tc.want {
				t.Fatalf("replies %q, want %q", got, tc.want)
			}
			// the connection is in step for the next cycle
			rc.parse("", "SELECT")
			rc.bind("", "", 0)
			rc.describe('P', "")
			rc.execute("", 0)
			rc.msg('S')
			rc.send()
			if got := rc.until(); got != "12TDDCZ" {
				t.Fatalf("next cycle replies %q", got)
			}
		})
	}
}

// TestErrorSkipsToSync: after an error everything up to Sync is skipped,
// and a statement refused by the handler is reported once.
func TestErrorSkipsToSync(t *testing.T) {
	rc := dialServe(t, func(sql string) (*cannedResult, error) {
		if sql == "boom" {
			return nil, &ServerError{Severity: "ERROR", Code: "42P01", Message: "relation does not exist"}
		}
		return twoRows(sql)
	})
	rc.parse("", "boom")
	rc.bind("", "", 0)
	rc.describe('P', "")
	rc.execute("", 0)
	rc.msg('Q', append([]byte("SELECT"), 0)...) // skipped too, until Sync
	rc.msg('S')
	rc.send()
	if got := rc.until(); got != "12E42P01Z" {
		t.Fatalf("replies %q", got)
	}
	// the simple cycle after an error still ends in ReadyForQuery
	rc.msg('Q', append([]byte("boom"), 0)...)
	rc.send()
	if got := rc.until(); got != "E42P01Z" {
		t.Fatalf("simple query replies %q", got)
	}
}

// TestServerRetainsBoundedBuffers: a connection that received one 2 MiB
// Query keeps at most maxRetained bytes of input storage once the message is
// answered, as ClientConn.trim does with its read buffer.
func TestServerRetainsBoundedBuffers(t *testing.T) {
	retained := make(chan int, 1)
	rc := dialConn(t, func(sc *ServerConn) *cannedHandler {
		return &cannedHandler{sc: sc, run: func(sql string) (*cannedResult, error) {
			if sql == "retained" {
				retained <- cap(sc.in) // the buffer the 2 MiB query left
			}
			return twoRows(sql)
		}}
	})
	for _, sql := range []string{"SELECT '" + strings.Repeat("x", 2<<20) + "'", "retained"} {
		rc.out.begin('Q')
		rc.out.cstr(sql)
		rc.out.end()
		rc.send()
		if got := rc.until(); got != "TDDCZ" {
			t.Fatalf("replies %q, want TDDCZ", got)
		}
	}
	if n := <-retained; n > maxRetained {
		t.Errorf("after a 2 MiB Query the connection retains %d bytes, bound %d", n, maxRetained)
	}
}
