package pgv3

import (
	"bytes"
	"net"
	"testing"
	"time"
)

// fuzzResult answers every statement with one row of each binary-set type
// beside a text-only one, so Bind's format codes meet both kinds.
func fuzzResult(sql string) (*cannedResult, error) {
	if sql == "" {
		return nil, nil
	}
	return &cannedResult{
		cols: []ColDesc{
			{Name: "b", TypeOID: OidBool}, {Name: "n", TypeOID: OidInt8},
			{Name: "f", TypeOID: OidFloat8}, {Name: "d", TypeOID: OidDate},
			{Name: "s", TypeOID: OidVarchar},
		},
		rows: [][]any{{"t", "1", "1.5", "2000-01-01", "x"}, {nil, nil, nil, nil, nil}},
		tag:  "SELECT 2",
	}, nil
}

// FuzzServerMessages feeds arbitrary frontend bytes, as they would follow
// startup, to a ServerConn's Serve loop: it must end in an error or a
// Terminate, never a panic, and never allocate what a length field claims
// without the bytes behind it.
func FuzzServerMessages(f *testing.F) {
	seed := func(build func(rc *rawClient)) []byte {
		rc := &rawClient{}
		build(rc)
		return rc.out.b
	}
	cycle := func(rc *rawClient, formats ...int16) {
		rc.parse("", "SELECT")
		rc.bind("", "", 0, formats...)
		rc.describe('P', "")
		rc.execute("", 0)
	}
	f.Add(seed(func(rc *rawClient) { rc.msg('Q', append([]byte("SELECT"), 0)...) }))
	f.Add(seed(func(rc *rawClient) { cycle(rc); rc.msg('S') }))
	f.Add(seed(func(rc *rawClient) {
		cycle(rc, FormatBinary, FormatBinary, FormatBinary, FormatBinary, FormatText)
		rc.msg('S')
	}))
	f.Add(seed(func(rc *rawClient) { cycle(rc, FormatBinary); rc.msg('H'); rc.msg('S'); rc.msg('X') }))
	f.Add(seed(func(rc *rawClient) {
		rc.parse("s1", "SELECT")
		rc.parse("", "SELECT", OidInt8)
		rc.bind("p1", "", 1)
		rc.describe('S', "")
		rc.execute("", 5)
		rc.msg('C', 'S', 0)
		rc.msg('C', 'P', 0)
		rc.msg('S')
	}))
	f.Add(seed(func(rc *rawClient) {
		rc.parse("", "")
		rc.bind("", "", 0)
		rc.execute("", 0)
		rc.execute("", 0)
		rc.msg('S')
	}))
	f.Add(seed(func(rc *rawClient) { rc.parse("", "SELECT"); rc.msg('B', 0, 0, 0x7f, 0xff); rc.msg('S') }))
	f.Add(seed(func(rc *rawClient) { rc.msg('F'); rc.msg('Q') }))
	f.Add([]byte{'Q', 0x3f, 0xff, 0xff, 0xff, 'S'})
	f.Fuzz(func(t *testing.T, in []byte) {
		sc := NewServerConn(memConn{bytes.NewReader(in)})
		sc.Serve(&cannedHandler{sc: sc, run: fuzzResult})
	})
}

// memConn is a connection that reads a fixed byte stream and discards what
// is written to it: one goroutine, the same path through Serve on every run.
type memConn struct{ r *bytes.Reader }

func (c memConn) Read(p []byte) (int, error)     { return c.r.Read(p) }
func (c memConn) Write(p []byte) (int, error)    { return len(p), nil }
func (memConn) Close() error                     { return nil }
func (memConn) LocalAddr() net.Addr              { return nil }
func (memConn) RemoteAddr() net.Addr             { return nil }
func (memConn) SetDeadline(time.Time) error      { return nil }
func (memConn) SetReadDeadline(time.Time) error  { return nil }
func (memConn) SetWriteDeadline(time.Time) error { return nil }
