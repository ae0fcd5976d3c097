package pgv3

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"time"
)

// ClientConn is the client side of a PG v3 connection — what Hyper-Q's
// Gateway uses to talk to the backend database (paper §3.1).
type ClientConn struct {
	conn net.Conn
	r    *bufio.Reader
	out  frame
	// streaming scratch, reused across messages of one query at a time (a
	// connection serves one query at a time)
	rbuf   []byte
	fields [][]byte
}

// RowReceiver receives one streamed simple-query result: the schema, then
// each data row as it is decoded off the wire, then the command tag.
type RowReceiver interface {
	// Describe delivers the RowDescription.
	Describe(cols []ColDesc) error
	// DataRow delivers one row. A nil cell is SQL NULL; non-nil cells point
	// into the connection's read buffer and are only valid during the call.
	DataRow(fields [][]byte) error
	// Complete delivers the command tag once the result finished cleanly.
	Complete(tag string)
}

// QueryResult is a collected simple-query result: schema, rows in text
// format, and the command tag.
type QueryResult struct {
	Cols []ColDesc
	Rows [][]Field
	Tag  string
}

// Connect dials a PG v3 server and completes startup + authentication. The
// context bounds the dial and the handshake; it does not outlive Connect.
func Connect(ctx context.Context, addr, user, password, database string) (*ClientConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetDeadline(deadline)
		defer conn.SetDeadline(time.Time{})
	}
	c := &ClientConn{conn: conn, r: bufio.NewReader(conn)}
	if err := c.startup(user, password, database); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *ClientConn) startup(user, password, database string) error {
	// startup message: no type byte
	c.out.beginUntyped()
	c.out.int32(ProtocolVersion)
	c.out.cstr("user")
	c.out.cstr(user)
	if database != "" {
		c.out.cstr("database")
		c.out.cstr(database)
	}
	c.out.byte1(0)
	c.out.end()
	if err := c.flush(); err != nil {
		return err
	}
	// authentication loop
	for {
		typ, msg, err := c.read()
		if err != nil {
			return err
		}
		switch typ {
		case 'R':
			if len(msg) < 4 {
				return errf("short auth message")
			}
			switch binary.BigEndian.Uint32(msg) {
			case AuthOK:
				// continue to ready loop below
			case AuthCleartext:
				if err := c.sendPassword(password); err != nil {
					return err
				}
			case AuthMD5:
				if len(msg) < 8 {
					return errf("short MD5 auth message")
				}
				var salt [4]byte
				copy(salt[:], msg[4:8])
				if err := c.sendPassword(md5Password(user, password, salt)); err != nil {
					return err
				}
			default:
				return errf("unsupported auth method %d", binary.BigEndian.Uint32(msg))
			}
		case 'S', 'K', 'N':
			// parameter status / key data / notice: ignore
		case 'Z':
			return nil // ready
		case 'E':
			return parseServerError(msg)
		default:
			return errf("unexpected startup message %q", typ)
		}
	}
}

func (c *ClientConn) sendPassword(pw string) error {
	c.out.begin('p')
	c.out.cstr(pw)
	c.out.end()
	return c.flush()
}

// flush writes the queued messages to the socket.
func (c *ClientConn) flush() error {
	_, err := c.conn.Write(c.out.b)
	c.out.b = c.out.b[:0]
	return err
}

// read reads one typed message into the connection's reusable body buffer;
// the returned body is only valid until the next read.
func (c *ClientConn) read() (byte, []byte, error) {
	typ, body, buf, err := readTyped(c.r, c.rbuf)
	c.rbuf = buf
	return typ, body, err
}

// Query runs one SQL statement via the simple query protocol and collects
// the full result into owned strings — the materialized form the text path
// consumes. It is QueryStream over a collecting receiver, so it shares the
// cancellation semantics below: after the statement context is canceled
// mid-stream, remaining rows are discarded as they drain rather than
// accumulated.
func (c *ClientConn) Query(ctx context.Context, sql string) (*QueryResult, error) {
	res := &QueryResult{}
	if err := c.QueryStream(ctx, sql, (*collectReceiver)(res)); err != nil {
		return nil, err
	}
	return res, nil
}

// collectReceiver materializes a streamed result as a QueryResult.
type collectReceiver QueryResult

func (cr *collectReceiver) Describe(cols []ColDesc) error {
	cr.Cols = cols
	return nil
}

func (cr *collectReceiver) DataRow(fields [][]byte) error {
	row := make([]Field, len(fields))
	for j, f := range fields {
		if f == nil {
			row[j] = Field{Null: true}
		} else {
			row[j] = Field{Text: string(f)}
		}
	}
	cr.Rows = append(cr.Rows, row)
	return nil
}

func (cr *collectReceiver) Complete(tag string) { cr.Tag = tag }

// QueryStream runs one SQL statement via the simple query protocol,
// delivering rows to the receiver incrementally as DataRow messages decode
// — no [][]Field materialization. The context is the single source of truth
// for the query's deadline and cancellation: its deadline becomes the
// socket I/O deadline, and cancellation aborts in-flight I/O immediately.
// An abort surfaces as an *AbortError wrapping ctx.Err() — the connection
// is mid-protocol at that point and must be discarded. A receiver error
// stops delivery but drains the result to ReadyForQuery, keeping the
// connection protocol-clean (matching the materialized path, where
// conversion errors surface after the full drain).
func (c *ClientConn) QueryStream(ctx context.Context, sql string, rr RowReceiver) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	finish := c.armContext(ctx)
	return finish(c.queryStream(ctx, sql, rr))
}

// armContext maps ctx onto the socket for the duration of one query. The
// returned finish must be called exactly once with the query's error: it
// stops the cancellation watcher, clears the deadline, and attributes an
// I/O failure caused by the context to the context.
func (c *ClientConn) armContext(ctx context.Context) func(error) error {
	if d, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(d)
	}
	var stop, idle chan struct{}
	if done := ctx.Done(); done != nil {
		stop = make(chan struct{})
		idle = make(chan struct{})
		go func() {
			defer close(idle)
			select {
			case <-done:
				// force in-flight I/O to fail now; finish attributes the
				// failure to ctx.Err()
				c.conn.SetDeadline(time.Unix(1, 0))
			case <-stop:
			}
		}()
	}
	return func(err error) error {
		if stop != nil {
			close(stop)
			<-idle // the watcher must not re-arm after the clear below
		}
		c.conn.SetDeadline(time.Time{})
		if err == nil {
			return nil
		}
		var se *ServerError
		if cerr := ctx.Err(); cerr != nil && !errors.As(err, &se) {
			return &AbortError{Ctx: cerr, IO: err}
		}
		return err
	}
}

func (c *ClientConn) queryStream(ctx context.Context, sql string, rr RowReceiver) error {
	c.out.begin('Q')
	c.out.cstr(sql)
	c.out.end()
	if err := c.flush(); err != nil {
		return err
	}
	var qerr, sinkErr error
	var tag string
	aborted := false
	for {
		typ, body, err := c.read()
		if err != nil {
			return err
		}
		switch typ {
		case 'T':
			if aborted || sinkErr != nil {
				continue
			}
			cols, err := parseRowDescription(body)
			if err != nil {
				return err
			}
			if err := rr.Describe(cols); err != nil {
				sinkErr = err
			}
		case 'D':
			// a canceled statement stops delivering (and retaining) rows
			// right away; the remaining stream drains until the context
			// watcher's poisoned socket deadline or ReadyForQuery ends it
			if !aborted && ctx.Err() != nil {
				aborted = true
			}
			if aborted || sinkErr != nil {
				continue
			}
			if err := c.parseDataRowInto(body); err != nil {
				return err
			}
			if err := rr.DataRow(c.fields); err != nil {
				sinkErr = err
			}
		case 'C':
			t, _, err := cutCString(body)
			if err != nil {
				return err
			}
			tag = t
		case 'E':
			qerr = parseServerError(body)
		case 'N', 'S', 'K':
			// notices and parameter updates: ignore
		case 'Z':
			switch {
			case qerr != nil:
				return qerr
			case sinkErr != nil:
				return sinkErr
			case aborted:
				return ctx.Err()
			}
			rr.Complete(tag)
			return nil
		default:
			return errf("unexpected message %q during query", typ)
		}
	}
}

// parseDataRowInto decodes a DataRow into the connection's reusable field
// slice: nil for NULL, subslices of the read buffer otherwise.
func (c *ClientConn) parseDataRowInto(b []byte) error {
	if len(b) < 2 {
		return errf("short DataRow")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if cap(c.fields) < n {
		c.fields = make([][]byte, n)
	}
	c.fields = c.fields[:n]
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return errf("short field length")
		}
		ln := int32(binary.BigEndian.Uint32(b))
		b = b[4:]
		if ln < 0 {
			c.fields[i] = nil
			continue
		}
		if int(ln) > len(b) {
			return errf("field overruns message")
		}
		c.fields[i] = b[:ln:ln]
		b = b[ln:]
	}
	return nil
}

// Close sends Terminate and closes the socket.
func (c *ClientConn) Close() error {
	c.out.begin('X')
	c.out.end()
	c.flush()
	return c.conn.Close()
}

func parseRowDescription(b []byte) ([]ColDesc, error) {
	if len(b) < 2 {
		return nil, errf("short RowDescription")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	cols := make([]ColDesc, 0, n)
	for i := 0; i < n; i++ {
		name, rest, err := cutCString(b)
		if err != nil {
			return nil, err
		}
		if len(rest) < 18 {
			return nil, errf("short column descriptor")
		}
		oid := binary.BigEndian.Uint32(rest[6:10])
		cols = append(cols, ColDesc{Name: name, TypeOID: oid})
		b = rest[18:]
	}
	return cols, nil
}

func parseServerError(b []byte) *ServerError {
	e := &ServerError{Severity: "ERROR", Code: "XX000"}
	for len(b) > 0 && b[0] != 0 {
		code := b[0]
		val, rest, err := cutCString(b[1:])
		if err != nil {
			break
		}
		switch code {
		case 'S':
			e.Severity = val
		case 'C':
			e.Code = val
		case 'M':
			e.Message = val
		}
		b = rest
	}
	return e
}
