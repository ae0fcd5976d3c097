package pgv3

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"math"
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
	hdr     [5]byte
	rbuf    []byte  // the body of the last message other than a DataRow
	batch   Batch   // the DataRows read and not yet delivered
	widths  []int   // the described columns' binary cell widths; 0 for text
	formats []int16 // the result format codes Bind requests
	// described is the describe cache: what the last successful extended
	// run of each SQL text described, from which the next run of the text
	// picks its result formats before anything is described, and announces
	// its likely row count to the receiver.
	described  map[string]describedResult
	remembered describedResult // the running text's entry; zero when it has none
}

// describedResult is one describe-cache entry: the result column types of a
// text's last successful extended run and how many rows that run delivered.
type describedResult struct {
	oids []uint32
	rows int
}

// describedBound caps the describe cache; a full cache is dropped
// wholesale rather than tracked for recency.
const describedBound = 256

// errStaleFormats reports that a run asked for binary cells on the strength
// of a describe-cache entry that no longer holds: the text's result types
// changed since it was remembered.
var errStaleFormats = errors.New("pgv3: remembered result formats are stale")

// errUndecodable reports a RowDescription with a binary column outside the
// binary set, whose cells this package cannot decode.
var errUndecodable = errf("binary result column of a type outside the binary set")

// RowReceiver receives one streamed result: the schema, then its rows a
// batch at a time as they come off the wire, then the command tag.
type RowReceiver interface {
	// Describe delivers the RowDescription, with each column's format, and
	// the row count of the text's last successful extended run on this
	// connection, or -1 when none is remembered. The count is a sizing hint:
	// the rows that follow may be more or fewer.
	Describe(cols []ColDesc, rows int) error
	// DataRows delivers the next batch of rows, each of exactly the
	// described columns, each cell in its column's format (a binary cell has
	// its type's width). The batch is the connection's and only valid
	// during the call.
	DataRows(b *Batch) error
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
	c, err := NewClientConn(ctx, conn, user, password, database)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClientConn completes startup and authentication over an open
// connection, which the returned ClientConn then owns (on an error the
// caller still does). The context bounds the handshake only.
func NewClientConn(ctx context.Context, conn net.Conn, user, password, database string) (*ClientConn, error) {
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetDeadline(deadline)
		defer conn.SetDeadline(time.Time{})
	}
	// the reader holds one of the server's flushes whole, so a flush costs
	// one read, not one per default-sized (4 KiB) buffer
	c := &ClientConn{conn: conn, r: bufio.NewReaderSize(conn, flushAt)}
	if err := c.startup(user, password, database); err != nil {
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
	typ, n, err := readHeader(c.r, c.hdr[:])
	if err != nil {
		return 0, nil, err
	}
	body, err := c.readBody(n)
	return typ, body, err
}

// readBody reads an n-byte message body into the connection's reusable
// body buffer.
func (c *ClientConn) readBody(n int) ([]byte, error) {
	body, err := appendBody(c.r, c.rbuf[:0], n)
	c.rbuf = body
	return body, err
}

// trim drops read storage grown past maxRetained, as ServerConn.Flush does
// with its output buffer: the largest message a connection ever read must
// not stay pinned for the connection's life.
func (c *ClientConn) trim() {
	if cap(c.rbuf) > maxRetained {
		c.rbuf = nil
	}
	c.batch.trim()
}

// Query runs one SQL statement via the simple query protocol and collects
// the full result into owned strings — the materialized form the text path
// consumes. It is QueryStream over a collecting receiver, so it shares the
// cancellation semantics below: after the statement context is canceled
// mid-stream, the reply is abandoned at the next batch boundary rather than
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

func (cr *collectReceiver) Describe(cols []ColDesc, _ int) error {
	cr.Cols = cols
	return nil
}

func (cr *collectReceiver) DataRows(b *Batch) error {
	for i := range b.Rows() {
		row := make([]Field, b.Width())
		for j := range row {
			if f := b.Cell(i, j); f == nil {
				row[j] = Field{Null: true}
			} else {
				row[j] = Field{Text: string(f)}
			}
		}
		cr.Rows = append(cr.Rows, row)
	}
	return nil
}

func (cr *collectReceiver) Complete(tag string) { cr.Tag = tag }

// QueryStream runs one SQL statement via the simple query protocol,
// delivering rows to the receiver a batch at a time as DataRow messages
// arrive — no [][]Field materialization. The context is the single source
// of truth for the query's deadline and cancellation: its deadline becomes
// the socket I/O deadline, and cancellation aborts in-flight I/O
// immediately. A cancellation while rows stream in abandons the reply at
// the next batch boundary: the batch being delivered when it came still
// lands, no later one does. An abort surfaces as an *AbortError wrapping
// ctx.Err() — the connection is mid-protocol at that point and must be
// discarded. A receiver error stops delivery but drains the result to
// ReadyForQuery, keeping the connection protocol-clean (matching the
// materialized path, where conversion errors surface after the full
// drain).
func (c *ClientConn) QueryStream(ctx context.Context, sql string, rr RowReceiver) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	finish := c.armContext(ctx)
	return finish(c.queryStream(ctx, sql, rr, false))
}

// QueryExtended runs one SQL statement through the extended query cycle
// (Parse, Bind, Describe, Execute, Sync over the unnamed statement and
// portal) and streams its rows like QueryStream, with the same cancellation
// and drain semantics. The first run of a text on the connection binds with
// no result format codes, so every column comes back as text; later runs
// ask for binary cells on the columns the last run described with a type in
// the binary set (BinaryWidth). RowReceiver.Describe reports each column's
// format, and the row count of the text's last run. A run whose remembered
// formats no longer fit the text's result — the server refuses them, or
// describes a binary column outside the set — is forgotten and run once
// more in text.
func (c *ClientConn) QueryExtended(ctx context.Context, sql string, rr RowReceiver) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	finish := c.armContext(ctx)
	err := c.queryStream(ctx, sql, rr, true)
	if err == errStaleFormats {
		err = c.queryStream(ctx, sql, rr, true) // the failed run dropped the entry
	}
	return finish(err)
}

// pickFormats sets c.formats for an extended run of sql: binary for the
// columns the describe cache holds with a type in the binary set, none at
// all (every column text) when no column qualifies or the text is not
// remembered. It reports whether any column asks for binary.
func (c *ClientConn) pickFormats(sql string) bool {
	c.formats = c.formats[:0]
	c.remembered = c.described[sql]
	binary := false
	for _, oid := range c.remembered.oids {
		code := int16(FormatText)
		if _, ok := BinaryWidth(oid); ok {
			code, binary = FormatBinary, true
		}
		c.formats = append(c.formats, code)
	}
	if !binary || len(c.formats) > math.MaxInt16 {
		c.formats = c.formats[:0]
		return false
	}
	return true
}

// remember records the result types and row count of an extended run of
// sql that succeeded with cols (nil when it described no rows), or forgets
// them after a run that failed.
func (c *ClientConn) remember(sql string, cols []ColDesc, rows int, failed bool) {
	entry := describedResult{oids: c.remembered.oids, rows: rows}
	switch {
	case failed || cols == nil:
		if entry.oids != nil {
			delete(c.described, sql)
		}
		return
	case entry.oids != nil && sameOIDs(entry.oids, cols):
		if entry.rows != c.remembered.rows {
			c.described[sql] = entry
		}
		return
	}
	if c.described == nil || len(c.described) >= describedBound {
		c.described = make(map[string]describedResult)
	}
	entry.oids = make([]uint32, len(cols))
	for j, col := range cols {
		entry.oids[j] = col.TypeOID
	}
	c.described[sql] = entry
}

func sameOIDs(oids []uint32, cols []ColDesc) bool {
	if len(oids) != len(cols) {
		return false
	}
	for j, col := range cols {
		if oids[j] != col.TypeOID {
			return false
		}
	}
	return true
}

// sendExtended queues one extended cycle for sql over the unnamed statement
// and portal: Parse, Bind with c.formats, Describe, Execute, Sync.
func (c *ClientConn) sendExtended(sql string) {
	c.out.begin('P')
	c.out.cstr("") // unnamed statement
	c.out.cstr(sql)
	c.out.int16(0) // no parameter types
	c.out.end()
	c.out.begin('B')
	c.out.cstr("") // unnamed portal
	c.out.cstr("") // unnamed statement
	c.out.int16(0) // no parameter format codes
	c.out.int16(0) // no parameters
	c.out.int16(int16(len(c.formats)))
	for _, f := range c.formats {
		c.out.int16(f)
	}
	c.out.end()
	c.out.begin('D')
	c.out.byte1('P')
	c.out.cstr("")
	c.out.end()
	c.out.begin('E')
	c.out.cstr("")
	c.out.int32(0) // no row limit
	c.out.end()
	c.out.begin('S')
	c.out.end()
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

// queryStream runs one statement over the simple cycle, or over the
// extended cycle when extended is set, and reads its reply: the one read
// loop both cycles share. DataRows are read straight into the connection's
// batch, which goes to rr once it is full and before any other message is
// handled. A reply the protocol does not allow — a DataRow before any
// RowDescription, a row whose field count differs from the description, a
// binary cell of the wrong width — stops delivery and fails the statement,
// after the reply drains to ReadyForQuery.
func (c *ClientConn) queryStream(ctx context.Context, sql string, rr RowReceiver, extended bool) error {
	defer c.trim()
	binary, hint := false, -1
	if extended {
		binary = c.pickFormats(sql)
		if c.remembered.oids != nil {
			hint = c.remembered.rows
		}
		c.sendExtended(sql)
	} else {
		c.out.begin('Q')
		c.out.cstr(sql)
		c.out.end()
	}
	if err := c.flush(); err != nil {
		return err
	}
	done := ctx.Done()
	var qerr *ServerError
	var badErr, sinkErr error
	var tag string
	var cols []ColDesc // the current statement's columns; nil before its RowDescription
	rows := 0          // DataRows delivered to rr
	// deliver hands the batch to rr. A canceled statement abandons its reply
	// here, at a batch boundary, so the connection it leaves is mid-protocol
	// every time, not only when the context watcher's poisoned deadline wins
	// the race against ReadyForQuery.
	deliver := func() error {
		if canceled(done) {
			return ErrAbandoned
		}
		n := c.batch.Rows()
		if err := rr.DataRows(&c.batch); err != nil {
			sinkErr = err
		}
		rows += n
		c.batch.Reset(len(cols))
		return nil
	}
	for {
		typ, n, err := readHeader(c.r, c.hdr[:])
		if err != nil {
			return err
		}
		if typ == 'D' && cols != nil && sinkErr == nil && badErr == nil {
			if c.batch.Rows() == 0 && canceled(done) {
				return ErrAbandoned
			}
			bad, err := c.batch.readRow(c.r, n, c.widths)
			switch {
			case err != nil:
				return err
			case bad != nil:
				badErr = bad
			case c.batch.full():
				if err := deliver(); err != nil {
					return err
				}
			}
			continue
		}
		if c.batch.Rows() > 0 && sinkErr == nil && badErr == nil {
			if err := deliver(); err != nil {
				return err
			}
		}
		body, err := c.readBody(n)
		if err != nil {
			return err
		}
		switch typ {
		case 'T':
			if cols, err = c.describe(body); err != nil && badErr == nil {
				badErr = err
			}
			c.batch.Reset(len(cols))
			if sinkErr != nil || badErr != nil {
				continue
			}
			if err := rr.Describe(cols, hint); err != nil {
				sinkErr = err
			}
		case 'D':
			// a DataRow the loop skipped: one before any RowDescription, or
			// one after delivery stopped. A cancel during that drain abandons
			// the reply as one during delivery does.
			if canceled(done) {
				return ErrAbandoned
			}
			if cols == nil && badErr == nil && sinkErr == nil {
				badErr = errf("DataRow before RowDescription")
			}
		case 'C':
			t, _, err := cutCString(body)
			if err != nil {
				return err
			}
			tag = t
			if !extended {
				cols = nil // the script's next statement describes its own rows
			}
		case 'E':
			qerr = parseServerError(body)
		case '1', '2', 'n', 'I':
			// ParseComplete, BindComplete, NoData, EmptyQueryResponse
		case 'N', 'S', 'K':
			// notices and parameter updates: ignore
		case 'Z':
			var err error
			switch {
			case binary && cols == nil && qerr != nil && (qerr.Code == "0A000" || qerr.Code == "08P01"),
				binary && badErr == errUndecodable:
				// the formats were refused before anything was described, or
				// granted for a type that cannot be decoded
				err = errStaleFormats
			case qerr != nil:
				err = qerr
			case badErr != nil:
				err = badErr
			case sinkErr != nil:
				err = sinkErr
			}
			if extended {
				c.remember(sql, cols, rows, err != nil)
			}
			if err != nil {
				return err
			}
			rr.Complete(tag)
			return nil
		default:
			return errf("unexpected message %q during query", typ)
		}
	}
}

// canceled reports whether done is closed, without blocking: a statement's
// cancellation checked at a batch boundary, where ctx.Err() would take the
// context's lock.
func canceled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// describe decodes a RowDescription and records each column's binary cell
// width, against which each DataRow's cells are checked.
func (c *ClientConn) describe(body []byte) ([]ColDesc, error) {
	cols, err := parseRowDescription(body)
	if err != nil {
		return nil, err
	}
	c.widths = c.widths[:0]
	for _, col := range cols {
		w := 0
		switch col.Format {
		case FormatText:
		case FormatBinary:
			var ok bool
			if w, ok = BinaryWidth(col.TypeOID); !ok {
				return cols, errUndecodable
			}
		default:
			return cols, errf("unknown format code %d for column %q", col.Format, col.Name)
		}
		c.widths = append(c.widths, w)
	}
	return cols, nil
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
	// a column takes at least 19 bytes (an empty name's NUL and 18 of
	// fields): size by the bytes that arrived, not by the claimed count
	cols := make([]ColDesc, 0, min(n, len(b)/19))
	for i := 0; i < n; i++ {
		name, rest, err := cutCString(b)
		if err != nil {
			return nil, err
		}
		if len(rest) < 18 {
			return nil, errf("short column descriptor")
		}
		oid := binary.BigEndian.Uint32(rest[6:10])
		format := int16(binary.BigEndian.Uint16(rest[16:18]))
		cols = append(cols, ColDesc{Name: name, TypeOID: oid, Format: format})
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
