package pgv3

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// AuthMethod selects the server's authentication mechanism (paper §4.2: an
// authentication server supports clear text password, MD5 and Kerberos; we
// implement the first two).
type AuthMethod int

// Authentication methods.
const (
	AuthMethodTrust AuthMethod = iota
	AuthMethodCleartext
	AuthMethodMD5
)

// Output buffering: queued messages go to the socket once they pass
// flushAt bytes (or on Flush), and a buffer grown past maxRetained by one
// huge message is dropped after the write rather than pinned for the
// connection's life. ClientConn sizes its read buffer to flushAt too.
const (
	flushAt     = 64 << 10
	maxRetained = 1 << 20
)

// ServerConn is the server side of one PG v3 connection. Every outgoing
// message is framed in place in one per-connection buffer, and every
// incoming one is read into another, so a steady stream of results
// allocates nothing per message.
type ServerConn struct {
	conn net.Conn
	r    *bufio.Reader
	out  frame
	in   []byte
	// Params are the startup parameters the client sent (user, database).
	Params map[string]string
}

// NewServerConn wraps an accepted connection.
func NewServerConn(conn net.Conn) *ServerConn {
	return &ServerConn{conn: conn, r: bufio.NewReader(conn)}
}

// Startup reads the startup message (transparently refusing SSL requests)
// and stores the client parameters.
func (s *ServerConn) Startup() error {
	defer s.trimIn()
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(s.r, lenBuf[:]); err != nil {
			return err
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n < 8 || n > 1<<20 {
			return errf("implausible startup length %d", n)
		}
		body, err := appendBody(s.r, s.in[:0], int(n-4))
		s.in = body
		if err != nil {
			return err
		}
		code := binary.BigEndian.Uint32(body)
		if code == sslRequestCode {
			// refuse SSL, client retries in plaintext
			if _, err := s.conn.Write([]byte{'N'}); err != nil {
				return err
			}
			continue
		}
		if code != ProtocolVersion {
			return errf("unsupported protocol %d", code)
		}
		s.Params = map[string]string{}
		rest := body[4:]
		for len(rest) > 1 {
			var k, v string
			var err error
			k, rest, err = cutCString(rest)
			if err != nil {
				return err
			}
			if k == "" {
				break
			}
			v, rest, err = cutCString(rest)
			if err != nil {
				return err
			}
			s.Params[k] = v
		}
		return nil
	}
}

// Authenticate runs the configured password exchange. verify receives the
// user name and, for cleartext, the password; for MD5 it receives the md5
// response and the salt so the caller can check against its stored
// credential.
func (s *ServerConn) Authenticate(method AuthMethod, verify func(user, response string, salt [4]byte) bool) error {
	user := s.Params["user"]
	var salt [4]byte
	switch method {
	case AuthMethodTrust:
		// fall through to AuthOK
	case AuthMethodCleartext, AuthMethodMD5:
		s.out.begin('R')
		if method == AuthMethodCleartext {
			s.out.int32(AuthCleartext)
		} else {
			if _, err := rand.Read(salt[:]); err != nil {
				return err
			}
			s.out.int32(AuthMD5)
			s.out.b = append(s.out.b, salt[:]...)
		}
		s.out.end()
		if err := s.Flush(); err != nil {
			return err
		}
		resp, err := s.readPassword()
		if err != nil {
			return err
		}
		if verify == nil || !verify(user, resp, salt) {
			s.SendError(&ServerError{Severity: "FATAL", Code: "28P01", Message: "password authentication failed for user \"" + user + "\""})
			s.Flush()
			return errf("authentication failed for %q", user)
		}
	}
	s.out.begin('R')
	s.out.int32(AuthOK)
	s.out.end()
	// minimal parameter status + ready
	s.out.begin('S')
	s.out.cstr("server_version")
	s.out.cstr("9.2-hyperq")
	s.out.end()
	if err := s.SendReadyForQuery(); err != nil {
		return err
	}
	return s.Flush()
}

func (s *ServerConn) readPassword() (string, error) {
	typ, body, err := s.read()
	if err != nil {
		return "", err
	}
	if typ != 'p' {
		return "", errf("expected PasswordMessage, got %q", typ)
	}
	pw, _, err := cutCString(body)
	return pw, err
}

// read reads the next typed message into the connection's input buffer; the
// body is valid until the next read or trimIn.
func (s *ServerConn) read() (byte, []byte, error) {
	typ, body, buf, err := readTyped(s.r, s.in)
	s.in = buf
	return typ, body, err
}

// trimIn drops an input buffer grown past maxRetained once its message is
// answered, as Flush does with the output buffer: the largest message a
// connection ever sent must not stay pinned for the connection's life.
func (s *ServerConn) trimIn() {
	if cap(s.in) > maxRetained {
		s.in = nil
	}
}

// Handler executes the statements a ServerConn's Serve loop receives. A
// *ServerError a method returns (itself, not wrapped) is reported to the
// client as an ErrorResponse; any other error is an I/O failure and ends the
// connection.
type Handler interface {
	// Query runs a simple-query string (one or more statements) and
	// returns each statement's result in order, up to the first failure,
	// and that failure. Serve writes the results in text, then the
	// ErrorResponse for a returned *ServerError, then ReadyForQuery.
	Query(sql string) ([]Result, error)
	// Parse prepares sql as the unnamed statement. sql holds at most one
	// statement; an empty one is the empty query.
	Parse(sql string) (Statement, error)
}

// Statement is a prepared unnamed statement. Serve runs it once per Bind:
// at Describe, to learn the columns, or else at Execute.
type Statement interface {
	// Run executes the statement. The empty query returns a nil Result.
	Run() (Result, error)
}

// Result is one executed statement, held by the unnamed portal from
// Describe until Execute writes it.
type Result interface {
	// Columns describes the result rows; nil for a statement that returns
	// none.
	Columns() []ColDesc
	// WriteRows writes every row as a DataRow, cell j in cols[j].Format.
	WriteRows(cols []ColDesc) error
	// Tag is the CommandComplete tag.
	Tag() string
}

// portal is the unnamed statement and the unnamed portal bound to it: the
// only ones the extended cycle supports.
type portal struct {
	stmt    Statement // the unnamed statement; nil when none is prepared
	bound   bool      // Bind created the portal and Sync has not closed it
	formats []int16   // Bind's result format codes
	ran     bool      // the statement ran for this portal (at Describe or Execute)
	res     Result    // the run's result until Execute writes it
	cols    []ColDesc // res's columns with the resolved formats
	done    bool      // Execute completed the portal
}

// Serve reads frontend messages and answers them until Terminate (nil) or an
// I/O error. It answers the simple Query cycle and the extended cycle over
// the unnamed statement and portal; named statements and portals,
// parameters, Execute row limits and Describe of a statement are refused
// with SQLSTATE 0A000. After an error in the extended cycle, messages up to
// the next Sync are skipped; only Sync answers ReadyForQuery, and Flush just
// writes out what is queued.
func (s *ServerConn) Serve(h Handler) error {
	var p portal
	skip := false
	for {
		typ, body, err := s.read()
		if err != nil {
			return err
		}
		switch {
		case typ == 'X':
			return nil
		case skip && typ != 'S':
			s.trimIn()
			continue
		}
		err = s.dispatch(h, &p, typ, body)
		s.trimIn()
		se, _ := err.(*ServerError) // unwrapped, per Handler's contract
		if err != nil && se == nil {
			return err
		}
		if se != nil {
			if err := s.SendError(se); err != nil {
				return err
			}
		}
		if extendedMessage(typ) {
			skip = se != nil
			continue
		}
		// the simple cycle ends in ReadyForQuery, error or not, and so does
		// the refusal of a message neither cycle has
		if err := s.SendReadyForQuery(); err != nil {
			return err
		}
		if err := s.Flush(); err != nil {
			return err
		}
	}
}

// extendedMessage reports whether typ belongs to the extended cycle.
func extendedMessage(typ byte) bool {
	switch typ {
	case 'P', 'B', 'D', 'E', 'C', 'S', 'H':
		return true
	}
	return false
}

// dispatch answers one frontend message; a *ServerError is the message's
// failure, to report, and any other error an I/O failure.
func (s *ServerConn) dispatch(h Handler, p *portal, typ byte, body []byte) error {
	m := msgReader{b: body}
	switch typ {
	case 'Q':
		sql := m.cstr()
		if m.bad {
			return malformed("Query")
		}
		// a simple Query drops the unnamed statement and portal
		p.stmt = nil
		p.close()
		results, err := h.Query(sql)
		for _, res := range results {
			cols := res.Columns()
			if cols != nil {
				if err := s.SendRowDescription(cols); err != nil {
					return err
				}
			}
			if err := s.writeResult(res, cols); err != nil {
				return err
			}
		}
		return err
	case 'P':
		name, sql, nparams := m.cstr(), m.cstr(), m.int16()
		switch {
		case m.bad:
			return malformed("Parse")
		case name != "":
			return unsupported("named prepared statements are not supported")
		case nparams != 0:
			return unsupported("statement parameters are not supported")
		}
		p.stmt = nil
		p.close()
		stmt, err := h.Parse(sql)
		if err != nil {
			return err
		}
		p.stmt = stmt
		return s.sendEmpty('1') // ParseComplete
	case 'B':
		return s.bind(p, &m)
	case 'D':
		kind, name := m.byte1(), m.cstr()
		switch {
		case m.bad || (kind != 'S' && kind != 'P'):
			return malformed("Describe")
		case kind == 'S':
			return unsupported("describing a prepared statement is not supported")
		case name != "":
			return unsupported("named portals are not supported")
		case !p.bound:
			return noPortal()
		}
		if err := s.run(p); err != nil {
			return err
		}
		if p.cols == nil {
			return s.sendEmpty('n') // NoData
		}
		return s.SendRowDescription(p.cols)
	case 'E':
		name, limit := m.cstr(), m.int32()
		switch {
		case m.bad:
			return malformed("Execute")
		case name != "":
			return unsupported("named portals are not supported")
		case limit != 0:
			return unsupported("Execute row limits are not supported")
		case !p.bound:
			return noPortal()
		case p.done:
			return unsupported("re-executing a completed portal is not supported")
		}
		if err := s.run(p); err != nil {
			return err
		}
		res := p.res
		p.res, p.done = nil, true
		if res == nil {
			return s.sendEmpty('I') // EmptyQueryResponse
		}
		return s.writeResult(res, p.cols)
	case 'C':
		kind, name := m.byte1(), m.cstr()
		if m.bad || (kind != 'S' && kind != 'P') {
			return malformed("Close")
		}
		// closing a name that does not exist is not an error
		if name == "" {
			if kind == 'S' {
				p.stmt = nil // a statement's portals close with it
			}
			p.close()
		}
		return s.sendEmpty('3') // CloseComplete
	case 'S':
		// Sync ends the implicit transaction, which closes the portal
		p.close()
		if err := s.SendReadyForQuery(); err != nil {
			return err
		}
		return s.Flush()
	case 'H':
		return s.Flush()
	default:
		return unsupported("unsupported frontend message")
	}
}

// writeResult writes a result's rows, cell j in cols[j].Format, and its
// CommandComplete; cols is nil for a statement that returns no rows.
func (s *ServerConn) writeResult(res Result, cols []ColDesc) error {
	if cols != nil {
		if err := res.WriteRows(cols); err != nil {
			return err
		}
	}
	return s.SendCommandComplete(res.Tag())
}

// close drops the unnamed portal, keeping the statement and the format
// codes' storage.
func (p *portal) close() { *p = portal{stmt: p.stmt, formats: p.formats[:0]} }

// bind answers Bind: it opens the unnamed portal over the unnamed statement
// with the requested result formats, which Describe or Execute checks once
// the columns are known.
func (s *ServerConn) bind(p *portal, m *msgReader) error {
	portalName, stmtName := m.cstr(), m.cstr()
	for n := m.int16(); n > 0 && !m.bad; n-- {
		m.int16() // parameter format codes: meaningful only with parameters
	}
	nparams := m.int16()
	formats := p.formats[:0]
	for n := m.int16(); n > 0 && !m.bad; n-- {
		formats = append(formats, m.int16())
	}
	switch {
	case m.bad || nparams < 0:
		return malformed("Bind")
	case portalName != "" || stmtName != "":
		return unsupported("named prepared statements and portals are not supported")
	case nparams != 0:
		return unsupported("statement parameters are not supported")
	case p.stmt == nil:
		return &ServerError{Severity: "ERROR", Code: "26000", Message: "unnamed prepared statement does not exist"}
	}
	*p = portal{stmt: p.stmt, bound: true, formats: formats}
	return s.sendEmpty('2') // BindComplete
}

// run executes the portal's statement once, keeping the result for Execute
// and its columns with Bind's formats resolved.
func (s *ServerConn) run(p *portal) error {
	if p.ran {
		return nil
	}
	p.ran = true
	res, err := p.stmt.Run()
	if err != nil || res == nil {
		return err
	}
	cols := res.Columns()
	if err := resolveFormats(p.formats, cols); err != nil {
		return err
	}
	p.res, p.cols = res, cols
	return nil
}

// resolveFormats applies Bind's result format codes to cols: none means
// every column is text, one applies to every column, otherwise there is one
// per column. Binary is only for the binary set (BinaryWidth).
func resolveFormats(codes []int16, cols []ColDesc) error {
	if len(codes) > 1 && len(codes) != len(cols) {
		return &ServerError{Severity: "ERROR", Code: "08P01",
			Message: fmt.Sprintf("bind message has %d result formats but query has %d columns", len(codes), len(cols))}
	}
	for j := range cols {
		var code int16
		switch len(codes) {
		case 0:
		case 1:
			code = codes[0]
		default:
			code = codes[j]
		}
		switch code {
		case FormatText:
		case FormatBinary:
			if _, ok := BinaryWidth(cols[j].TypeOID); !ok {
				return unsupported(fmt.Sprintf("binary format for type %s is not supported", TypeForOID(cols[j].TypeOID)))
			}
		default:
			return &ServerError{Severity: "ERROR", Code: "22023", Message: fmt.Sprintf("unsupported format code: %d", code)}
		}
		cols[j].Format = code
	}
	return nil
}

func unsupported(msg string) *ServerError {
	return &ServerError{Severity: "ERROR", Code: "0A000", Message: msg}
}

func malformed(msg string) *ServerError {
	return &ServerError{Severity: "ERROR", Code: "08P01", Message: "malformed " + msg + " message"}
}

func noPortal() *ServerError {
	return &ServerError{Severity: "ERROR", Code: "34000", Message: "portal \"\" does not exist"}
}

// msgReader decodes a frontend message body. A read past the end sets bad
// and yields zero values, so a decoder checks once after its reads.
type msgReader struct {
	b   []byte
	bad bool
}

func (m *msgReader) take(n int) []byte {
	if m.bad || len(m.b) < n {
		m.bad = true
		return nil
	}
	v := m.b[:n]
	m.b = m.b[n:]
	return v
}

func (m *msgReader) byte1() byte {
	if v := m.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (m *msgReader) int16() int16 {
	if v := m.take(2); v != nil {
		return int16(binary.BigEndian.Uint16(v))
	}
	return 0
}

func (m *msgReader) int32() int32 {
	if v := m.take(4); v != nil {
		return int32(binary.BigEndian.Uint32(v))
	}
	return 0
}

func (m *msgReader) cstr() string {
	if m.bad {
		return ""
	}
	v, rest, err := cutCString(m.b)
	if err != nil {
		m.bad = true
		return ""
	}
	m.b = rest
	return v
}

// sendEmpty queues a message with no body.
func (s *ServerConn) sendEmpty(typ byte) error {
	s.out.begin(typ)
	return s.endMessage()
}

// endMessage closes the open message and writes the queue out once it
// passes flushAt.
func (s *ServerConn) endMessage() error {
	s.out.end()
	if len(s.out.b) < flushAt {
		return nil
	}
	return s.Flush()
}

// SendRowDescription announces the result schema ('T').
func (s *ServerConn) SendRowDescription(cols []ColDesc) error {
	s.out.begin('T')
	s.out.int16(int16(len(cols)))
	for _, c := range cols {
		s.out.cstr(c.Name)
		s.out.int32(0) // table OID
		s.out.int16(0) // attribute number
		s.out.int32(int32(c.TypeOID))
		s.out.int16(-1) // type size (variable)
		s.out.int32(-1) // type modifier
		s.out.int16(c.Format)
	}
	return s.endMessage()
}

// BeginDataRow opens a DataRow ('D') of n cells and returns the output
// buffer; the paper contrasts this row-at-a-time streaming with QIPC's
// single column-oriented message (§4.2). The caller appends exactly n cells
// to the buffer in their wire form — NullCell, AppendCell, or OpenCell and
// CloseCell around bytes rendered in place — and hands the result to
// EndDataRow, or drops the row with AbortDataRow. No cell is assembled
// apart and copied.
func (s *ServerConn) BeginDataRow(n int) []byte {
	s.out.begin('D')
	s.out.int16(int16(n))
	return s.out.b
}

// EndDataRow closes the open DataRow; b is BeginDataRow's buffer with the
// row's cells appended.
func (s *ServerConn) EndDataRow(b []byte) error {
	s.out.b = b
	return s.endMessage()
}

// AbortDataRow drops the open DataRow, for a row whose cell failed to
// encode: nothing of it reaches the client.
func (s *ServerConn) AbortDataRow() { s.out.b = s.out.b[:s.out.start-1] }

// NullCell appends a NULL cell to a DataRow's buffer.
func NullCell(b []byte) []byte { return append(b, 0xff, 0xff, 0xff, 0xff) }

// AppendCell appends a cell of known bytes to a DataRow's buffer: its
// length, then the bytes.
func AppendCell(b []byte, cell string) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(cell))), cell...)
}

// OpenCell appends the length field of a cell whose bytes the caller
// appends next, and returns its offset for CloseCell.
func OpenCell(b []byte) ([]byte, int) { return append(b, 0, 0, 0, 0), len(b) }

// CloseCell fills in the length of the cell OpenCell opened at off: every
// byte of b past the field.
func CloseCell(b []byte, off int) {
	binary.BigEndian.PutUint32(b[off:], uint32(len(b)-off-4))
}

// SendCommandComplete ends a statement's results ('C').
func (s *ServerConn) SendCommandComplete(tag string) error {
	s.out.begin('C')
	s.out.cstr(tag)
	return s.endMessage()
}

// SendError reports an error ('E').
func (s *ServerConn) SendError(e *ServerError) error {
	s.out.begin('E')
	s.out.byte1('S')
	s.out.cstr(e.Severity)
	s.out.byte1('C')
	s.out.cstr(e.Code)
	s.out.byte1('M')
	s.out.cstr(e.Message)
	s.out.byte1(0)
	return s.endMessage()
}

// SendReadyForQuery tells the client the server is idle ('Z').
func (s *ServerConn) SendReadyForQuery() error {
	s.out.begin('Z')
	s.out.byte1('I')
	return s.endMessage()
}

// Flush writes every queued message to the socket.
func (s *ServerConn) Flush() error {
	_, err := s.conn.Write(s.out.b)
	s.out.b = s.out.b[:0]
	if cap(s.out.b) > maxRetained {
		s.out.b = nil
	}
	return err
}

// Close closes the connection.
func (s *ServerConn) Close() error { return s.conn.Close() }
