package pgv3

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
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
// connection's life.
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
	cell int // offset of the open DataRow cell's length field
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
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(s.r, lenBuf[:]); err != nil {
			return err
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n < 8 || n > 1<<20 {
			return errf("implausible startup length %d", n)
		}
		body, err := readBody(s.r, s.in, int(n-4))
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
// body is valid until the next read.
func (s *ServerConn) read() (byte, []byte, error) {
	typ, body, buf, err := readTyped(s.r, s.in)
	s.in = buf
	return typ, body, err
}

// ReadQuery reads the next Query ('Q') message, returning io.EOF after a
// Terminate ('X'). Other frontend messages are rejected with an error
// response.
func (s *ServerConn) ReadQuery() (string, error) {
	for {
		typ, body, err := s.read()
		if err != nil {
			return "", err
		}
		switch typ {
		case 'Q':
			sql, _, err := cutCString(body)
			return sql, err
		case 'X':
			return "", io.EOF
		case 'H', 'S': // Flush / Sync: acknowledge with ready
			if err := s.SendReadyForQuery(); err != nil {
				return "", err
			}
			if err := s.Flush(); err != nil {
				return "", err
			}
		default:
			s.SendError(&ServerError{Severity: "ERROR", Code: "0A000", Message: "unsupported frontend message"})
			if err := s.SendReadyForQuery(); err != nil {
				return "", err
			}
			if err := s.Flush(); err != nil {
				return "", err
			}
		}
	}
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
		s.out.int16(0)  // text format
	}
	return s.endMessage()
}

// BeginDataRow opens a DataRow ('D') of n cells; the paper contrasts this
// row-at-a-time streaming with QIPC's single column-oriented message
// (§4.2). The caller adds exactly n cells, each with NullCell or with
// BeginCell/EndCell, then closes the row with EndDataRow.
func (s *ServerConn) BeginDataRow(n int) {
	s.out.begin('D')
	s.out.int16(int16(n))
}

// NullCell adds a NULL cell to the open DataRow.
func (s *ServerConn) NullCell() { s.out.int32(-1) }

// BeginCell opens a text cell in the open DataRow and returns the output
// buffer: append the cell's text to it and hand the result to EndCell,
// which back-patches the cell's length. The text is rendered in place,
// never into a string or slice of its own.
func (s *ServerConn) BeginCell() []byte {
	s.cell = len(s.out.b)
	s.out.int32(0)
	return s.out.b
}

// EndCell closes the cell BeginCell opened; b is BeginCell's buffer with the
// cell's text appended.
func (s *ServerConn) EndCell(b []byte) {
	s.out.b = b
	binary.BigEndian.PutUint32(b[s.cell:], uint32(len(b)-s.cell-4))
}

// EndDataRow closes the open DataRow.
func (s *ServerConn) EndDataRow() error { return s.endMessage() }

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
