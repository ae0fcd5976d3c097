// Package pgv3 implements the PostgreSQL version-3 wire protocol (paper
// §3.1, §4.2): typed messages framed as one type byte plus a four-byte
// length, the startup/authentication flow (cleartext and MD5 password), the
// simple-query cycle (Query → RowDescription → DataRow* → CommandComplete →
// ReadyForQuery), and error responses. Both the client half (used by the
// Gateway to reach the backend) and the server half (used by cmd/pgserver to
// expose the embedded engine) are provided.
package pgv3

import (
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
)

// Protocol constants.
const (
	ProtocolVersion = 196608 // 3.0
	sslRequestCode  = 80877103
)

// Authentication subtypes carried in 'R' messages.
const (
	AuthOK        = 0
	AuthCleartext = 3
	AuthMD5       = 5
)

// Field is one result cell in text format; Null mirrors the wire's -1
// length marker.
type Field struct {
	Null bool
	Text string
}

// ColDesc describes one result column in a RowDescription.
type ColDesc struct {
	Name    string
	TypeOID uint32
	// Format is the column's cell encoding, FormatText or FormatBinary.
	Format int16
}

// Result format codes, as Bind requests them and RowDescription reports
// them.
const (
	FormatText   = 0
	FormatBinary = 1
)

// Error is a protocol-level error.
type Error struct {
	Msg string
}

func (e *Error) Error() string { return "pgv3: " + e.Msg }

func errf(format string, args ...any) *Error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}

// ServerError is an ErrorResponse received from (or to be sent by) a
// server, with the standard severity/code/message fields.
type ServerError struct {
	Severity string
	Code     string // SQLSTATE
	Message  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("%s %s: %s", e.Severity, e.Code, e.Message)
}

// AbortError reports a query aborted by its context: the context error
// (context.Canceled or context.DeadlineExceeded) is the cause, and the
// transport error is what the interrupted I/O surfaced. Both branches
// unwrap, so errors.Is(err, context.Canceled) sees the cause while net.Error
// classification still recognizes the connection as broken mid-protocol.
type AbortError struct {
	Ctx error
	IO  error
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("pgv3: query aborted: %v (transport: %v)", e.Ctx, e.IO)
}

// Unwrap exposes both the context cause and the transport error.
func (e *AbortError) Unwrap() []error { return []error{e.Ctx, e.IO} }

// ErrAbandoned is the transport error of an AbortError whose statement was
// canceled while its rows streamed in: the client stopped reading, so the
// rest of the reply is still on the connection, which cannot be reused.
var ErrAbandoned = errors.New("pgv3: reply abandoned mid-result")

// OID constants for the SQL types the engine produces.
const (
	OidBool    = 16
	OidInt8    = 20
	OidInt2    = 21
	OidInt4    = 23
	OidText    = 25
	OidFloat4  = 700
	OidFloat8  = 701
	OidVarchar = 1043
	OidDate    = 1082
	OidTime    = 1083
	OidTS      = 1114
	OidNumeric = 1700
)

// BinaryWidth reports the byte width of a binary cell of type oid, and
// whether the type is in the binary set: the types whose result cells this
// package's two halves exchange in binary format. They are the fixed-width
// types whose binary form carries exactly the value the engine holds:
// boolean; smallint, integer and bigint (an interval travels as bigint
// nanoseconds); double precision; date (int32 days since 2000-01-01, which
// is also the kdb+ epoch); and time (int64 microseconds since midnight). The
// others stay text: timestamp because the engine keeps nanoseconds and the
// binary form holds microseconds, real because narrowing the float64 the
// engine holds can round differently from parsing its shortest text at
// 32 bits, and numeric, the text types and unknown OIDs because their binary
// forms save nothing or are not decoded here.
func BinaryWidth(oid uint32) (int, bool) {
	switch oid {
	case OidBool:
		return 1, true
	case OidInt2:
		return 2, true
	case OidInt4, OidDate:
		return 4, true
	case OidInt8, OidFloat8, OidTime:
		return 8, true
	}
	return 0, false
}

// OIDForType maps a normalized SQL type name to its wire OID.
func OIDForType(t string) uint32 {
	switch t {
	case "boolean", "bool":
		return OidBool
	case "smallint", "int2":
		return OidInt2
	case "integer", "int", "int4":
		return OidInt4
	case "bigint", "int8", "interval":
		return OidInt8
	case "real", "float4":
		return OidFloat4
	case "double precision", "float8":
		return OidFloat8
	case "numeric", "decimal":
		return OidNumeric
	case "date":
		return OidDate
	case "time":
		return OidTime
	case "timestamp", "timestamptz":
		return OidTS
	case "text":
		return OidText
	default:
		return OidVarchar
	}
}

// TypeForOID is the inverse of OIDForType.
func TypeForOID(oid uint32) string {
	switch oid {
	case OidBool:
		return "boolean"
	case OidInt2:
		return "smallint"
	case OidInt4:
		return "integer"
	case OidInt8:
		return "bigint"
	case OidFloat4:
		return "real"
	case OidFloat8:
		return "double precision"
	case OidNumeric:
		return "numeric"
	case OidDate:
		return "date"
	case OidTime:
		return "time"
	case OidTS:
		return "timestamp"
	case OidText:
		return "text"
	default:
		return "varchar"
	}
}

// frame builds outgoing messages in place in one reusable buffer: begin
// writes the type byte and a length placeholder, end back-patches the
// length, so a message is never assembled apart and copied to be framed.
// Several messages may queue in b before the owner writes it out.
type frame struct {
	b     []byte
	start int // offset of the open message's length field
}

// begin opens a typed message.
func (f *frame) begin(typ byte) {
	f.b = append(f.b, typ)
	f.beginUntyped()
}

// beginUntyped opens a message without a type byte (the startup message).
func (f *frame) beginUntyped() {
	f.start = len(f.b)
	f.b = append(f.b, 0, 0, 0, 0)
}

// end closes the open message; its length counts itself but not the type.
func (f *frame) end() {
	binary.BigEndian.PutUint32(f.b[f.start:], uint32(len(f.b)-f.start))
}

func (f *frame) byte1(v byte)  { f.b = append(f.b, v) }
func (f *frame) int16(v int16) { f.b = binary.BigEndian.AppendUint16(f.b, uint16(v)) }
func (f *frame) int32(v int32) { f.b = binary.BigEndian.AppendUint32(f.b, uint32(v)) }
func (f *frame) cstr(s string) { f.b = append(append(f.b, s...), 0) }

// maxMessage bounds the length a message header may announce.
const maxMessage = 1 << 30

// readTyped reads one typed message into buf, returning the type byte, the
// body (valid until buf is next reused) and buf for reuse.
func readTyped(r io.Reader, buf []byte) (byte, []byte, []byte, error) {
	// the header goes through buf too: a local array would escape to the
	// heap through the io.Reader call, one allocation per message
	if cap(buf) < 5 {
		buf = make([]byte, 5, 512)
	}
	hdr := buf[:5]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, buf, err
	}
	typ, n := hdr[0], binary.BigEndian.Uint32(hdr[1:])
	if n < 4 || n > maxMessage {
		return 0, nil, buf, errf("implausible message length %d", n)
	}
	body, err := readBody(r, buf, int(n-4))
	return typ, body, body, err
}

// readBody reads an n-byte message body into buf's storage. The buffer grows
// only as bytes arrive, so a length header the peer does not back with data
// cannot make the reader allocate what it claims.
func readBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		got, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+got]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised a body
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// md5Password computes the PostgreSQL MD5 password response:
// "md5" + md5hex(md5hex(password + user) + salt).
func md5Password(user, password string, salt [4]byte) string {
	inner := md5.Sum([]byte(password + user))
	innerHex := hex.EncodeToString(inner[:])
	outer := md5.Sum(append([]byte(innerHex), salt[:]...))
	return "md5" + hex.EncodeToString(outer[:])
}

// cutCString splits the leading NUL-terminated string off b.
func cutCString(b []byte) (string, []byte, error) {
	for i, c := range b {
		if c == 0 {
			return string(b[:i]), b[i+1:], nil
		}
	}
	return "", nil, errf("unterminated string")
}

// MD5Response computes the expected MD5 password response for a stored
// plaintext credential — exported so servers can verify clients.
func MD5Response(user, password string, salt [4]byte) string {
	return md5Password(user, password, salt)
}
