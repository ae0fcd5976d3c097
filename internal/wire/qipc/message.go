package qipc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"hyperq/internal/qlang/qval"
)

// Message header layout (8 bytes):
//
//	byte 0: architecture (1 = little endian)
//	byte 1: message type (0 async, 1 sync, 2 response)
//	byte 2: compressed flag (1 = kx-compressed payload)
//	byte 3: reserved
//	bytes 4-7: total message length including header (little endian)
const headerLen = 8

// CompressThreshold is the payload size above which WriteMessage compresses,
// matching kdb+'s behaviour of compressing large inter-process messages.
const CompressThreshold = 2000

// maxMessage bounds the length a message header may announce.
const maxMessage = 1 << 30

// Message is one decoded QIPC message.
type Message struct {
	Type  MsgType
	Value qval.Value
}

// msgBufPool recycles message frame buffers across WriteMessage calls.
// Buffers whose capacity exceeds maxPooledMsgBuf are dropped rather than
// pooled, so one huge result does not keep megabytes resident.
var msgBufPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledMsgBuf = 1 << 20

// WriteMessage frames and writes one message to a remote peer: payloads
// above CompressThreshold are compressed when that at least halves them.
func WriteMessage(w io.Writer, typ MsgType, v qval.Value) error {
	return writeMessage(w, typ, v, true)
}

// WriteLocalMessage frames and writes one message uncompressed, as kdb+
// does for a peer on the same host: compressing costs CPU on both ends to
// save bandwidth a loopback connection does not lack.
func WriteLocalMessage(w io.Writer, typ MsgType, v qval.Value) error {
	return writeMessage(w, typ, v, false)
}

// LocalPeer reports whether a connection's remote address is on this host
// — a loopback IP or a Unix socket — the peers kdb+ never compresses for.
func LocalPeer(addr net.Addr) bool {
	switch a := addr.(type) {
	case *net.TCPAddr:
		return a.IP.IsLoopback()
	case *net.UnixAddr:
		return true
	}
	return false
}

// writeMessage frames and writes one message. The frame buffer comes from a
// pool and is sized up front from the value's exact encoded length, so the
// value — typically a column-oriented result table — serializes straight
// into place with no growth reallocations and no header copy.
func writeMessage(w io.Writer, typ MsgType, v qval.Value, compress bool) error {
	bp := msgBufPool.Get().(*[]byte)
	defer func() {
		if cap(*bp) <= maxPooledMsgBuf {
			msgBufPool.Put(bp)
		}
	}()
	raw := (*bp)[:0]
	if n, ok := encodedSize(v); ok && cap(raw) < headerLen+n {
		raw = make([]byte, 0, headerLen+n)
	}
	raw = append(raw, 1, byte(typ), 0, 0, 0, 0, 0, 0)
	raw, err := appendValue(raw, v)
	if err != nil {
		return err
	}
	*bp = raw
	binary.LittleEndian.PutUint32(raw[4:8], uint32(len(raw)))
	if compress && len(raw) > CompressThreshold {
		if z, ok := Compress(raw); ok {
			_, err = w.Write(z)
			return err
		}
	}
	_, err = w.Write(raw)
	return err
}

// ReadMessage reads and decodes one message, decompressing when flagged.
func ReadMessage(r io.Reader) (*Message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != 1 {
		return nil, errf("big-endian peers are not supported")
	}
	total := binary.LittleEndian.Uint32(hdr[4:])
	if total < headerLen || total > maxMessage {
		return nil, errf("implausible message length %d", total)
	}
	buf, err := readFrame(r, hdr[:], int(total))
	if err != nil {
		return nil, err
	}
	if hdr[2] == 1 {
		var err error
		buf, err = Decompress(buf)
		if err != nil {
			return nil, err
		}
	}
	v, _, err := DecodeValue(buf[headerLen:])
	if err != nil {
		return nil, err
	}
	return &Message{Type: MsgType(hdr[1]), Value: v}, nil
}

// readFrame reads the rest of a total-byte frame whose header is hdr. The
// buffer grows only as bytes arrive, so a length header the peer does not
// back with data cannot make the reader allocate what it claims.
func readFrame(r io.Reader, hdr []byte, total int) ([]byte, error) {
	buf := append(make([]byte, 0, min(total, 64<<10)), hdr...)
	for len(buf) < total {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := io.ReadFull(r, buf[len(buf):min(cap(buf), total)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised a body
		}
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Handshake credentials exchanged at connection open (paper §4.2): the
// client sends "username:password" + capability byte + NUL; the server
// accepts with a single capability byte or closes the connection.

// ClientHandshake performs the client side of the QIPC handshake.
func ClientHandshake(rw io.ReadWriter, user, password string) error {
	cred := user
	if password != "" {
		cred += ":" + password
	}
	msg := append([]byte(cred), 3, 0) // capability 3, NUL terminator
	if _, err := rw.Write(msg); err != nil {
		return err
	}
	reply := make([]byte, 1)
	if _, err := io.ReadFull(rw, reply); err != nil {
		return fmt.Errorf("qipc: handshake rejected: %w", err)
	}
	return nil
}

// Credentials are the parsed client handshake.
type Credentials struct {
	User       string
	Password   string
	Capability byte
}

// ServerHandshake reads the client's credential string from br and, when
// auth approves, replies on w with the capability byte. On rejection the
// caller should close the connection without replying — exactly kdb+'s
// behaviour (paper §4.2). The reader is taken explicitly so the caller can
// keep using the same buffered reader for subsequent messages.
func ServerHandshake(br *bufio.Reader, w io.Writer, auth func(user, password string) bool) (*Credentials, error) {
	raw, err := br.ReadBytes(0)
	if err != nil {
		return nil, err
	}
	raw = raw[:len(raw)-1] // strip NUL
	cap := byte(0)
	if len(raw) > 0 {
		last := raw[len(raw)-1]
		if last <= 6 { // capability byte range
			cap = last
			raw = raw[:len(raw)-1]
		}
	}
	cred := string(raw)
	user, pass := cred, ""
	if i := strings.IndexByte(cred, ':'); i >= 0 {
		user, pass = cred[:i], cred[i+1:]
	}
	if auth != nil && !auth(user, pass) {
		return nil, errf("authentication failed for %q", user)
	}
	reply := cap
	if reply > 3 {
		reply = 3 // we speak protocol capability 3
	}
	if _, err := w.Write([]byte{reply}); err != nil {
		return nil, err
	}
	return &Credentials{User: user, Password: pass, Capability: cap}, nil
}
