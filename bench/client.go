package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"hyperq/internal/qlang/qval"
	"hyperq/internal/wire/qipc"
)

// qclient is one q application: a QIPC connection kept open for the whole
// run. Closing a session promotes its variables to the server scope and
// bumps the generation every cached translation is keyed on, so a client
// that reconnected would measure a cold cache.
type qclient struct {
	conn  net.Conn
	br    *bufio.Reader
	frame []byte // the last reply as it crossed the wire, reused between calls
}

func dialQ(addr, user string) (*qclient, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if err := qipc.ClientHandshake(conn, user, ""); err != nil {
		conn.Close()
		return nil, err
	}
	return &qclient{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *qclient) close() { c.conn.Close() }

// roundTrip sends q synchronously and reads the reply frame without decoding
// it: decoding a 100 k-row table in the client would compete with the two
// servers for the machine's two cores. The returned slice is valid until the
// next call.
func (c *qclient) roundTrip(q string) ([]byte, error) {
	if err := qipc.WriteMessage(c.conn, qipc.Sync, qval.CharVec(q)); err != nil {
		return nil, err
	}
	var hdr [8]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, err
	}
	total := binary.LittleEndian.Uint32(hdr[4:])
	if total < 8 || total > 1<<30 {
		return nil, fmt.Errorf("implausible reply length %d", total)
	}
	if cap(c.frame) < int(total) {
		c.frame = make([]byte, total)
	}
	c.frame = c.frame[:total]
	copy(c.frame, hdr[:])
	if _, err := io.ReadFull(c.br, c.frame[8:]); err != nil {
		return nil, err
	}
	return c.frame, nil
}

// messageLen is the length of the message a frame carries: the frame's own
// length, or for a compressed frame the uncompressed length its header
// states. Compressed sizes depend on the content, so "more rows" does not
// mean "more bytes on the wire".
func messageLen(frame []byte) int {
	if len(frame) >= 12 && frame[2] == 1 {
		return int(binary.LittleEndian.Uint32(frame[8:]))
	}
	return len(frame)
}

// checkFrame is the timed window's whole verification: the frame is a
// response, not a q error, and carries a message as long as the verified
// reply's (wantLen < 0 skips the length). A q error is an uncompressed frame
// whose value starts with type byte -128.
func checkFrame(frame []byte, wantLen int) error {
	if len(frame) < 9 {
		return fmt.Errorf("short frame (%d bytes)", len(frame))
	}
	if qipc.MsgType(frame[1]) != qipc.Response {
		return fmt.Errorf("message type %d, want response", frame[1])
	}
	if frame[2] == 0 && frame[8] == 0x80 {
		end := bytes.IndexByte(frame[9:], 0)
		if end < 0 {
			end = len(frame) - 9
		}
		return fmt.Errorf("q error '%s", frame[9:9+end])
	}
	if wantLen >= 0 && messageLen(frame) != wantLen {
		return fmt.Errorf("reply is %d bytes, the verified reply was %d", messageLen(frame), wantLen)
	}
	return nil
}

// decodeFrame decodes a reply frame in full, decompressing it if flagged.
func decodeFrame(frame []byte) (qval.Value, error) {
	msg, err := qipc.ReadMessage(bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	return msg.Value, nil
}
