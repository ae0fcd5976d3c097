package endpoint

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"

	"hyperq/internal/qlang/qval"
	"hyperq/internal/wire/qipc"
)

// remoteListener hands out connections that report a non-loopback peer, as
// a client on another host would have.
type remoteListener struct{ net.Listener }

type remoteConn struct{ net.Conn }

func (l remoteListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return remoteConn{c}, nil
}

func (remoteConn) RemoteAddr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(203, 0, 113, 7), Port: 5001}
}

// TestReplyCompressionFollowsPeer follows kdb+'s rule: a reply above
// CompressThreshold is compressed for a remote peer but sent raw to one on
// the same host.
func TestReplyCompressionFollowsPeer(t *testing.T) {
	big := make(qval.LongVec, 4*qipc.CompressThreshold/8) // zeros: compresses well
	for _, tc := range []struct {
		name       string
		remote     bool
		compressed bool
	}{{"loopback", false, false}, {"remote", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			var served net.Listener = l
			if tc.remote {
				served = remoteListener{l}
			}
			go Serve(context.Background(), served, Config{
				NewHandler: func(*qipc.Credentials) (Handler, func(), error) {
					return HandlerFunc(func(context.Context, string) (qval.Value, error) { return big, nil }), nil, nil
				},
			})
			conn := dialQ(t, l.Addr().String(), "app", "")
			if err := qipc.WriteMessage(conn, qipc.Sync, qval.CharVec("big")); err != nil {
				t.Fatal(err)
			}
			var hdr [8]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				t.Fatal(err)
			}
			frame := make([]byte, binary.LittleEndian.Uint32(hdr[4:]))
			copy(frame, hdr[:])
			if _, err := io.ReadFull(conn, frame[8:]); err != nil {
				t.Fatal(err)
			}
			if got := frame[2] == 1; got != tc.compressed {
				t.Fatalf("compressed = %v, want %v (frame %d bytes)", got, tc.compressed, len(frame))
			}
			raw := len(frame)
			if tc.compressed {
				raw = int(binary.LittleEndian.Uint32(frame[8:]))
			}
			if raw <= qipc.CompressThreshold {
				t.Fatalf("reply is %d bytes, not above the threshold", raw)
			}
		})
	}
}
