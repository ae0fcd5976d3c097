package pgv3

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
)

// allocated reports the fewest bytes f allocated over a few runs: other
// goroutines of the test binary may allocate meanwhile, and the minimum
// filters them out.
func allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestLengthHeaderWithoutBody sends headers that claim the largest body each
// reader accepts and then hang up: the server must fail cleanly without
// allocating what the header claimed.
func TestLengthHeaderWithoutBody(t *testing.T) {
	for _, tc := range []struct {
		name  string
		hdr   []byte
		read  func(*ServerConn) error
		limit uint64
	}{
		{"startup", binary.BigEndian.AppendUint32(nil, 1<<20), (*ServerConn).Startup, 64 << 10},
		{"query", binary.BigEndian.AppendUint32([]byte{'Q'}, maxMessage), func(s *ServerConn) error {
			return s.Serve(&cannedHandler{sc: s})
		}, 1 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			n := allocated(func() {
				client, server := net.Pipe()
				go func() {
					client.Write(tc.hdr)
					client.Close()
				}()
				sc := NewServerConn(server)
				err = tc.read(sc)
				sc.Close()
			})
			if n > tc.limit {
				t.Errorf("allocated %d bytes for a header without a body", n)
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("err = %v, want unexpected EOF", err)
			}
		})
	}
}
