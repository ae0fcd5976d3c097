package qipc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// allocated reports the fewest bytes f allocated over two runs: other
// goroutines of the test binary may allocate meanwhile, and the minimum
// filters them out.
func allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 2; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestLengthHeaderWithoutBody: a header claiming the largest message the
// reader accepts, then end of stream, fails cleanly without allocating
// what the header claimed.
func TestLengthHeaderWithoutBody(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32([]byte{1, byte(Sync), 0, 0}, maxMessage)
	var err error
	if n := allocated(func() { _, err = ReadMessage(bytes.NewReader(hdr)) }); n > 1<<20 {
		t.Errorf("allocated %d bytes for a header without a body", n)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want unexpected EOF", err)
	}
}

// TestDecompressionBomb: a 12-byte compressed frame claiming a 1 GiB
// message is rejected before the output buffer is allocated, and so is any
// claim above the format's maximum expansion of the payload.
func TestDecompressionBomb(t *testing.T) {
	bomb := binary.LittleEndian.AppendUint32([]byte{1, byte(Response), 1, 0, 12, 0, 0, 0}, maxMessage)
	var err error
	if n := allocated(func() { _, err = ReadMessage(bytes.NewReader(bomb)) }); n > 1<<20 {
		t.Errorf("allocated %d bytes for a 12-byte bomb", n)
	}
	if err == nil {
		t.Fatal("12-byte bomb decoded")
	}

	raw := make([]byte, 100000) // a zero payload compresses to the limit
	raw[0], raw[1] = 1, byte(Response)
	binary.LittleEndian.PutUint32(raw[4:], uint32(len(raw)))
	z, ok := Compress(raw)
	if !ok {
		t.Fatal("zeros did not compress")
	}
	if _, err := Decompress(z); err != nil {
		t.Fatalf("genuine frame rejected: %v", err)
	}
	limit := uint32((len(z)-12+16)/17*8*257 + headerLen)
	for _, claim := range []uint32{limit, limit + 1} {
		forged := append([]byte(nil), z...)
		binary.LittleEndian.PutUint32(forged[8:], claim)
		_, err := Decompress(forged)
		if rejected := err != nil && bytes.Contains([]byte(err.Error()), []byte("exceeds")); rejected != (claim > limit) {
			t.Errorf("claim %d (limit %d): err = %v", claim, limit, err)
		}
	}
}

// TestNestedListClaims: a chain of nested general lists, each claiming as
// many elements as the rest of the message could hold, is refused without
// every list on the chain allocating that many slots, and a typed vector
// is sized only by a length the message backs with data.
func TestNestedListClaims(t *testing.T) {
	const depth = 1000
	var payload []byte
	for i := 0; i < depth; i++ {
		payload = binary.LittleEndian.AppendUint32(append(payload, 0, 0), uint32(6*(depth-i)/2))
	}
	msg := binary.LittleEndian.AppendUint32([]byte{1, byte(Sync), 0, 0}, uint32(headerLen+len(payload)))
	msg = append(msg, payload...)
	var err error
	if n := allocated(func() { _, err = ReadMessage(bytes.NewReader(msg)) }); n > 8<<20 {
		t.Errorf("allocated %d bytes for a %d-byte chain of list claims", n, len(msg))
	}
	if err == nil {
		t.Fatal("a chain of unbacked list claims decoded")
	}

	for _, typ := range []byte{5, 6, 7, 9, 11, 12, 14} {
		vec := binary.LittleEndian.AppendUint32([]byte{typ, 0}, 1000)
		if _, _, err := DecodeValue(append(vec, make([]byte, 999)...)); err == nil {
			t.Errorf("type %d: a 1000-element claim decoded from 999 bytes", typ)
		}
	}
}
