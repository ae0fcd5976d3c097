package qipc

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hyperq/internal/qlang/qval"
)

// frame encodes v as one uncompressed message of type typ.
func frame(typ MsgType, v qval.Value) []byte {
	var buf bytes.Buffer
	if err := WriteLocalMessage(&buf, typ, v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzQIPCMessage feeds arbitrary bytes to ReadMessage, as a peer would
// send them: it must fail, or decode a value that encodes and decodes back
// to itself (the same type, encoding to the same bytes). The same bytes go
// to Decompress as a compressed frame. Neither may panic, nor allocate more
// than the bytes given can expand to: a length field the input does not
// back with data must not size a buffer.
func FuzzQIPCMessage(f *testing.F) {
	table := qval.NewTable([]string{"sym", "px", "t"}, []qval.Value{
		qval.SymbolVec{"GOOG", "IBM", ""},
		qval.FloatVec{1.5, -2, 0},
		qval.TemporalVec{T: qval.KTime, V: []int64{0, 1000, qval.NullLong}},
	})
	f.Add(frame(Sync, qval.CharVec("select from trades")))
	f.Add(frame(Response, table))
	f.Add(frame(Async, qval.List{qval.Symbol("f"), qval.Long(7), &qval.Dict{Keys: qval.SymbolVec{"a"}, Vals: qval.List{qval.Int(1)}}}))
	f.Add(frame(Response, &qval.QError{Msg: "type"}))
	f.Add(frame(Sync, &qval.Lambda{Source: "{x+1}"}))
	long := make(qval.LongVec, 600)
	for i := range long {
		long[i] = int64(i % 7)
	}
	if z, ok := Compress(frame(Response, long)); ok {
		f.Add(z)
	}
	// a header whose length the body does not back
	f.Add(binary.LittleEndian.AppendUint32([]byte{1, byte(Sync), 0, 0}, maxMessage))
	f.Fuzz(func(t *testing.T, in []byte) {
		// the compressed format expands 17 bytes to at most 8×257
		expanded := uint64(len(in))/17*8*257 + 8*257 + 4096
		if n := allocated(func() { Decompress(in) }); n > expanded {
			t.Fatalf("Decompress of %d bytes allocated %d", len(in), n)
		}
		// A value decodes into at most a few dozen bytes per byte of its
		// frame (a symbol vector of empty names takes 16 per byte, a list
		// of atoms 16 per slot, doubled as the list grows), and reading the
		// frame buffers up to 64 KiB before the body arrives.
		body := uint64(len(in))
		if len(in) > 2 && in[2] == 1 {
			body = expanded
		}
		var msg *Message
		var err error
		if n := allocated(func() { msg, err = ReadMessage(bytes.NewReader(in)) }); n > 64*body+128<<10 {
			t.Fatalf("ReadMessage of %d bytes allocated %d", len(in), n)
		}
		if err != nil {
			return
		}
		b, err := EncodeValue(msg.Value)
		if err != nil {
			t.Fatalf("decoded %v does not encode: %v", msg.Value, err)
		}
		back, n, err := DecodeValue(b)
		if err != nil || n != len(b) {
			t.Fatalf("re-encoded %v does not decode: consumed %d of %d, %v", msg.Value, n, len(b), err)
		}
		// equal as the codec sees values: same type, same bytes (q's own
		// equality has no rule for errors or lambdas, nor NaN for NaN)
		if again, _ := EncodeValue(back); back.Type() != msg.Value.Type() || !bytes.Equal(again, b) {
			t.Fatalf("round trip changed %v to %v", msg.Value, back)
		}
	})
}
