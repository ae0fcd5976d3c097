package qipc

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"hyperq/internal/colbuf"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/wire/pgv3"
)

// TestEncodedSizeExact checks encodedSize against the actual encoder for
// every value shape WriteMessage presizes for.
func TestEncodedSizeExact(t *testing.T) {
	vals := []qval.Value{
		qval.Bool(true), qval.Byte(0xab), qval.Short(-3), qval.Int(42),
		qval.Long(1 << 40), qval.Real(1.5), qval.Float(3.14), qval.Char('q'),
		qval.Symbol("GOOG"), qval.Symbol(""),
		qval.MkDate(2016, 6, 26), qval.MkTime(9, 30, 0, 123),
		qval.MkTimestamp(2016, 6, 26, 9, 30, 0, 999),
		qval.MkMinute(14, 30), qval.MkSecond(1, 2, 3), qval.MkMonth(2016, 6),
		qval.Temporal{T: qval.KTimespan, V: 1}, qval.Datetime(123.5),
		qval.Identity,
		qval.BoolVec{true, false}, qval.ByteVec{1, 2, 3},
		qval.ShortVec{1, qval.NullShort}, qval.IntVec{1, -2},
		qval.LongVec{1, 2, qval.NullLong}, qval.RealVec{1.5},
		qval.FloatVec{1.5, math.NaN()}, qval.CharVec("hello"),
		qval.SymbolVec{"GOOG", "", "IBM"},
		qval.TemporalVec{T: qval.KTime, V: []int64{34200000, qval.NullLong}},
		qval.TemporalVec{T: qval.KTimestamp, V: []int64{1, 2, 3}},
		qval.DatetimeVec{1.5, 2.5},
		qval.List{qval.Long(1), qval.Symbol("x"), qval.CharVec("s")},
		qval.LongVec{}, qval.SymbolVec{}, qval.List{},
		qval.NewTable([]string{"s", "p"},
			[]qval.Value{qval.SymbolVec{"A", "B"}, qval.FloatVec{1, 2}}),
		qval.NewDict(qval.SymbolVec{"a", "b"}, qval.LongVec{1, 2}),
		&qval.Lambda{Source: "{[x] x+1}"},
		&qval.QError{Msg: "type"},
	}
	for _, v := range vals {
		want, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("encode %v: %v", v, err)
		}
		got, ok := encodedSize(v)
		if !ok || got != len(want) {
			t.Errorf("encodedSize(%v) = %d, %v; want %d", v, got, ok, len(want))
		}
	}
}

// byteVecForTotal returns a highly compressible ByteVec whose framed message
// is exactly total bytes: header(8) + vec header(6) + n payload bytes.
func byteVecForTotal(total int) qval.ByteVec {
	return make(qval.ByteVec, total-headerLen-vecHeaderLen)
}

// TestCompressionThresholdBoundary pins the compression trigger: a framed
// message of exactly CompressThreshold bytes goes out raw, one byte more
// compresses (the payload here is all zeros, so compression always wins).
func TestCompressionThresholdBoundary(t *testing.T) {
	for _, tc := range []struct {
		total      int
		compressed bool
	}{
		{CompressThreshold - 1, false},
		{CompressThreshold, false},
		{CompressThreshold + 1, true},
		{4 * CompressThreshold, true},
	} {
		v := byteVecForTotal(tc.total)
		var buf bytes.Buffer
		if err := WriteMessage(&buf, Response, v); err != nil {
			t.Fatal(err)
		}
		wire := buf.Bytes()
		if got := wire[2] == 1; got != tc.compressed {
			t.Errorf("total %d: compressed = %v, want %v", tc.total, got, tc.compressed)
		}
		if !tc.compressed && len(wire) != tc.total {
			t.Errorf("total %d: raw frame is %d bytes", tc.total, len(wire))
		}
		if tc.compressed && len(wire) >= tc.total {
			t.Errorf("total %d: compression grew to %d", tc.total, len(wire))
		}
		msg, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("total %d: read back: %v", tc.total, err)
		}
		if !qval.EqualValues(msg.Value, v) {
			t.Errorf("total %d: round trip mismatch", tc.total)
		}
	}
}

// TestBuilderColumnsCompressRoundTrip drives the full result pipeline tail:
// columns come out of pooled colbuf builders (>2KB each), serialize through
// the presized pooled frame buffer, compress, and decode back byte-faithful.
func TestBuilderColumnsCompressRoundTrip(t *testing.T) {
	const rows = 1000 // long column alone is 8KB, well past the threshold
	specs := []colbuf.Spec{
		{Name: "qty", QType: qval.KLong},
		{Name: "px", QType: qval.KFloat},
		{Name: "sym", QType: qval.KSymbol},
	}
	b := colbuf.Get()
	defer b.Release()
	b.Reset(specs, rows)
	var batch pgv3.Batch
	batch.Reset(len(specs))
	for i := 0; i < rows; i++ {
		var cells [][]byte
		for _, cell := range []string{strconv.Itoa(i % 100), strconv.Itoa(100 + i%7), []string{"GOOG", "IBM", "MSFT"}[i%3]} {
			cells = append(cells, []byte(cell))
		}
		batch.AppendRow(cells)
	}
	if err := b.AppendBatch(&batch); err != nil {
		t.Fatal(err)
	}
	names, data := b.Build()
	tbl := qval.NewTable(names, data)

	var buf bytes.Buffer
	if err := WriteMessage(&buf, Response, tbl); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[2] != 1 {
		t.Fatal("large builder-built table should compress")
	}
	msg, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !qval.EqualValues(msg.Value, tbl) {
		t.Fatal("compressed builder table round trip mismatch")
	}
}

// TestWriteMessagePooledBufferIsolation reuses the pooled frame buffer for
// messages of shrinking and growing sizes and in parallel, checking no frame
// leaks bytes from a previous occupant.
func TestWriteMessagePooledBufferIsolation(t *testing.T) {
	sizes := []int{3000, 10, 5000, 1}
	for _, n := range sizes {
		v := make(qval.LongVec, n)
		for i := range v {
			v[i] = int64(i)
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, Async, v); err != nil {
			t.Fatal(err)
		}
		msg, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Type != Async || !qval.EqualValues(msg.Value, v) {
			t.Fatalf("size %d: round trip mismatch", n)
		}
	}
	t.Run("parallel", func(t *testing.T) {
		for w := 0; w < 4; w++ {
			w := w
			t.Run("", func(t *testing.T) {
				t.Parallel()
				v := make(qval.FloatVec, 500+w*137)
				for i := range v {
					v[i] = float64(w*1000 + i)
				}
				for iter := 0; iter < 50; iter++ {
					var buf bytes.Buffer
					if err := WriteMessage(&buf, Response, v); err != nil {
						t.Fatal(err)
					}
					msg, err := ReadMessage(&buf)
					if err != nil {
						t.Fatal(err)
					}
					if !qval.EqualValues(msg.Value, v) {
						t.Fatal("parallel round trip mismatch")
					}
				}
			})
		}
	})
}
