package gateway

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"runtime"
	"strconv"
	"testing"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/wire/pgv3"
)

// scripted connects a Gateway to a scripted backend: the connection reads
// startup's AuthenticationOk and ReadyForQuery, then the replies back to
// back, and discards what the client writes. replies[i] is what the client
// reads for its i-th statement; a reply cut short ends in EOF.
func scripted(tb testing.TB, replies ...[]byte) *Gateway {
	tb.Helper()
	script := cat(msg('R', 0, 0, 0, 0), msg('Z', 'I'))
	for _, r := range replies {
		script = append(script, r...)
	}
	c, err := pgv3.NewClientConn(ctx, memConn{bytes.NewReader(script)}, "u", "", "db")
	if err != nil {
		tb.Fatal(err)
	}
	return &Gateway{conn: c}
}

// memConn is a connection that reads a fixed byte stream and discards what
// is written to it: one goroutine, the same path through the client on
// every run.
type memConn struct{ r *bytes.Reader }

func (c memConn) Read(p []byte) (int, error)     { return c.r.Read(p) }
func (c memConn) Write(p []byte) (int, error)    { return len(p), nil }
func (memConn) Close() error                     { return nil }
func (memConn) LocalAddr() net.Addr              { return nil }
func (memConn) RemoteAddr() net.Addr             { return nil }
func (memConn) SetDeadline(time.Time) error      { return nil }
func (memConn) SetReadDeadline(time.Time) error  { return nil }
func (memConn) SetWriteDeadline(time.Time) error { return nil }

// msg frames one backend message.
func msg(typ byte, body ...byte) []byte {
	return append(binary.BigEndian.AppendUint32([]byte{typ}, uint32(len(body)+4)), body...)
}

func cat(msgs ...[]byte) []byte {
	var b []byte
	for _, m := range msgs {
		b = append(b, m...)
	}
	return b
}

// rowDesc frames a RowDescription of (name, OID, format) columns.
func rowDesc(cols ...pgv3.ColDesc) []byte {
	b := binary.BigEndian.AppendUint16(nil, uint16(len(cols)))
	for _, c := range cols {
		b = append(append(b, c.Name...), 0)
		b = append(b, 0, 0, 0, 0, 0, 0)
		b = binary.BigEndian.AppendUint32(b, c.TypeOID)
		b = append(b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
		b = binary.BigEndian.AppendUint16(b, uint16(c.Format))
	}
	return msg('T', b...)
}

// dataRow frames a DataRow; a nil cell is NULL.
func dataRow(cells ...[]byte) []byte {
	b := binary.BigEndian.AppendUint16(nil, uint16(len(cells)))
	for _, c := range cells {
		if c == nil {
			b = binary.BigEndian.AppendUint32(b, 0xffffffff)
			continue
		}
		b = append(binary.BigEndian.AppendUint32(b, uint32(len(c))), c...)
	}
	return msg('D', b...)
}

func complete(tag string) []byte { return msg('C', append([]byte(tag), 0)...) }

var (
	parseBind = cat(msg('1'), msg('2'))
	ready     = msg('Z', 'I')
	int8Col   = pgv3.ColDesc{Name: "n", TypeOID: pgv3.OidInt8}
	goodReply = cat(parseBind, rowDesc(int8Col), dataRow([]byte("7")), complete("SELECT 1"), ready)
)

// TestMalformedRepliesFailCleanly feeds replies no PG v3 server may send.
// Each must fail its statement with an error, neither crash hyperq nor
// build a ragged table, and leave the connection in step for the next one.
func TestMalformedRepliesFailCleanly(t *testing.T) {
	twoCols := []pgv3.ColDesc{int8Col, {Name: "m", TypeOID: pgv3.OidInt8}}
	for _, tc := range []struct {
		name  string
		reply []byte
	}{
		{"extra-field", cat(rowDesc(int8Col), dataRow([]byte("1"), []byte("2")))},
		{"row-before-description", dataRow([]byte("1"))},
		{"short-row", cat(rowDesc(twoCols...), dataRow([]byte("1")))},
		{"binary-width", cat(rowDesc(pgv3.ColDesc{Name: "n", TypeOID: pgv3.OidInt8, Format: pgv3.FormatBinary}),
			dataRow([]byte{0, 0, 0, 1}))},
		{"binary-outside-set", cat(rowDesc(pgv3.ColDesc{Name: "s", TypeOID: pgv3.OidNumeric, Format: pgv3.FormatBinary}),
			dataRow([]byte{0, 0, 0, 0, 0, 0, 0, 0}))},
		{"field-overrun", cat(rowDesc(int8Col), msg('D', 0, 1, 0, 0, 0, 9, '1'))},
	} {
		hostile := cat(parseBind, tc.reply, complete("SELECT 1"), ready)
		t.Run(tc.name+"/stream", func(t *testing.T) {
			gw := scripted(t, hostile, goodReply)
			sink := core.GetTableSink()
			defer sink.Release()
			if err := gw.ExecStream(ctx, "SELECT", sink); err == nil {
				t.Fatalf("malformed reply accepted: %v", sink.Table())
			}
			next := core.GetTableSink()
			defer next.Release()
			if err := gw.ExecStream(ctx, "SELECT", next); err != nil {
				t.Fatalf("connection out of step after the malformed reply: %v", err)
			}
			if tbl := next.Table(); tbl.Len() != 1 {
				t.Fatalf("next result = %v", tbl)
			}
		})
		t.Run(tc.name+"/exec", func(t *testing.T) {
			gw := scripted(t, hostile, goodReply)
			if res, err := gw.Exec(ctx, "SELECT"); err == nil {
				t.Fatalf("malformed reply accepted: %+v", res)
			}
			if res, err := gw.Exec(ctx, "SELECT"); err != nil || len(res.Rows) != 1 {
				t.Fatalf("connection out of step after the malformed reply: %+v, %v", res, err)
			}
		})
	}
}

// FuzzClientResult feeds arbitrary backend bytes to ExecStream as the reply
// to one extended cycle, decoded into a core.TableSink: it must end in an
// error or a table, never a panic, and never allocate what a length field
// claims without the bytes behind it. What a reply costs is bounded by the
// bytes received, as FuzzWALReplay bounds a log's.
func FuzzClientResult(f *testing.F) {
	binCols := rowDesc(
		pgv3.ColDesc{Name: "b", TypeOID: pgv3.OidBool, Format: pgv3.FormatBinary},
		pgv3.ColDesc{Name: "f", TypeOID: pgv3.OidFloat8, Format: pgv3.FormatBinary},
		pgv3.ColDesc{Name: "d", TypeOID: pgv3.OidDate, Format: pgv3.FormatBinary},
		pgv3.ColDesc{Name: "t", TypeOID: pgv3.OidTime, Format: pgv3.FormatBinary},
		pgv3.ColDesc{Name: "s", TypeOID: pgv3.OidVarchar})
	f.Add(goodReply)
	f.Add(cat(parseBind, binCols,
		dataRow([]byte{1}, []byte{0x40, 0x09, 0x21, 0xfb, 0x54, 0x44, 0x2d, 0x18}, []byte{0, 0, 0x23, 0x01},
			[]byte{0, 0, 0, 0x07, 0xd8, 0x2a, 0x15, 0x40}, []byte("GOOG")),
		dataRow(nil, nil, nil, nil, nil), complete("SELECT 2"), ready))
	f.Add(cat(parseBind, msg('n'), complete("CREATE TABLE"), ready))
	f.Add(cat(parseBind, msg('E', append([]byte("SERROR\x00C42P01\x00Mno such relation\x00"), 0)...), ready))
	f.Add(cat(parseBind, rowDesc(int8Col), dataRow([]byte("1"), []byte("2")), complete("SELECT 1"), ready))
	f.Add(cat(parseBind, dataRow([]byte("1")), complete("SELECT 1"), ready))
	f.Add(cat(parseBind, rowDesc(int8Col), msg('D', 0xff, 0xff), ready))
	f.Add(cat(parseBind, []byte{'T', 0x7f, 0xff, 0xff, 0xff}))
	// rows across several batches, and a malformed row after a full one
	rows := func(n int) []byte {
		var b []byte
		for i := range n {
			b = append(b, dataRow([]byte(strconv.Itoa(i)))...)
		}
		return b
	}
	f.Add(cat(parseBind, rowDesc(int8Col), rows(2*pgv3.BatchRows+3), complete("SELECT 2051"), ready))
	f.Add(cat(parseBind, rowDesc(int8Col), rows(pgv3.BatchRows), dataRow([]byte("1"), []byte("2")), complete("SELECT 1025"), ready))
	// a DataRow that claims 2^30 bytes and sends none
	f.Add(cat(parseBind, rowDesc(int8Col), rows(3), []byte{'D', 0x40, 0, 0, 0}))
	f.Fuzz(func(t *testing.T, reply []byte) {
		bound := uint64(64*len(reply) + 64<<10)
		var tbl *qval.Table
		var err error
		least := uint64(math.MaxUint64)
		for range 2 { // the fewer bytes of two runs: other goroutines allocate too
			gw := scripted(t, reply)
			sink := core.GetTableSink()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err = gw.ExecStream(ctx, "SELECT", sink); err == nil {
				tbl = sink.Table()
			}
			runtime.ReadMemStats(&after)
			sink.Release()
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > bound {
			t.Fatalf("a %d-byte reply allocated %d bytes (bound %d)", len(reply), least, bound)
		}
		if err != nil {
			return
		}
		for _, col := range tbl.Data {
			if col.Len() != tbl.Len() {
				t.Fatalf("ragged table: %v", tbl)
			}
		}
	})
}
