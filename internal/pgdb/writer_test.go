package pgdb

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"testing"

	"hyperq/internal/wire/pgv3"
)

// bufConn is a connection that keeps what a ServerConn writes to it.
type bufConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *bufConn) Write(b []byte) (int, error) { return c.buf.Write(b) }

// writtenRows writes res as a PG v3 connection would and returns the bytes
// sent and WriteRows' error. A result of boxed rows writes through
// writeBoxed, the reference the typed writer is held to.
func writtenRows(res *Result, cols []pgv3.ColDesc) ([]byte, error) {
	c := &bufConn{}
	sc := pgv3.NewServerConn(c)
	var err error
	if res.store != nil {
		err = wireResult{sc, res}.WriteRows(cols)
	} else {
		err = writeBoxed(sc, res, cols)
	}
	if ferr := sc.Flush(); ferr != nil {
		panic(ferr)
	}
	return c.buf.Bytes(), err
}

// writeBoxed renders each boxed cell with AppendValue, or appendBinary for a
// binary column, and fails at the first cell that has no binary form.
func writeBoxed(sc *pgv3.ServerConn, res *Result, cols []pgv3.ColDesc) error {
	for _, row := range res.Rows {
		sc.BeginDataRow(len(row))
		for j, v := range row {
			if v == nil {
				sc.NullCell()
				continue
			}
			if cols[j].Format == pgv3.FormatText {
				sc.EndCell(AppendValue(sc.BeginCell(), v, res.Cols[j].Type))
				continue
			}
			cell, err := appendBinary(sc.BeginCell(), v, cols[j].TypeOID, res.Cols[j].Type)
			if err != nil {
				sc.AbortDataRow()
				return serverError(err)
			}
			sc.EndCell(cell)
		}
		if err := sc.EndDataRow(); err != nil {
			return err
		}
	}
	return nil
}

// dataRows counts the DataRow messages in b.
func dataRows(b []byte) int {
	n := 0
	for len(b) >= 5 {
		if b[0] == 'D' {
			n++
		}
		b = b[1+binary.BigEndian.Uint32(b[1:5]):]
	}
	return n
}

// TestColumnarWriterMatchesBoxed holds the wire writer, which renders each
// cell from its typed vector, to writeBoxed, which renders the same cells
// boxed: for every vector kind, in text under every column type and in
// binary under every type of pgv3's binary set, the DataRow bytes and the
// error are the same. Integers outside an int2, int4, date or time cell's
// range fail with the rows before them sent.
func TestColumnarWriterMatchesBoxed(t *testing.T) {
	ints := []any{int64(0), int64(1), int64(-1), int64(100), nil, int64(math.MaxInt16), int64(math.MinInt16),
		int64(40000), int64(math.MaxInt32), int64(3_000_000_000), int64(-3_000_000_000), int64(1) << 40,
		int64(math.MaxInt64/1000 + 1), int64(math.MinInt64), int64(math.MaxInt64)}
	kinds := []struct {
		name string
		kind vecKind
		vals []any
	}{
		{"int", vkInt, ints},
		{"float", vkFloat, []any{0.0, math.Copysign(0, -1), 3.0, nil, 1.5, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -2.5e-10}},
		{"string", vkStr, []any{"12", "", nil, "abc", "2016-06-28", "10:00:00.000", "t", "héllo"}},
		{"bool", vkBool, []any{true, false, nil, true}},
		{"mixed", vkAny, []any{int64(7), nil, 2.5, "x", true, int64(-3), "2016-06-28"}},
		{"empty", vkEmpty, []any{nil, nil, nil}},
	}
	// the first failing row of the int column per binary type
	intFails := map[uint32]struct {
		row  int
		code string
	}{
		pgv3.OidInt2: {7, "22003"}, pgv3.OidInt4: {9, "22003"},
		pgv3.OidDate: {9, "22008"}, pgv3.OidTime: {12, "22008"},
	}
	types := []string{"boolean", "smallint", "integer", "bigint", "double precision", "date", "time", "timestamp", "varchar"}
	for _, k := range kinds {
		for _, typ := range types {
			st := newColStore([]Column{{Name: "c", Type: typ}})
			for _, v := range k.vals {
				st.appendRow([]any{v})
			}
			if got := st.peekSeg(0).vecs[0].kind; got != k.kind {
				t.Fatalf("%s: vector kind %d, want %d", k.name, got, k.kind)
			}
			oid := pgv3.OIDForType(typ)
			formats := []int16{pgv3.FormatText}
			if _, ok := pgv3.BinaryWidth(oid); ok {
				formats = append(formats, pgv3.FormatBinary)
			}
			for _, f := range formats {
				name := fmt.Sprintf("%s/%s/format%d", k.name, typ, f)
				cols := []pgv3.ColDesc{{Name: "c", TypeOID: oid, Format: f}}
				res := &Result{Cols: st.cols, store: st}
				boxedRes := &Result{Cols: st.cols, Rows: st.boxSel(nil, []int{0})}
				got, gotErr := writtenRows(res, cols)
				want, wantErr := writtenRows(boxedRes, cols)
				if !bytes.Equal(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("%s: columnar wrote %q (%v), boxed %q (%v)", name, got, gotErr, want, wantErr)
				}
				if fail, ok := intFails[oid]; ok && k.kind == vkInt && f == pgv3.FormatBinary {
					var se *pgv3.ServerError
					if !errors.As(gotErr, &se) || se.Code != fail.code || dataRows(got) != fail.row {
						t.Errorf("%s: %v after %d rows, want %s after %d", name, gotErr, dataRows(got), fail.code, fail.row)
					}
				}
			}
		}
	}
}

// TestColumnarWriterSpansSegments: a result of more than one segment
// writes every row, in order, the same as boxed, and an empty one writes
// none.
func TestColumnarWriterSpansSegments(t *testing.T) {
	st := newColStore([]Column{{Name: "i", Type: "bigint"}, {Name: "s", Type: "varchar"}, {Name: "f", Type: "double precision"}})
	n := 2*segSize + 100
	for i := range n {
		row := []any{int64(i), fmt.Sprintf("s%d", i%13), float64(i) / 4}
		if i%101 == 0 {
			row[i%3] = nil
		}
		st.appendRow(row)
	}
	empty := newColStore(st.cols)
	for _, f := range []int16{pgv3.FormatText, pgv3.FormatBinary} {
		cols := []pgv3.ColDesc{{Name: "i", TypeOID: pgv3.OidInt8, Format: f}, {Name: "s", TypeOID: pgv3.OidVarchar},
			{Name: "f", TypeOID: pgv3.OidFloat8, Format: f}}
		for _, s := range []*colStore{st, empty} {
			got, err := writtenRows(&Result{Cols: s.cols, store: s}, cols)
			want, _ := writtenRows(&Result{Cols: s.cols, Rows: s.boxSel(nil, seq(0, 3))}, cols)
			if err != nil || !bytes.Equal(got, want) || dataRows(got) != s.n {
				t.Errorf("format %d, %d rows: %d DataRows (%v), equal to boxed: %v", f, s.n, dataRows(got), err, bytes.Equal(got, want))
			}
		}
	}
}

// TestEmptyColumnarResult: a top-level SELECT that selects no row still
// leaves columnar, is tagged SELECT 0 and describes its columns, so the
// client gets its RowDescription.
func TestEmptyColumnarResult(t *testing.T) {
	s := NewDB().NewSession()
	if _, err := s.Exec("CREATE TABLE z (a bigint, b varchar)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO z VALUES (1, 'x')"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"SELECT a, b FROM z WHERE a > 5", "SELECT b, a FROM (SELECT a, b FROM z WHERE a < 0) t ORDER BY a"} {
		results, err := s.execScript(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		res := results[0]
		if res.store == nil || res.Tag != "SELECT 0" || len(wireResult{nil, res}.Columns()) != 2 {
			t.Errorf("%s: columnar %v, tag %q, columns %v", q, res.store != nil, res.Tag, wireResult{nil, res}.Columns())
		}
	}
}
