package gateway

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hyperq/internal/colbuf"
	"hyperq/internal/core"
	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/wire/pgv3"
	"hyperq/internal/xtra"
)

// cellSink passes a streamed result to a TableSink, and decodes every cell
// a second time, one at a time, with refCell: the reference the batch
// decoder is held to. It records each batch's row count and whether any
// column came in binary.
type cellSink struct {
	*core.TableSink
	cols    []core.BackendCol
	atoms   [][]qval.Value // per column
	batches []int
	binary  bool
	err     error
}

func (s *cellSink) Schema(cols []core.BackendCol, hint int) error {
	s.cols = slices.Clone(cols)
	s.atoms = make([][]qval.Value, len(cols))
	for _, c := range cols {
		s.binary = s.binary || c.Binary
	}
	return s.TableSink.Schema(cols, hint)
}

func (s *cellSink) WireBatch(b *pgv3.Batch) error {
	s.batches = append(s.batches, b.Rows())
	for i := range b.Rows() {
		for j, c := range s.cols {
			v, err := refCell(b.Cell(i, j), c)
			if err != nil && s.err == nil {
				s.err = fmt.Errorf("row %d column %s: %v", i, c.Name, err)
			}
			s.atoms[j] = append(s.atoms[j], v)
		}
	}
	return s.TableSink.WireBatch(b)
}

// table builds the reference table from the cells decoded one at a time,
// dropping the order column as the sink does.
func (s *cellSink) table() *qval.Table {
	names, data := []string{}, []qval.Value{}
	for j, c := range s.cols {
		if c.Name == xtra.OrdCol || c.Name == "hq_rn" {
			continue
		}
		col := qval.EmptyVec(xtra.QTypeForSQL(c.SQLType))
		for _, a := range s.atoms[j] {
			col = qval.AppendAtom(col, a)
		}
		names, data = append(names, c.Name), append(data, col)
	}
	return qval.NewTable(names, data)
}

// refCell decodes one wire cell of column c into a q atom: PostgreSQL text
// with core.ResultToQ's parsers, binary by its type's fixed-width form.
func refCell(cell []byte, c core.BackendCol) (qval.Value, error) {
	qt := xtra.QTypeForSQL(c.SQLType)
	if cell == nil {
		return qval.Null(qt), nil
	}
	if c.Binary {
		switch qt {
		case qval.KBool:
			return qval.Bool(cell[0] != 0), nil
		case qval.KShort:
			return qval.Short(int16(binary.BigEndian.Uint16(cell))), nil
		case qval.KInt:
			return qval.Int(int32(binary.BigEndian.Uint32(cell))), nil
		case qval.KLong:
			return qval.Long(int64(binary.BigEndian.Uint64(cell))), nil
		case qval.KFloat:
			f := math.Float64frombits(binary.BigEndian.Uint64(cell))
			if math.IsNaN(f) {
				f = math.NaN()
			}
			return qval.Float(f), nil
		case qval.KDate:
			return qval.Temporal{T: qval.KDate, V: int64(int32(binary.BigEndian.Uint32(cell)))}, nil
		case qval.KTime:
			return qval.Temporal{T: qval.KTime, V: int64(binary.BigEndian.Uint64(cell)) / 1000}, nil
		}
		return nil, fmt.Errorf("binary cell in a %s column", c.SQLType)
	}
	text := string(cell)
	switch qt {
	case qval.KBool:
		return qval.Bool(text == "t" || text == "true" || text == "1"), nil
	case qval.KShort, qval.KInt, qval.KLong:
		n, err := strconv.ParseInt(text, 10, map[qval.Type]int{qval.KShort: 16, qval.KInt: 32, qval.KLong: 64}[qt])
		switch qt {
		case qval.KShort:
			return qval.Short(int16(n)), err
		case qval.KInt:
			return qval.Int(int32(n)), err
		}
		return qval.Long(n), err
	case qval.KReal:
		f, err := strconv.ParseFloat(text, 32)
		return qval.Real(float32(f)), err
	case qval.KFloat:
		f, err := strconv.ParseFloat(text, 64)
		return qval.Float(f), err
	case qval.KDate:
		d, err := colbuf.ParseDateText(text)
		return qval.Temporal{T: qval.KDate, V: d}, err
	case qval.KTime:
		ms, err := colbuf.ParseTimeText(text)
		return qval.Temporal{T: qval.KTime, V: ms}, err
	case qval.KTimestamp:
		ns, err := colbuf.ParseTimestampText(text)
		return qval.Temporal{T: qval.KTimestamp, V: ns}, err
	}
	return qval.Symbol(text), nil
}

// decoderDB holds table d: every binary-set type; varchar s, where an empty
// string sits next to a NULL and row wide carries a cell past the batch
// byte bound; the text-only types timestamp, real and text; e, NULL in
// every row, so an all-NULL vector; and a, a double precision column that
// holds floats and strings of numbers, a boxed vector.
func decoderDB(t *testing.T, rows, wide int) *pgdb.DB {
	t.Helper()
	db := pgdb.NewDB()
	s := db.NewSession()
	if _, err := s.Exec(`CREATE TABLE d (id bigint, b boolean, h smallint, i integer, j bigint, iv interval,
		f double precision, dt date, tm time, s varchar, ts timestamp, r real, tx text, e bigint, a double precision)`); err != nil {
		t.Fatal(err)
	}
	null := func(i, k int, v string) string {
		if i%k == k-1 {
			return "NULL"
		}
		return v
	}
	syms := []string{"'GOOG'", "''", "NULL", "'IBM'", "'héllo'"}
	floats := []string{"0.1", "-0.0", "1e300", "'NaN'::double precision", "-2.5e-10", "'-Infinity'::double precision"}
	var vals []string
	flush := func() {
		if len(vals) == 0 {
			return
		}
		if _, err := s.Exec("INSERT INTO d VALUES " + strings.Join(vals, ", ")); err != nil {
			t.Fatal(err)
		}
		vals = vals[:0]
	}
	for i := range rows {
		sym := syms[i%len(syms)]
		if i == wide {
			sym = "'" + strings.Repeat("w", pgv3.BatchBytes+1) + "'"
		}
		a := strconv.Itoa(i) // stored as a float
		if i%2 == 1 {
			a = fmt.Sprintf("'%d.5'", i) // stored as the string
		}
		vals = append(vals, fmt.Sprintf("(%d, %s, %s, %s, %s, %s, %s, %s, %s, %s, %s, %s, %s, NULL, %s)", i,
			null(i, 3, []string{"TRUE", "FALSE"}[i%2]),
			null(i, 5, strconv.Itoa(i*37%65536-32768)),
			null(i, 7, strconv.Itoa(i*100003-1<<30)),
			null(i, 11, strconv.FormatInt(int64(i)*1_000_000_007-1<<40, 10)),
			null(i, 13, strconv.Itoa(-i*1000)),
			null(i, 4, floats[i%len(floats)]),
			null(i, 6, fmt.Sprintf("'%s'::date", pgdb.FormatValue(int64(i*17-4000), "date"))),
			null(i, 8, fmt.Sprintf("'%s'::time", pgdb.FormatValue(int64(i)*86_399_987%86_400_000, "time"))),
			sym,
			null(i, 9, fmt.Sprintf("'2016-06-28 10:%02d:%02d.%09d'", i/60%60, i%60, i*7919)),
			null(i, 10, fmt.Sprintf("%d.25", i)),
			null(i, 12, fmt.Sprintf("'t%d'", i%97)),
			a))
		if len(vals) == 500 {
			flush()
		}
	}
	flush()
	return db
}

// TestBatchDecoderMatchesCells holds the column-at-a-time batch decoder to
// a reference that decodes each cell alone, over results of 0, 1, B-1, B,
// B+1 and 3B+7 rows (B the batch row bound) and over one whose row past
// the byte bound cuts a batch short. Each result runs twice: in text, then
// with the binary set in binary. The two tables must encode to the same
// QIPC bytes, and the batches must be cut at the bounds.
func TestBatchDecoderMatchesCells(t *testing.T) {
	const B = pgv3.BatchRows
	const cols = "id, b, h, i, j, iv, f, dt, tm, s, ts, r, tx, e, a"
	big := decoderDB(t, 3*B+7, -1)
	wide := decoderDB(t, 5, 2)
	for _, tc := range []struct {
		name    string
		db      *pgdb.DB
		rows    int
		batches []int
	}{
		{"0", big, 0, nil},
		{"1", big, 1, []int{1}},
		{"B-1", big, B - 1, []int{B - 1}},
		{"B", big, B, []int{B}},
		{"B+1", big, B + 1, []int{B, 1}},
		{"3B+7", big, 3*B + 7, []int{B, B, B, 7}},
		{"wide", wide, 5, []int{3, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gw, err := Pipe(ctx, tc.db)
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			sql := fmt.Sprintf("SELECT %s FROM d WHERE id < %d ORDER BY id", cols, tc.rows)
			for run, wantBinary := range []bool{false, true} {
				sink := &cellSink{TableSink: core.GetTableSink()}
				err := gw.ExecStream(ctx, sql, sink)
				if err == nil {
					err = sink.err
				}
				if err != nil {
					sink.Release()
					t.Fatalf("run %d: %v", run, err)
				}
				got, want := encode(t, sink.Table()), encode(t, sink.table())
				sink.Release()
				if sink.binary != wantBinary {
					t.Fatalf("run %d: binary cells = %v, want %v", run, sink.binary, wantBinary)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("run %d: the batch decoder's table differs from the cell reference's", run)
				}
				if !slices.Equal(sink.batches, tc.batches) {
					t.Fatalf("run %d: batches of %v rows, want %v", run, sink.batches, tc.batches)
				}
			}
		})
	}
}
