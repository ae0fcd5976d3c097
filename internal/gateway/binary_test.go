package gateway

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hyperq/internal/core"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/wire/pgv3"
	"hyperq/internal/wire/qipc"
)

// binarySpy records whether a streamed result described any binary column,
// and the row-count hint it was described with.
type binarySpy struct {
	*core.TableSink
	binary bool
	hint   int
}

func (s *binarySpy) Schema(cols []core.BackendCol, hint int) error {
	for _, c := range cols {
		s.binary = s.binary || c.Binary
	}
	s.hint = hint
	return s.TableSink.Schema(cols, hint)
}

// stream runs sql through ExecStream and returns the table and whether its
// cells came in binary.
func stream(t *testing.T, gw *Gateway, sql string) (*qval.Table, bool, error) {
	t.Helper()
	tbl, spy, err := streamSpy(t, gw, sql)
	return tbl, spy.binary, err
}

// streamSpy runs sql through ExecStream and returns the table and what the
// spy saw of its schema.
func streamSpy(t *testing.T, gw *Gateway, sql string) (*qval.Table, *binarySpy, error) {
	t.Helper()
	spy := &binarySpy{TableSink: core.GetTableSink()}
	defer spy.Release()
	if err := gw.ExecStream(ctx, sql, spy); err != nil {
		return nil, spy, err
	}
	return spy.Table(), spy, nil
}

func encode(t *testing.T, v qval.Value) []byte {
	t.Helper()
	b, err := qipc.EncodeValue(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBinaryCellsMatchText runs edge values of every binary-set type as a
// column through ExecStream, whose second run of a text gets binary cells,
// and through Exec, the text path: the q vectors must encode identically.
// Negative times are inserted in the SQL input form whose fields carry their
// own signs ('00:00:00.-999' is -999 ms).
func TestBinaryCellsMatchText(t *testing.T) {
	addr, _ := startBackend(t)
	gw, err := Dial(ctx, addr, "hq", "pw", "db")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	for _, tc := range []struct {
		typ  string
		vals []string
	}{
		{"boolean", []string{"NULL", "FALSE", "TRUE"}},
		{"smallint", []string{"NULL", "0", "1", "-1", "-32768", "32767"}},
		{"integer", []string{"NULL", "0", "1", "-1", "-2147483648", "2147483647"}},
		{"bigint", []string{"NULL", "0", "1", "-1", "-9223372036854775807 - 1", "9223372036854775807"}},
		{"interval", []string{"NULL", "0", "1", "-1", "-9223372036854775807 - 1", "9223372036854775807"}},
		{"double precision", []string{"NULL", "0", "1", "-1", "-1.7976931348623157e308", "1.7976931348623157e308",
			"5e-324", "-5e-324", "'NaN'::double precision", "'Infinity'::double precision",
			"'-Infinity'::double precision", "-0.0", "0.1", "1e21"}},
		{"date", []string{"NULL", "'2000-01-01'::date", "'2000-01-02'::date", "'1999-12-31'::date",
			"'0000-01-01'::date", "'9999-12-31'::date", "'1700-01-01'::date", "'2400-01-01'::date", "'1600-02-29'::date"}},
		{"time", []string{"NULL", "'00:00:00'::time", "'00:00:00.001'::time", "'00:00:00.-001'::time",
			"'23:59:59.999'::time", "'00:00:00.-999'::time", "'-1:00:00.-01'::time", "'-25:-1:-1.-01'::time",
			"'24:00:00'::time", "'100:00:00.500'::time", "'1000000:00:00'::time"}},
	} {
		t.Run(tc.typ, func(t *testing.T) {
			table := "e_" + string(bytes.ReplaceAll([]byte(tc.typ), []byte(" "), []byte("_")))
			if _, err := gw.Exec(ctx, fmt.Sprintf("CREATE TABLE %s (v %s)", table, tc.typ)); err != nil {
				t.Fatal(err)
			}
			for _, v := range tc.vals {
				if _, err := gw.Exec(ctx, fmt.Sprintf("INSERT INTO %s VALUES (%s)", table, v)); err != nil {
					t.Fatalf("%s: %v", v, err)
				}
			}
			sql := "SELECT v FROM " + table
			res, err := gw.Exec(ctx, sql)
			if err != nil {
				t.Fatal(err)
			}
			text, err := core.ResultToQ(res)
			if err != nil {
				t.Fatal(err)
			}
			if text.Len() != len(tc.vals) {
				t.Fatalf("text path: %d rows, want %d", text.Len(), len(tc.vals))
			}
			want := encode(t, text)
			for run, wantBinary := range []bool{false, true} {
				tbl, binary, err := stream(t, gw, sql)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if binary != wantBinary {
					t.Fatalf("run %d: binary cells = %v, want %v", run, binary, wantBinary)
				}
				if got := encode(t, tbl); !bytes.Equal(got, want) {
					t.Errorf("run %d (binary %v):\n got %v\nwant %v", run, binary, tbl, text)
				}
			}
		})
	}
}

// TestBinaryOutOfRangeFails: a value its binary form cannot hold fails the
// statement with PostgreSQL's SQLSTATE rather than truncating, and the
// failed text runs in text again.
func TestBinaryOutOfRangeFails(t *testing.T) {
	addr, _ := startBackend(t)
	gw, err := Dial(ctx, addr, "hq", "pw", "db")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	for _, tc := range []struct{ typ, val string }{{"smallint", "40000"}, {"integer", "3000000000"}} {
		tbl := "r_" + tc.typ
		for _, sql := range []string{"CREATE TABLE " + tbl + " (x " + tc.typ + ")", "INSERT INTO " + tbl + " VALUES (1)"} {
			if _, err := gw.Exec(ctx, sql); err != nil {
				t.Fatal(err)
			}
		}
		sql := "SELECT x FROM " + tbl
		if _, _, err := stream(t, gw, sql); err != nil { // describes the text's columns
			t.Fatal(err)
		}
		if _, err := gw.Exec(ctx, "INSERT INTO "+tbl+" VALUES ("+tc.val+")"); err != nil {
			t.Fatal(err)
		}
		_, _, err := stream(t, gw, sql)
		var se *pgv3.ServerError
		if !errors.As(err, &se) || se.Code != "22003" {
			t.Fatalf("%s = %s in binary: err = %v, want SQLSTATE 22003", tc.typ, tc.val, err)
		}
		// forgotten: the next run is text, where the decoder refuses it
		if _, binary, err := stream(t, gw, sql); binary || err == nil {
			t.Fatalf("after the failure: binary %v, err %v", binary, err)
		}
	}
}

// TestStaleFormatsRerunInText: when a remembered text's result types change
// under it, the binary request the server refuses is retried in text, so
// the statement still succeeds.
func TestStaleFormatsRerunInText(t *testing.T) {
	addr, _ := startBackend(t)
	gw, err := Dial(ctx, addr, "hq", "pw", "db")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	for _, sql := range []string{"CREATE TABLE s (v bigint)", "INSERT INTO s VALUES (1)"} {
		if _, err := gw.Exec(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}
	const sql = "SELECT v FROM s"
	for run := 0; run < 2; run++ {
		if _, _, err := stream(t, gw, sql); err != nil {
			t.Fatal(err)
		}
	}
	for _, ddl := range []string{"DROP TABLE s", "CREATE TABLE s (v varchar)", "INSERT INTO s VALUES ('x')"} {
		if _, err := gw.Exec(ctx, ddl); err != nil {
			t.Fatal(err)
		}
	}
	tbl, binary, err := stream(t, gw, sql)
	if err != nil || binary {
		t.Fatalf("after the type change: binary %v, err %v", binary, err)
	}
	if got := tbl.String(); !bytes.Contains([]byte(got), []byte("x")) {
		t.Fatalf("result = %s", got)
	}
}

// TestExtendedRefusesScripts: the extended cycle prepares one statement;
// a script is a syntax error there (the simple cycle still runs it).
func TestExtendedRefusesScripts(t *testing.T) {
	addr, _ := startBackend(t)
	gw, err := Dial(ctx, addr, "hq", "pw", "db")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	_, _, err = stream(t, gw, "SELECT 1; SELECT 2")
	var se *pgv3.ServerError
	if !errors.As(err, &se) || se.Code != "42601" {
		t.Fatalf("err = %v, want SQLSTATE 42601", err)
	}
	if _, err := gw.Exec(ctx, "SELECT 1; SELECT 2"); err != nil {
		t.Fatalf("simple cycle: %v", err)
	}
}

// TestRowCountHintBuildsExactTable: from a text's second run the sink is
// sized by the text's last row count, and a result larger than that hint
// (rows inserted between runs, as under a writer) or smaller (the table
// recreated with fewer) still builds exactly the table the text path does.
func TestRowCountHintBuildsExactTable(t *testing.T) {
	addr, _ := startBackend(t)
	gw, err := Dial(ctx, addr, "hq", "pw", "db")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	next := 0
	insert := func(n int) {
		t.Helper()
		var vals []string
		for i := 0; i < n; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d.5, 'S%d', NULL)", next, next, next%3))
			next++
		}
		if _, err := gw.Exec(ctx, "INSERT INTO h VALUES "+strings.Join(vals, ", ")); err != nil {
			t.Fatal(err)
		}
	}
	const sql = "SELECT j, f, s, d FROM h"
	check := func(step string, wantHint, wantRows int) {
		t.Helper()
		res, err := gw.Exec(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		text, err := core.ResultToQ(res)
		if err != nil {
			t.Fatal(err)
		}
		tbl, spy, err := streamSpy(t, gw, sql)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if spy.hint != wantHint || tbl.Len() != wantRows {
			t.Fatalf("%s: hint %d and %d rows, want hint %d and %d rows", step, spy.hint, tbl.Len(), wantHint, wantRows)
		}
		if got, want := encode(t, tbl), encode(t, text); !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %v\nwant %v", step, tbl, text)
		}
	}
	create := "CREATE TABLE h (j bigint, f double precision, s varchar, d date)"
	if _, err := gw.Exec(ctx, create); err != nil {
		t.Fatal(err)
	}
	insert(300)
	check("first run", -1, 300)
	check("hinted run", 300, 300)
	insert(200)
	check("larger than the hint", 300, 500)
	insert(1)
	check("one row past the hint", 500, 501)
	for _, ddl := range []string{"DROP TABLE h", create} {
		if _, err := gw.Exec(ctx, ddl); err != nil {
			t.Fatal(err)
		}
	}
	insert(40)
	check("smaller than the hint", 501, 40)
	check("after shrinking", 40, 40)
}
