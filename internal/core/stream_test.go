package core

import (
	"context"
	"fmt"
	"testing"

	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/wire/pgv3"
)

// TestTypedAndWireResultsAgree feeds a column of every type pgdb converts to
// through both result paths: the embedded engine's typed rows (FeedResult),
// and the text rows a PG v3 client receives, whose column type is what the
// wire OID names (ToBackendResult, OID round trip, ReplayResult). Both must
// build the same q table — the text each value renders to must parse back,
// under the type its OID says, to what the typed path appends.
func TestTypedAndWireResultsAgree(t *testing.T) {
	for _, c := range []struct{ typ, v1, v2 string }{
		{"smallint", "5", "-3"},
		{"integer", "5", "-3"},
		{"bigint", "9000000000", "-3"},
		{"real", "1.5", "-0.25"},
		{"double precision", "1.5", "-0.25"},
		{"numeric", "2.75", "-4"},
		{"boolean", "true", "false"},
		{"varchar", "abc", "x y"},
		{"text", "abc", ""},
		{"date", "2016-06-28", "1999-12-31"},
		{"time", "10:00:00.000", "23:59:59.999"},
		{"timestamp", "2016-06-28 10:00:00", "2000-01-01 00:00:00.5"},
		{"interval", "5", "-7000000000"},
	} {
		s := pgdb.NewDB().NewSession()
		for _, sql := range []string{
			fmt.Sprintf("CREATE TABLE t (c %s)", c.typ),
			fmt.Sprintf("INSERT INTO t VALUES (CAST('%s' AS %s)), (CAST('%s' AS %[2]s)), (NULL)", c.v1, c.typ, c.v2),
		} {
			if _, err := s.Exec(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		res, err := s.Exec("SELECT c FROM t")
		if err != nil {
			t.Fatal(err)
		}
		typed, err := sinkTable(func(sink RowSink) error { return FeedResult(context.Background(), res, sink) })
		if err != nil {
			t.Fatalf("%s, typed: %v", c.typ, err)
		}
		wire := ToBackendResult(res)
		for i := range wire.Cols {
			wire.Cols[i].SQLType = pgv3.TypeForOID(pgv3.OIDForType(wire.Cols[i].SQLType))
		}
		text, err := sinkTable(func(sink RowSink) error { return ReplayResult(wire, sink) })
		if err != nil {
			t.Fatalf("%s, over the wire: %v", c.typ, err)
		}
		// %#v spells out each column's vector type, and NaN (a float
		// null) equals itself in it
		if a, b := fmt.Sprintf("%#v", typed), fmt.Sprintf("%#v", text); a != b {
			t.Errorf("%s: typed path %s, wire path %s", c.typ, a, b)
		}
	}
}

func sinkTable(feed func(RowSink) error) (*qval.Table, error) {
	sink := GetTableSink()
	defer sink.Release()
	if err := feed(sink); err != nil {
		return nil, err
	}
	return sink.Table(), nil
}
