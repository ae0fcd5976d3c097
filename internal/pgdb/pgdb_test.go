package pgdb

import (
	"fmt"
	"strings"
	"testing"
)

func newTestDB(t *testing.T) (*DB, *Session) {
	t.Helper()
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE trades (sym varchar, ts bigint, price double precision, size bigint)")
	mustExec(t, s, `INSERT INTO trades VALUES
		('GOOG', 1, 100.0, 10),
		('IBM',  2, 150.0, 20),
		('GOOG', 3, 101.0, 30),
		('IBM',  4, 151.0, 40),
		('GOOG', 5, 102.0, 50)`)
	return db, s
}

func mustExec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

// mustRefuse asserts that sql, which uses SQL the translator never writes,
// fails with SQLSTATE code.
func mustRefuse(t *testing.T, s *Session, sql, code string) {
	t.Helper()
	_, err := s.Exec(sql)
	if pe, ok := err.(*Error); !ok || pe.Code != code {
		t.Fatalf("Exec(%q) = %v, want SQLSTATE %s", sql, err, code)
	}
}

func TestCreateInsertSelect(t *testing.T) {
	_, s := newTestDB(t)
	res := mustExec(t, s, "SELECT * FROM trades")
	if len(res.Rows) != 5 || len(res.Cols) != 4 {
		t.Fatalf("shape %dx%d", len(res.Rows), len(res.Cols))
	}
	if res.Tag != "SELECT 5" {
		t.Fatalf("tag = %q", res.Tag)
	}
}

func TestWhereFilter(t *testing.T) {
	_, s := newTestDB(t)
	res := mustExec(t, s, "SELECT price FROM trades WHERE sym = 'GOOG'")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].(float64) != 100.0 {
		t.Fatalf("first price = %v", res.Rows[0][0])
	}
}

func TestThreeValuedLogic(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (a bigint)")
	mustExec(t, s, "INSERT INTO t VALUES (1), (NULL), (3)")
	// NULL = NULL is unknown, so the row with NULL never matches a = a... but
	// WHERE a = NULL matches nothing at all:
	res := mustExec(t, s, "SELECT * FROM t WHERE a = NULL")
	if len(res.Rows) != 0 {
		t.Fatalf("a = NULL matched %d rows; 3VL broken", len(res.Rows))
	}
	// IS NOT DISTINCT FROM is null-safe (what Hyper-Q emits for Q equality)
	res = mustExec(t, s, "SELECT * FROM t WHERE a IS NOT DISTINCT FROM NULL")
	if len(res.Rows) != 1 {
		t.Fatalf("IS NOT DISTINCT FROM NULL matched %d rows", len(res.Rows))
	}
	res = mustExec(t, s, "SELECT * FROM t WHERE a IS NULL")
	if len(res.Rows) != 1 {
		t.Fatalf("IS NULL matched %d rows", len(res.Rows))
	}
}

func TestNullInExpressions(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (a bigint, b bigint)")
	mustExec(t, s, "INSERT INTO t VALUES (1, NULL)")
	res := mustExec(t, s, "SELECT a + b FROM t")
	if res.Rows[0][0] != nil {
		t.Fatalf("1 + NULL = %v, want NULL", res.Rows[0][0])
	}
	res = mustExec(t, s, "SELECT COALESCE(b, 42) FROM t")
	if res.Rows[0][0].(int64) != 42 {
		t.Fatalf("coalesce = %v", res.Rows[0][0])
	}
}

func TestAggregates(t *testing.T) {
	_, s := newTestDB(t)
	res := mustExec(t, s, "SELECT COUNT(*), SUM(size), AVG(price), MIN(price), MAX(price) FROM trades")
	row := res.Rows[0]
	if row[0].(int64) != 5 || row[1].(int64) != 150 {
		t.Fatalf("count/sum = %v %v", row[0], row[1])
	}
	if row[3].(float64) != 100 || row[4].(float64) != 151 {
		t.Fatalf("min/max = %v %v", row[3], row[4])
	}
}

func TestAggregatesSkipNulls(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (a bigint)")
	mustExec(t, s, "INSERT INTO t VALUES (1), (NULL), (3)")
	res := mustExec(t, s, "SELECT COUNT(a), COUNT(*), SUM(a), AVG(a) FROM t")
	row := res.Rows[0]
	if row[0].(int64) != 2 || row[1].(int64) != 3 || row[2].(int64) != 4 || row[3].(float64) != 2 {
		t.Fatalf("agg row = %v", row)
	}
}

func TestGroupBy(t *testing.T) {
	_, s := newTestDB(t)
	res := mustExec(t, s, "SELECT sym, MAX(price) AS mx, SUM(size) AS tot FROM trades GROUP BY sym ORDER BY sym")
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if res.Rows[0][0].(string) != "GOOG" || res.Rows[0][1].(float64) != 102 || res.Rows[0][2].(int64) != 90 {
		t.Fatalf("GOOG group = %v", res.Rows[0])
	}
	if res.Rows[1][0].(string) != "IBM" || res.Rows[1][1].(float64) != 151 {
		t.Fatalf("IBM group = %v", res.Rows[1])
	}
}

func TestHaving(t *testing.T) {
	_, s := newTestDB(t)
	mustRefuse(t, s, "SELECT sym FROM trades GROUP BY sym HAVING SUM(size) > 70", "42601")
	// the translator filters a grouped result in an enclosing WHERE
	res := mustExec(t, s, "SELECT sym FROM (SELECT sym, SUM(size) AS n FROM trades GROUP BY sym) g WHERE n > 70")
	if len(res.Rows) != 1 || res.Rows[0][0].(string) != "GOOG" {
		t.Fatalf("filtered groups = %v", res.Rows)
	}
}

func TestOrderByDirectionsAndNulls(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (a bigint)")
	mustExec(t, s, "INSERT INTO t VALUES (2), (NULL), (1)")
	res := mustExec(t, s, "SELECT a FROM t ORDER BY a")
	// PG default: NULLS LAST on ASC
	if res.Rows[0][0].(int64) != 1 || res.Rows[2][0] != nil {
		t.Fatalf("asc order = %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT a FROM t ORDER BY a DESC")
	if res.Rows[0][0] != nil {
		t.Fatalf("desc should put nulls first, got %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT a FROM t ORDER BY a NULLS FIRST")
	if res.Rows[0][0] != nil {
		t.Fatalf("nulls first = %v", res.Rows)
	}
}

func TestLimitOffset(t *testing.T) {
	_, s := newTestDB(t)
	res := mustExec(t, s, "SELECT ts FROM trades ORDER BY ts DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].(int64) != 5 || res.Rows[1][0].(int64) != 4 {
		t.Fatalf("limit = %v", res.Rows)
	}
	mustRefuse(t, s, "SELECT ts FROM trades ORDER BY ts LIMIT 2 OFFSET 1", "42601")
}

func TestJoins(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE a (k bigint, x varchar)")
	mustExec(t, s, "CREATE TABLE b (k bigint, y varchar)")
	mustExec(t, s, "INSERT INTO a VALUES (1,'a1'), (2,'a2'), (3,'a3')")
	mustExec(t, s, "INSERT INTO b VALUES (1,'b1'), (3,'b3'), (3,'b3x')")
	res := mustExec(t, s, "SELECT a.x, b.y, a.k FROM a JOIN b ON a.k = b.k ORDER BY k")
	if len(res.Rows) != 3 {
		t.Fatalf("inner join rows = %d", len(res.Rows))
	}
	res = mustExec(t, s, "SELECT a.x, b.y, a.k FROM a LEFT JOIN b ON a.k = b.k ORDER BY k")
	if len(res.Rows) != 4 {
		t.Fatalf("left join rows = %d", len(res.Rows))
	}
	// unmatched left row has NULL right side
	foundNull := false
	for _, r := range res.Rows {
		if r[0].(string) == "a2" && r[1] == nil {
			foundNull = true
		}
	}
	if !foundNull {
		t.Fatal("left join should pad unmatched with NULL")
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE a (k bigint)")
	mustExec(t, s, "CREATE TABLE b (k bigint)")
	mustExec(t, s, "INSERT INTO a VALUES (NULL)")
	mustExec(t, s, "INSERT INTO b VALUES (NULL)")
	res := mustExec(t, s, "SELECT * FROM a JOIN b ON a.k = b.k")
	if len(res.Rows) != 0 {
		t.Fatal("NULL join keys must not match in SQL")
	}
}

func TestThreeTableJoin(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE a (k bigint)")
	mustExec(t, s, "CREATE TABLE b (k bigint)")
	mustExec(t, s, "CREATE TABLE c (k bigint)")
	mustExec(t, s, "INSERT INTO a VALUES (1), (2)")
	mustExec(t, s, "INSERT INTO b VALUES (1), (2)")
	mustExec(t, s, "INSERT INTO c VALUES (2)")
	res := mustExec(t, s, "SELECT a.k FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k")
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 2 {
		t.Fatalf("3-table join = %v", res.Rows)
	}
}

func TestSubqueryInFrom(t *testing.T) {
	_, s := newTestDB(t)
	res := mustExec(t, s, "SELECT mx FROM (SELECT sym, MAX(price) AS mx FROM trades GROUP BY sym) sub ORDER BY mx")
	if len(res.Rows) != 2 || res.Rows[1][0].(float64) != 151 {
		t.Fatalf("subquery = %v", res.Rows)
	}
}

func TestScalarSubquery(t *testing.T) {
	_, s := newTestDB(t)
	// a subquery is a FROM item only; the translator writes no other
	mustRefuse(t, s, "SELECT sym FROM trades WHERE price > (SELECT AVG(price) FROM trades)", "42601")
	mustRefuse(t, s, "SELECT (SELECT max(price) FROM trades) - price FROM trades", "42601")
}

func TestWindowRowNumber(t *testing.T) {
	_, s := newTestDB(t)
	res := mustExec(t, s, "SELECT sym, ts, ROW_NUMBER() OVER (PARTITION BY sym ORDER BY ts) AS rn FROM trades ORDER BY ts")
	want := map[int64]int64{1: 1, 2: 1, 3: 2, 4: 2, 5: 3}
	for _, r := range res.Rows {
		if r[2].(int64) != want[r[1].(int64)] {
			t.Fatalf("row_number: ts=%v rn=%v", r[1], r[2])
		}
	}
}

func TestWindowAggregates(t *testing.T) {
	_, s := newTestDB(t)
	// ROW_NUMBER is the only window function
	mustRefuse(t, s, "SELECT ts, SUM(size) OVER (PARTITION BY sym ORDER BY ts) AS run FROM trades ORDER BY ts", "42883")
}

func TestWindowLag(t *testing.T) {
	_, s := newTestDB(t)
	mustRefuse(t, s, "SELECT ts, LAG(price) OVER (PARTITION BY sym ORDER BY ts) FROM trades ORDER BY ts", "42883")
}

func TestDistinct(t *testing.T) {
	_, s := newTestDB(t)
	mustRefuse(t, s, "SELECT DISTINCT sym FROM trades ORDER BY sym", "42601")
	res := mustExec(t, s, "SELECT sym FROM trades GROUP BY sym ORDER BY sym")
	if len(res.Rows) != 2 {
		t.Fatalf("distinct groups = %v", res.Rows)
	}
}

func TestUnion(t *testing.T) {
	_, s := newTestDB(t)
	mustRefuse(t, s, "SELECT sym FROM trades UNION SELECT sym FROM trades", "42601")
	res := mustExec(t, s, "SELECT sym FROM trades UNION ALL SELECT sym FROM trades")
	if len(res.Rows) != 10 {
		t.Fatalf("union all = %d", len(res.Rows))
	}
}

func TestCaseExpression(t *testing.T) {
	_, s := newTestDB(t)
	res := mustExec(t, s, "SELECT CASE WHEN price > 120 THEN 'high' ELSE 'low' END AS band, ts FROM trades ORDER BY ts")
	if res.Rows[0][0].(string) != "low" || res.Rows[1][0].(string) != "high" {
		t.Fatalf("case = %v", res.Rows)
	}
}

func TestCastAndConcat(t *testing.T) {
	_, s := newTestDB(t)
	res := mustExec(t, s, "SELECT CAST(price AS bigint), sym || '!' FROM trades WHERE ts = 1")
	if res.Rows[0][0].(int64) != 100 || res.Rows[0][1].(string) != "GOOG!" {
		t.Fatalf("cast/concat = %v", res.Rows[0])
	}
}

func TestTempTableLifecycle(t *testing.T) {
	db, s := newTestDB(t)
	mustExec(t, s, "CREATE TEMPORARY TABLE hq_temp_1 AS SELECT price FROM trades WHERE sym = 'GOOG'")
	res := mustExec(t, s, "SELECT MAX(price) FROM hq_temp_1")
	if res.Rows[0][0].(float64) != 102 {
		t.Fatalf("temp max = %v", res.Rows[0][0])
	}
	// temp table is session-scoped
	s2 := db.NewSession()
	if _, err := s2.Exec("SELECT * FROM hq_temp_1"); err == nil {
		t.Fatal("temp table visible from another session")
	}
	s.Close()
	if _, err := s.Exec("SELECT * FROM hq_temp_1"); err == nil {
		t.Fatal("temp table survived session close")
	}
}

func TestViews(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE VIEW goog AS SELECT * FROM trades WHERE sym = 'GOOG'")
	res := mustExec(t, s, "SELECT COUNT(*) FROM goog")
	if res.Rows[0][0].(int64) != 3 {
		t.Fatalf("view count = %v", res.Rows[0][0])
	}
	// views are logical: new inserts show through
	mustExec(t, s, "INSERT INTO trades VALUES ('GOOG', 6, 103.0, 60)")
	res = mustExec(t, s, "SELECT COUNT(*) FROM goog")
	if res.Rows[0][0].(int64) != 4 {
		t.Fatalf("view after insert = %v", res.Rows[0][0])
	}
	mustExec(t, s, "DROP VIEW goog")
	if _, err := s.Exec("SELECT * FROM goog"); err == nil {
		t.Fatal("dropped view still resolvable")
	}
}

func TestUpdateDelete(t *testing.T) {
	// tables are append-only: UPDATE, DELETE and TRUNCATE are refused and
	// change nothing
	_, s := newTestDB(t)
	mustRefuse(t, s, "UPDATE trades SET price = price * 2 WHERE sym = 'IBM'", "42601")
	mustRefuse(t, s, "DELETE FROM trades WHERE sym = 'GOOG'", "42601")
	mustRefuse(t, s, "TRUNCATE trades", "42601")
	res := mustExec(t, s, "SELECT COUNT(*), SUM(price) FROM trades")
	if res.Rows[0][0].(int64) != 5 || res.Rows[0][1].(float64) != 604 {
		t.Fatalf("table after refusals = %v", res.Rows)
	}
}

// TestCatalogRowOrder: information_schema.columns lists the tables by
// name, each one's columns by ordinal position, a temp table beside the
// permanent one of the same name.
func TestCatalogRowOrder(t *testing.T) {
	s := NewDB().NewSession()
	for _, q := range []string{"CREATE TABLE b (y bigint, x varchar)", "CREATE TABLE a (z double precision)",
		"CREATE TABLE c (w boolean, v bigint, u bigint)", "CREATE TEMPORARY TABLE a (t bigint, r bigint)"} {
		mustExec(t, s, q)
	}
	res := mustExec(t, s, "SELECT table_schema, table_name, column_name, ordinal_position FROM information_schema.columns")
	want := "[[public a z 1] [pg_temp a t 1] [pg_temp a r 2] [public b y 1] [public b x 2] [public c w 1] [public c v 2] [public c u 3]]"
	if got := fmt.Sprint(res.Rows); got != want {
		t.Fatalf("catalog rows %s, want %s", got, want)
	}
}

func TestInformationSchema(t *testing.T) {
	_, s := newTestDB(t)
	res := mustExec(t, s, "SELECT column_name, data_type, ordinal_position FROM information_schema.columns WHERE table_name = 'trades' ORDER BY ordinal_position")
	if len(res.Rows) != 4 {
		t.Fatalf("info schema rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].(string) != "sym" || res.Rows[2][1].(string) != "double precision" {
		t.Fatalf("info schema = %v", res.Rows)
	}
	// columns is the only catalog relation the MDI reads
	mustRefuse(t, s, "SELECT table_name FROM information_schema.tables WHERE table_name = 'trades'", "42P01")
	mustRefuse(t, s, "SELECT tablename FROM pg_catalog.pg_tables", "42P01")
}

func TestErrorsCarrySQLSTATE(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	_, err := s.Exec("SELECT * FROM missing_table")
	if err == nil {
		t.Fatal("missing table should error")
	}
	pe, ok := err.(*Error)
	if !ok || pe.Code != "42P01" {
		t.Fatalf("err = %v", err)
	}
	_, err = s.Exec("SELECT nosuchcol FROM trades")
	if err == nil {
		t.Fatal("missing column should error")
	}
	mustExec(t, s, "CREATE TABLE t (a bigint)")
	_, err = s.Exec("SELECT 1/0 FROM t")
	if err != nil {
		t.Fatal("1/0 over empty table should not evaluate")
	}
	mustExec(t, s, "INSERT INTO t VALUES (1)")
	_, err = s.Exec("SELECT 1/0 FROM t")
	if err == nil || !strings.Contains(err.Error(), "22012") {
		t.Fatalf("division by zero = %v", err)
	}
}

func TestLikePatterns(t *testing.T) {
	_, s := newTestDB(t)
	res := mustExec(t, s, "SELECT sym FROM trades WHERE sym LIKE 'G%' GROUP BY sym")
	if len(res.Rows) != 1 || res.Rows[0][0].(string) != "GOOG" {
		t.Fatalf("like = %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT sym FROM trades WHERE sym LIKE '_BM' GROUP BY sym")
	if len(res.Rows) != 1 || res.Rows[0][0].(string) != "IBM" {
		t.Fatalf("like underscore = %v", res.Rows)
	}
}

func TestInBetween(t *testing.T) {
	_, s := newTestDB(t)
	// q's in arrives as ORed IS NOT DISTINCT FROM; SQL IN lists are refused
	mustRefuse(t, s, "SELECT COUNT(*) FROM trades WHERE ts IN (1, 3, 5)", "42601")
	res := mustExec(t, s, "SELECT COUNT(*) FROM trades WHERE (ts IS NOT DISTINCT FROM 1) OR (ts IS NOT DISTINCT FROM 3) OR (ts IS NOT DISTINCT FROM 5)")
	if res.Rows[0][0].(int64) != 3 {
		t.Fatalf("in = %v", res.Rows[0][0])
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM trades WHERE price BETWEEN 100 AND 102")
	if res.Rows[0][0].(int64) != 3 {
		t.Fatalf("between = %v", res.Rows[0][0])
	}
	mustRefuse(t, s, "SELECT COUNT(*) FROM trades WHERE price NOT BETWEEN 100 AND 102", "42601")
}

func TestFormatParseValuesRoundTrip(t *testing.T) {
	cases := []struct {
		v   any
		typ string
		s   string
	}{
		{int64(42), "bigint", "42"},
		{3.25, "double precision", "3.25"},
		{true, "boolean", "t"},
		{"hello", "varchar", "hello"},
		{int64(8961), "date", "2024-07-14"}, // days since 2000-01-01
		{int64(34200000), "time", "09:30:00.000"},
	}
	for _, c := range cases {
		got := FormatValue(c.v, c.typ)
		if got != c.s {
			t.Errorf("FormatValue(%v, %s) = %q, want %q", c.v, c.typ, got, c.s)
			continue
		}
		back, err := ParseValue(got, c.typ)
		if err != nil {
			t.Errorf("ParseValue(%q, %s): %v", got, c.typ, err)
			continue
		}
		if compareVals(back, c.v) != 0 {
			t.Errorf("round trip %v -> %q -> %v", c.v, got, back)
		}
	}
}

func TestOrderByPosition(t *testing.T) {
	_, s := newTestDB(t)
	res := mustExec(t, s, "SELECT sym, price FROM trades ORDER BY 2 DESC LIMIT 1")
	if res.Rows[0][1].(float64) != 151 {
		t.Fatalf("order by position = %v", res.Rows[0])
	}
}

func TestExecScript(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	results, err := s.ExecScript("CREATE TABLE x (a bigint); INSERT INTO x VALUES (1),(2); SELECT COUNT(*) FROM x")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[2].Rows[0][0].(int64) != 2 {
		t.Fatalf("script results = %v", results)
	}
}

func TestCrossJoinCommaFrom(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE a (x bigint)")
	mustExec(t, s, "CREATE TABLE b (y bigint)")
	mustExec(t, s, "INSERT INTO a VALUES (1),(2)")
	mustExec(t, s, "INSERT INTO b VALUES (10),(20)")
	// the translator joins only on keys: no comma FROM, no CROSS JOIN
	mustRefuse(t, s, "SELECT x, y FROM a, b", "42601")
	mustRefuse(t, s, "SELECT x, y FROM a CROSS JOIN b", "42601")
}

// TestParseExecMode pins qdiff's -exec values: each engine's name parses to
// it and back, and anything else — including the retired "vectorized" and
// case variants — is rejected.
func TestParseExecMode(t *testing.T) {
	for name, m := range map[string]ExecMode{"compiled": ExecCompiled, "interpreted": ExecInterpreted} {
		got, err := ParseExecMode(name)
		if err != nil || got != m || m.String() != name {
			t.Errorf("ParseExecMode(%q) = %v, %v", name, got, err)
		}
	}
	for _, bad := range []string{"", "bogus", "vectorized", "Compiled", " compiled"} {
		if _, err := ParseExecMode(bad); err == nil {
			t.Errorf("ParseExecMode(%q) accepted", bad)
		}
	}
}
