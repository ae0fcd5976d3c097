package pgdb

import (
	"strings"
	"testing"
)

func TestWindowRankAndDenseRank(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (g varchar, v bigint)")
	mustExec(t, s, "INSERT INTO t VALUES ('a',1),('a',1),('a',2),('b',5)")
	mustRefuse(t, s, "SELECT g, v, RANK() OVER (PARTITION BY g ORDER BY v) r FROM t ORDER BY g, v", "42883")
	mustRefuse(t, s, "SELECT g, v, DENSE_RANK() OVER (PARTITION BY g ORDER BY v) d FROM t ORDER BY g, v", "42883")
	// ROW_NUMBER numbers ties in input order
	res := mustExec(t, s, "SELECT g, v, ROW_NUMBER() OVER (PARTITION BY g ORDER BY v DESC) r FROM t")
	want := []int64{2, 3, 1, 1}
	for i, r := range res.Rows {
		if r[2].(int64) != want[i] {
			t.Fatalf("row_number = %v, want %v", res.Rows, want)
		}
	}
}

func TestWindowLeadAndFirstValue(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (i bigint, v bigint)")
	mustExec(t, s, "INSERT INTO t VALUES (1,10),(2,20),(3,30)")
	mustRefuse(t, s, "SELECT i, LEAD(v) OVER (ORDER BY i) FROM t ORDER BY i", "42883")
	mustRefuse(t, s, "SELECT i, FIRST_VALUE(v) OVER (ORDER BY i) FROM t ORDER BY i", "42883")
}

func TestCaseWithOperand(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (x bigint)")
	mustExec(t, s, "INSERT INTO t VALUES (1),(2),(3)")
	// only the searched CASE parses; the translator writes no other
	mustRefuse(t, s, "SELECT CASE x WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'many' END FROM t ORDER BY x", "42601")
	res := mustExec(t, s, "SELECT CASE WHEN x = 1 THEN 'one' WHEN x = 2 THEN 'two' ELSE 'many' END, x FROM t ORDER BY x")
	if res.Rows[0][0].(string) != "one" || res.Rows[2][0].(string) != "many" {
		t.Fatalf("searched case = %v", res.Rows)
	}
}

func TestRightAndFullJoin(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE a (k bigint)")
	mustExec(t, s, "CREATE TABLE b (k bigint)")
	mustExec(t, s, "INSERT INTO a VALUES (1),(2)")
	mustExec(t, s, "INSERT INTO b VALUES (2),(3)")
	// RIGHT and FULL stay reserved: neither reads as an alias of a
	mustRefuse(t, s, "SELECT a.k, b.k FROM a RIGHT JOIN b ON a.k = b.k", "42601")
	mustRefuse(t, s, "SELECT a.k, b.k FROM a FULL JOIN b ON a.k = b.k", "42601")
	res := mustExec(t, s, "SELECT a.k, b.k FROM a LEFT JOIN b ON a.k = b.k")
	if len(res.Rows) != 2 || res.Rows[0][1] != nil || res.Rows[1][1].(int64) != 2 {
		t.Fatalf("left join rows = %v", res.Rows)
	}
}

func TestGreatestLeastNullif(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (a bigint, b bigint)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 5)")
	res := mustExec(t, s, "SELECT GREATEST(a, b), LEAST(a, b), NULLIF(a, 1), NULLIF(a, 2) FROM t")
	r := res.Rows[0]
	if r[0].(int64) != 5 || r[1].(int64) != 1 || r[2] != nil || r[3].(int64) != 1 {
		t.Fatalf("row = %v", r)
	}
}

func TestStringFunctions(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (s varchar)")
	mustExec(t, s, "INSERT INTO t VALUES ('  Hello ')")
	res := mustExec(t, s, "SELECT UPPER(s), LOWER(s) FROM t")
	r := res.Rows[0]
	if r[0].(string) != "  HELLO " || r[1].(string) != "  hello " {
		t.Fatalf("strings = %v", r)
	}
	for _, fn := range []string{"TRIM(s)", "LENGTH(s)", "SUBSTRING(s, 3, 5)"} {
		mustRefuse(t, s, "SELECT "+fn+" FROM t", "42883")
	}
}

func TestStddevVariance(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (x double precision)")
	mustExec(t, s, "INSERT INTO t VALUES (2),(4),(4),(4),(5),(5),(7),(9)")
	res := mustExec(t, s, "SELECT STDDEV_POP(x), VAR_POP(x) FROM t")
	if got := res.Rows[0][0].(float64); got < 1.99 || got > 2.01 {
		t.Fatalf("stddev_pop = %v", got)
	}
	if got := res.Rows[0][1].(float64); got < 3.99 || got > 4.01 {
		t.Fatalf("var_pop = %v", got)
	}
}

func TestCountDistinct(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (x bigint)")
	mustExec(t, s, "INSERT INTO t VALUES (1),(1),(2),(NULL)")
	mustRefuse(t, s, "SELECT COUNT(DISTINCT x) FROM t", "42601")
	// the translator's count is COUNT(*) over the group, nulls included
	res := mustExec(t, s, "SELECT COUNT(*) FROM (SELECT x FROM t GROUP BY x) g")
	if res.Rows[0][0].(int64) != 3 {
		t.Fatalf("distinct groups = %v", res.Rows[0][0])
	}
}

func TestFirstLastToolboxAggregates(t *testing.T) {
	// the Hyper-Q toolbox extensions are positional and do not skip NULLs
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (g varchar, v bigint)")
	mustExec(t, s, "INSERT INTO t VALUES ('a', NULL),('a',2),('b',3)")
	res := mustExec(t, s, "SELECT g, FIRST(v), LAST(v) FROM t GROUP BY g ORDER BY g")
	if res.Rows[0][1] != nil { // first 'a' value is NULL
		t.Fatalf("first = %v", res.Rows[0][1])
	}
	if res.Rows[0][2].(int64) != 2 || res.Rows[1][2].(int64) != 3 {
		t.Fatalf("last = %v", res.Rows)
	}
}

func TestMedianToolboxAggregate(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (v bigint)")
	mustExec(t, s, "INSERT INTO t VALUES (1),(3),(2),(10)")
	res := mustExec(t, s, "SELECT MEDIAN(v) FROM t")
	if res.Rows[0][0].(float64) != 2.5 {
		t.Fatalf("median = %v", res.Rows[0][0])
	}
}

func TestInsertSelect(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE src (x bigint)")
	mustExec(t, s, "CREATE TABLE dst (x bigint)")
	mustExec(t, s, "INSERT INTO src VALUES (1),(2),(3)")
	// rows arrive as VALUES; a derived table is a CTAS
	mustRefuse(t, s, "INSERT INTO dst SELECT x FROM src WHERE x > 1", "42601")
	mustRefuse(t, s, "INSERT INTO dst (x) VALUES (1)", "42601")
	mustExec(t, s, "CREATE TABLE big AS SELECT x FROM src WHERE x > 1")
	if res := mustExec(t, s, "SELECT COUNT(*) FROM big"); res.Rows[0][0].(int64) != 2 {
		t.Fatalf("ctas rows = %v", res.Rows[0][0])
	}
}

func TestAsOfFusedPathMatchesNaive(t *testing.T) {
	// the rank-filter pushdown must be semantically invisible: compare its
	// output against the generic plan (window over the full join) by
	// perturbing the pattern so the fast path does not fire
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE l (ordcol bigint, sym varchar, t bigint)`)
	mustExec(t, s, `CREATE TABLE r (sym varchar, t bigint, v bigint)`)
	mustExec(t, s, `INSERT INTO l VALUES (0,'a',10),(1,'a',20),(2,'b',15),(3,'c',5)`)
	mustExec(t, s, `INSERT INTO r VALUES ('a',5,100),('a',15,101),('b',15,200),('b',16,201),('c',9,300)`)
	fused := `SELECT sym, t, v, ordcol FROM (
		SELECT a.ordcol, a.sym, a.t, b.v,
		       ROW_NUMBER() OVER (PARTITION BY a.ordcol ORDER BY b.t DESC) AS hq_rn
		FROM (SELECT ordcol, sym, t FROM l) a
		LEFT JOIN (SELECT sym, t, v FROM r) b
		  ON a.sym IS NOT DISTINCT FROM b.sym AND b.t <= a.t
	) x WHERE hq_rn = 1 ORDER BY ordcol`
	// same query with rn = 1 spelled as 1 = rn... would not match the
	// pattern; instead force the naive path via an extra filter level
	naive := `SELECT sym, t, v, ordcol FROM (
		SELECT * FROM (
			SELECT a.ordcol, a.sym, a.t, b.v,
			       ROW_NUMBER() OVER (PARTITION BY a.ordcol ORDER BY b.t DESC) AS hq_rn
			FROM (SELECT ordcol, sym, t FROM l) a
			LEFT JOIN (SELECT sym, t, v FROM r) b
			  ON a.sym IS NOT DISTINCT FROM b.sym AND b.t <= a.t
		) y WHERE hq_rn >= 1
	) x WHERE hq_rn = 1 ORDER BY ordcol`
	rf := mustExec(t, s, fused)
	rn := mustExec(t, s, naive)
	if len(rf.Rows) != len(rn.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(rf.Rows), len(rn.Rows))
	}
	for i := range rf.Rows {
		a := keyString(rf.Rows[i])
		b := keyString(rn.Rows[i])
		if a != b {
			t.Fatalf("row %d differs: %v vs %v", i, rf.Rows[i], rn.Rows[i])
		}
	}
	// expected values: l@10->r@5(100), l@20->r@15(101), b@15->r@15(200), c@5->none
	if rf.Rows[3][2] != nil {
		t.Fatalf("unmatched row should be NULL: %v", rf.Rows[3])
	}
	if rf.Rows[1][2].(int64) != 101 || rf.Rows[2][2].(int64) != 200 {
		t.Fatalf("fused values = %v", rf.Rows)
	}
}

func TestViewsRecursionDepthSafe(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE base (x bigint)")
	mustExec(t, s, "INSERT INTO base VALUES (1)")
	mustExec(t, s, "CREATE VIEW v1 AS SELECT x FROM base")
	mustExec(t, s, "CREATE VIEW v2 AS SELECT x FROM v1")
	res := mustExec(t, s, "SELECT x FROM v2")
	if len(res.Rows) != 1 {
		t.Fatalf("stacked views = %v", res.Rows)
	}
}

func TestBooleanColumnRendering(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (b boolean)")
	mustExec(t, s, "INSERT INTO t VALUES (TRUE),(FALSE),(NULL)")
	res := mustExec(t, s, "SELECT b FROM t WHERE b")
	if len(res.Rows) != 1 {
		t.Fatalf("where b = %v", res.Rows)
	}
	if got := FormatValue(true, "boolean"); got != "t" {
		t.Fatalf("bool format = %q", got)
	}
}

func TestConcurrentSessions(t *testing.T) {
	db := NewDB()
	s0 := db.NewSession()
	mustExec(t, s0, "CREATE TABLE shared (x bigint)")
	mustExec(t, s0, "INSERT INTO shared VALUES (1)")
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			s := db.NewSession()
			defer s.Close()
			for j := 0; j < 25; j++ {
				if _, err := s.Exec("SELECT COUNT(*) FROM shared"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestHavingWithoutGroupBy(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (x bigint)")
	mustExec(t, s, "INSERT INTO t VALUES (1),(2)")
	mustRefuse(t, s, "SELECT SUM(x) FROM t HAVING SUM(x) > 10", "42601")
}

func TestErrorMessagesAreInformative(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	_, err := s.Exec("SELECT x FROM nope")
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("error should name the relation: %v", err)
	}
}
