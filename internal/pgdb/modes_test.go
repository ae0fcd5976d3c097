package pgdb

import (
	"reflect"
	"testing"

	"hyperq/internal/pgdb/sqlparse"
)

// execBothModes runs one statement on two identical databases, one per
// execution engine, and returns both outcomes.
func execBothModes(t *testing.T, setup []string, sql string) (comp, interp *Result, compErr, interpErr error) {
	t.Helper()
	run := func(mode ExecMode) (*Result, error) {
		db := NewDB()
		db.SetExecMode(mode)
		s := db.NewSession()
		for _, stmt := range setup {
			if _, err := s.Exec(stmt); err != nil {
				t.Fatalf("setup %q under mode %d: %v", stmt, mode, err)
			}
		}
		return s.Exec(sql)
	}
	comp, compErr = run(ExecCompiled)
	interp, interpErr = run(ExecInterpreted)
	return
}

// requireModeParity asserts the compiled and interpreted engines produce
// identical results (or identical errors) for one statement.
func requireModeParity(t *testing.T, setup []string, sql string) *Result {
	t.Helper()
	comp, interp, compErr, interpErr := execBothModes(t, setup, sql)
	if (compErr == nil) != (interpErr == nil) {
		t.Fatalf("%s:\n  compiled err:    %v\n  interpreted err: %v", sql, compErr, interpErr)
	}
	if compErr != nil {
		if compErr.Error() != interpErr.Error() {
			t.Fatalf("%s: error text diverges:\n  compiled:    %v\n  interpreted: %v", sql, compErr, interpErr)
		}
		return nil
	}
	if !reflect.DeepEqual(comp.Cols, interp.Cols) {
		t.Fatalf("%s: column divergence:\n  compiled:    %+v\n  interpreted: %+v", sql, comp.Cols, interp.Cols)
	}
	if len(comp.Rows) != len(interp.Rows) {
		t.Fatalf("%s: row count %d vs %d", sql, len(comp.Rows), len(interp.Rows))
	}
	for i := range comp.Rows {
		if !reflect.DeepEqual(comp.Rows[i], interp.Rows[i]) {
			t.Fatalf("%s: row %d divergence:\n  compiled:    %v\n  interpreted: %v", sql, i, comp.Rows[i], interp.Rows[i])
		}
	}
	return comp
}

var paritySetup = []string{
	"CREATE TABLE t (sym varchar, price double precision, size bigint, flag boolean)",
	`INSERT INTO t VALUES
		('GOOG', 100.5, 10, true),
		('IBM',  NULL,  20, false),
		('GOOG', 101.5, NULL, NULL),
		(NULL,   150.0, 40, true),
		('MSFT', 150.0, 10, false)`,
}

// TestCompiledNullSafeComparisons covers the null-safe forms the Xformer
// emits (IS [NOT] DISTINCT FROM) plus plain 3VL comparisons, on both
// engines.
func TestCompiledNullSafeComparisons(t *testing.T) {
	queries := []string{
		"SELECT * FROM t WHERE sym IS NOT DISTINCT FROM NULL",
		"SELECT * FROM t WHERE price IS DISTINCT FROM 150.0",
		"SELECT * FROM t WHERE price IS NOT DISTINCT FROM NULL",
		"SELECT * FROM t WHERE sym = NULL",
		"SELECT sym, price IS NULL, size IS NOT NULL FROM t",
		"SELECT * FROM t WHERE NOT (price > 100.0)",
		"SELECT * FROM t WHERE price > 100.0 AND size < 30",
		"SELECT * FROM t WHERE price > 100.0 OR flag",
		"SELECT * FROM t WHERE (size IS NOT DISTINCT FROM 10) OR (size IS NOT DISTINCT FROM NULL)",
		"SELECT * FROM t WHERE price BETWEEN 100.0 AND 150.0",
	}
	for _, q := range queries {
		requireModeParity(t, paritySetup, q)
	}
	// null-safe equality keeps the NULL-keyed row; plain equality drops it
	res := requireModeParity(t, paritySetup, "SELECT count(*) FROM t WHERE sym IS NOT DISTINCT FROM NULL")
	if res.Rows[0][0].(int64) != 1 {
		t.Fatalf("IS NOT DISTINCT FROM NULL matched %v rows", res.Rows[0][0])
	}
	res = requireModeParity(t, paritySetup, "SELECT count(*) FROM t WHERE sym = NULL")
	if res.Rows[0][0].(int64) != 0 {
		t.Fatalf("= NULL matched %v rows", res.Rows[0][0])
	}
}

// TestCompiledConstantFolding checks that the planner folds row-independent
// expressions without changing semantics — in particular that erroring
// constants stay lazy: over an empty input the error must not surface, over
// a non-empty input it must.
func TestCompiledConstantFolding(t *testing.T) {
	if v, ok := vecConstOf(parseExprOrDie(t, "1 + 2 * 3")); !ok || v != int64(7) {
		t.Fatalf("1+2*3 folded to %v, %v", v, ok)
	}
	// a folding failure must stay lazy, not raise at plan time: the
	// expression does not fold, and the walker errors per evaluation
	if v, ok := vecConstOf(parseExprOrDie(t, "1 / 0")); ok {
		t.Fatalf("1/0 folded to %v instead of staying lazy", v)
	}
	setup := []string{"CREATE TABLE e (a bigint)"}
	res := requireModeParity(t, setup, "SELECT a / 0 FROM e")
	if len(res.Rows) != 0 {
		t.Fatalf("division over empty table returned rows")
	}
	requireModeParity(t, setup, "SELECT 1 / 0 FROM e") // no error: zero rows
	withRow := append(setup, "INSERT INTO e VALUES (1)")
	_, _, compErr, _ := execBothModes(t, withRow, "SELECT 1 / 0 FROM e")
	if compErr == nil {
		t.Fatalf("1/0 over a row did not error")
	}
	requireModeParity(t, withRow, "SELECT 1 / 0 FROM e") // identical error both engines
}

// TestCompiledTypeWidening verifies the static inference plus refineStoreTypes
// promotion behaves identically across engines: integer columns that hold
// float values widen to double precision.
func TestCompiledTypeWidening(t *testing.T) {
	setup := []string{
		"CREATE TABLE w (i bigint, f double precision)",
		"INSERT INTO w VALUES (1, 0.5), (2, 1.5)",
	}
	cases := []struct {
		sql     string
		wantTyp string
	}{
		{"SELECT i + 1 FROM w", "bigint"},
		{"SELECT i + 0.5 FROM w", "double precision"},
		{"SELECT i / 2 FROM w", "double precision"}, // "/" is statically double
		{"SELECT f * i FROM w", "double precision"},
		{"SELECT least(i, 0.5) FROM w", "double precision"},
		{"SELECT greatest(i, f) FROM w", "double precision"},
		{"SELECT coalesce(NULL, f, i) FROM w", "double precision"},
		{"SELECT sum(i) FROM w", "bigint"},
		{"SELECT avg(i) FROM w", "double precision"},
	}
	for _, c := range cases {
		res := requireModeParity(t, setup, c.sql)
		if res.Cols[0].Type != c.wantTyp {
			t.Errorf("%s: type = %q, want %q", c.sql, res.Cols[0].Type, c.wantTyp)
		}
	}
}

// TestHashJoinNestedLoopParity compares the hash-join path (col = col /
// IS NOT DISTINCT FROM conjuncts) against the nested-loop fallback on the
// same data, including duplicate keys and NULL join keys, for inner and
// left joins — on both engines.
func TestHashJoinNestedLoopParity(t *testing.T) {
	setup := []string{
		"CREATE TABLE l (k bigint, lv varchar)",
		"CREATE TABLE r (k bigint, rv varchar)",
		// duplicate keys on both sides, NULL keys on both sides
		`INSERT INTO l VALUES (1, 'a'), (1, 'b'), (2, 'c'), (NULL, 'd'), (4, 'e')`,
		`INSERT INTO r VALUES (1, 'x'), (1, 'y'), (3, 'z'), (NULL, 'w'), (NULL, 'v')`,
	}
	// l.k + 0 = r.k is not col=col, so extractHashKeys rejects it and the
	// nested loop runs; the result must match the hash path of l.k = r.k
	pairs := []struct{ hash, nested string }{
		{
			"SELECT lv, rv FROM l JOIN r ON l.k = r.k",
			"SELECT lv, rv FROM l JOIN r ON l.k + 0 = r.k",
		},
		{
			"SELECT lv, rv FROM l LEFT JOIN r ON l.k = r.k",
			"SELECT lv, rv FROM l LEFT JOIN r ON l.k + 0 = r.k",
		},
		{
			"SELECT lv, rv FROM l JOIN r ON l.k IS NOT DISTINCT FROM r.k",
			"SELECT lv, rv FROM l JOIN r ON (l.k IS NOT DISTINCT FROM r.k) OR FALSE",
		},
		{
			"SELECT lv, rv FROM l LEFT JOIN r ON l.k IS NOT DISTINCT FROM r.k",
			"SELECT lv, rv FROM l LEFT JOIN r ON (l.k IS NOT DISTINCT FROM r.k) OR FALSE",
		},
	}
	for _, p := range pairs {
		hres := requireModeParity(t, setup, p.hash)
		nres := requireModeParity(t, setup, p.nested)
		if !reflect.DeepEqual(hres.Rows, nres.Rows) {
			t.Errorf("hash vs nested loop divergence:\n  %s -> %v\n  %s -> %v",
				p.hash, hres.Rows, p.nested, nres.Rows)
		}
	}
	// NULL keys never match under plain equality but do under null-safe
	nullSafe := requireModeParity(t, setup,
		"SELECT count(*) FROM l JOIN r ON l.k IS NOT DISTINCT FROM r.k")
	plain := requireModeParity(t, setup,
		"SELECT count(*) FROM l JOIN r ON l.k = r.k")
	// 1x1 dups: 2*2=4 matches; null-safe adds 1 left NULL x 2 right NULLs
	if plain.Rows[0][0].(int64) != 4 || nullSafe.Rows[0][0].(int64) != 6 {
		t.Errorf("join counts: plain=%v nullSafe=%v, want 4 and 6",
			plain.Rows[0][0], nullSafe.Rows[0][0])
	}
}

// TestCompiledEngineBattery runs a battery of query shapes through both
// engines and requires identical results — the DB-level complement of the
// qdiff corpus replay in internal/sidebyside.
func TestCompiledEngineBattery(t *testing.T) {
	queries := []string{
		"SELECT sym, price, size FROM t ORDER BY sym, price",
		"SELECT sym, count(*), sum(size), avg(price), min(price), max(price) FROM t GROUP BY sym",
		"SELECT coalesce(sum(size), 0) FROM t WHERE price > 1000.0",
		"SELECT CASE WHEN price > 120.0 THEN 'hi' WHEN price > 100.0 THEN 'mid' ELSE 'lo' END FROM t",
		"SELECT CASE WHEN sym = 'GOOG' THEN 1 WHEN sym = 'IBM' THEN 2 ELSE 0 END FROM t",
		"SELECT upper(sym), lower(sym) FROM t",
		"SELECT CAST(price AS bigint), CAST(size AS double precision) FROM t",
		"SELECT sym || '_x' FROM t",
		"SELECT * FROM t WHERE sym LIKE 'G%'",
		"SELECT price, row_number() OVER (PARTITION BY sym ORDER BY price) FROM t",
		"SELECT abs(0.0 - price), floor(price), ceil(price), sqrt(price), exp(size), ln(price) FROM t",
		"SELECT sum(price * size) / nullif(sum(size), 0) FROM t",
		"SELECT stddev_pop(price), var_pop(price), median(price) FROM t",
		"SELECT first(price), last(price) FROM t",
		"SELECT CAST(2 * floor(CAST(size AS double precision) / 2) AS bigint) AS b, count(*), median(price) FROM t GROUP BY CAST(2 * floor(CAST(size AS double precision) / 2) AS bigint)",
		"SELECT row_number() OVER () + 1 FROM t", // a window only as a whole item
		"SELECT sym, sum(size) FROM t GROUP BY sym ORDER BY 2 DESC LIMIT 2",
		"SELECT * FROM t WHERE price > 100.0 UNION ALL SELECT * FROM t WHERE price <= 100.0",
		"SELECT CASE WHEN count(*) > 0 THEN sum(size) ELSE 0 END FROM t",
		"SELECT -price, NOT flag FROM t",
	}
	for _, q := range queries {
		requireModeParity(t, paritySetup, q)
	}
}

// TestCompiledDMLParity exercises INSERT's VALUES expressions, the only DML,
// on both engines: each row's values evaluate and coerce to the column
// types the same way.
func TestCompiledDMLParity(t *testing.T) {
	setup := append(append([]string{}, paritySetup...),
		"INSERT INTO t VALUES ('X' || 'Y', 1.5 * 2, 3 + 4, NOT TRUE), (NULL, -1, 2.0, NULL)",
		"INSERT INTO t VALUES (CAST(1 AS varchar), '1.5'::double precision, CASE WHEN 1 > 0 THEN 9 END, 1 = 1)",
	)
	res := requireModeParity(t, setup, "SELECT sym, price, size, flag FROM t ORDER BY sym, size")
	if len(res.Rows) != 8 {
		t.Fatalf("rows after INSERT = %d, want 8", len(res.Rows))
	}
}

// TestCompiledPurity pins which expressions the planner may fold to a
// constant without a row (vecConstOf): those with no column reference whose
// walk succeeds. A column, a window call and an erroring expression stay
// unfolded.
func TestCompiledPurity(t *testing.T) {
	for src, want := range map[string]any{
		"1 + 2 * 3": int64(7), "abs(-2)": int64(2), "-1.5": -1.5, "NULL": nil,
		"CASE WHEN 1 > 0 THEN 'p' ELSE 'n' END": "p", "'NaN'::double precision IS NULL": false,
		"2 * floor(7 / 2.0)": 6.0, "CAST('12:00:00.000' AS time)": int64(43200000),
	} {
		if v, ok := vecConstOf(parseExprOrDie(t, src)); !ok || !reflect.DeepEqual(v, want) {
			t.Errorf("%q folded to %v, %v; want %v", src, v, ok, want)
		}
	}
	for _, src := range []string{"a + 1", "a IS NOT DISTINCT FROM 3", "abs(a)", "1 / 0",
		"ROW_NUMBER() OVER ()", "1 + ROW_NUMBER() OVER ()", "$1", "sum(1)"} {
		if v, ok := vecConstOf(parseExprOrDie(t, src)); ok {
			t.Errorf("%q folded to %v", src, v)
		}
	}
}

// parseExprOrDie parses the first select item of SELECT <src>.
func parseExprOrDie(t *testing.T, src string) sqlparse.Expr {
	t.Helper()
	stmt, err := sqlparse.Parse("SELECT " + src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return stmt.(*sqlparse.SelectStmt).Items[0].Expr
}
