package pgdb

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"hyperq/internal/pgdb/sqlparse"
)

// requireVecParity runs one statement on two identical databases — one per
// execution engine — and asserts the compiled engine, vector paths and all,
// agrees with the interpreter oracle on results, errors, and error text.
// mkdb builds a fresh database per engine (bulk-loaded data included, so NaN
// and mixed-type cells the SQL grammar cannot express are covered).
func requireVecParity(t *testing.T, mkdb func(t *testing.T) *DB, sql string) *Result {
	t.Helper()
	run := func(mode ExecMode) (*Result, error) {
		db := mkdb(t)
		db.SetExecMode(mode)
		return db.NewSession().Exec(sql)
	}
	vec, vecErr := run(ExecCompiled)
	interp, interpErr := run(ExecInterpreted)
	if (vecErr == nil) != (interpErr == nil) {
		t.Fatalf("%s:\n  compiled err: %v\n  interpreted err: %v", sql, vecErr, interpErr)
	}
	if vecErr != nil {
		if vecErr.Error() != interpErr.Error() {
			t.Fatalf("%s: error text diverges:\n  compiled: %v\n  interpreted: %v", sql, vecErr, interpErr)
		}
		return nil
	}
	if !reflect.DeepEqual(vec.Cols, interp.Cols) {
		t.Fatalf("%s: column divergence:\n  compiled: %+v\n  oracle:   %+v", sql, vec.Cols, interp.Cols)
	}
	if len(vec.Rows) != len(interp.Rows) {
		t.Fatalf("%s: row count %d (compiled) vs %d (interpreted)", sql, len(vec.Rows), len(interp.Rows))
	}
	for i := range vec.Rows {
		if !rowsEqualNaN(vec.Rows[i], interp.Rows[i]) {
			t.Fatalf("%s: row %d divergence:\n  compiled: %v\n  oracle:   %v", sql, i, vec.Rows[i], interp.Rows[i])
		}
	}
	return vec
}

// rowsEqualNaN is reflect.DeepEqual with NaN == NaN, which DeepEqual (like
// IEEE) rejects; the engines treat NaN as a self-equal value.
func rowsEqualNaN(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		af, aok := a[i].(float64)
		bf, bok := b[i].(float64)
		if aok && bok {
			if math.IsNaN(af) && math.IsNaN(bf) {
				continue
			}
			if math.Float64bits(af) != math.Float64bits(bf) {
				return false
			}
			continue
		}
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// mkSegDB bulk-loads n deterministic rows into an ordered-ish table: ts is
// strictly increasing (zone maps prune hard on it), price cycles with ~1/50
// NULLs, cat has 7 distinct values, flag is a three-state boolean column.
func mkSegDB(n int) func(t *testing.T) *DB {
	return func(t *testing.T) *DB {
		t.Helper()
		db := NewDB()
		db.CreateTable("seg", []Column{
			{Name: "ts", Type: "bigint"},
			{Name: "price", Type: "double precision"},
			{Name: "cat", Type: "varchar"},
			{Name: "flag", Type: "boolean"},
		})
		rows := make([][]any, n)
		for i := 0; i < n; i++ {
			var price any = float64(i%1000) + 0.25
			if i%50 == 7 {
				price = nil
			}
			var flag any
			switch i % 3 {
			case 0:
				flag = true
			case 1:
				flag = false
			}
			rows[i] = []any{int64(i), price, fmt.Sprintf("c%d", i%7), flag}
		}
		if err := db.InsertRows("seg", rows); err != nil {
			t.Fatal(err)
		}
		return db
	}
}

// TestVecSegmentBoundaries drives filters and aggregates over tables sized
// exactly at, just under, and just over segment edges, with predicates whose
// match ranges straddle those edges.
func TestVecSegmentBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, segSize - 1, segSize, segSize + 1, 2*segSize + 17} {
		mk := mkSegDB(n)
		queries := []string{
			"SELECT count(*) FROM seg",
			"SELECT * FROM seg WHERE ts >= 4090 AND ts < 4100",
			fmt.Sprintf("SELECT * FROM seg WHERE ts = %d", segSize),
			fmt.Sprintf("SELECT * FROM seg WHERE ts = %d", segSize-1),
			"SELECT * FROM seg WHERE ts BETWEEN 4000 AND 4200",
			"SELECT cat, count(*), sum(ts), min(price), max(price) FROM seg GROUP BY cat",
			"SELECT count(*), avg(price), first(cat), last(cat) FROM seg WHERE ts > 100",
			"SELECT * FROM seg WHERE price IS NULL",
			"SELECT count(price) FROM seg WHERE flag",
		}
		for _, q := range queries {
			t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
				requireVecParity(t, mk, q)
			})
		}
	}
}

// TestVecZonePruning checks zone-map skip and fill-all verdicts give exact
// results: out-of-range literals (whole-table skip), one-segment ranges, and
// predicates every row passes (bitmap fill without scanning).
func TestVecZonePruning(t *testing.T) {
	mk := mkSegDB(2*segSize + 100)
	for _, q := range []string{
		"SELECT count(*) FROM seg WHERE ts > 9000000",      // above global max: all segments skip
		"SELECT count(*) FROM seg WHERE ts < 0",            // below global min
		"SELECT count(*) FROM seg WHERE ts >= 0",           // all-true fill
		"SELECT * FROM seg WHERE ts = 5000",                // single segment survives pruning
		"SELECT * FROM seg WHERE ts <> 5000 AND ts > 8250", // <> plus range
		"SELECT count(*) FROM seg WHERE ts = 1 OR ts = 4096 OR ts = 8191 OR ts = 999999",
		"SELECT count(*) FROM seg WHERE price > 999999.0",        // nullable column: no all-true fill
		"SELECT sum(ts) FROM seg WHERE ts BETWEEN 4000 AND 4100", // fused over pruned scan
		// row-at-a-time consumers of a pruned scan box only the columns they
		// read: window inputs outside the select list
		"SELECT ts, price FROM seg WHERE ts BETWEEN 4000 AND 4300 ORDER BY price DESC, ts",
		"SELECT cat, ROW_NUMBER() OVER (PARTITION BY cat ORDER BY price DESC, ts) FROM seg WHERE ts > 8000",
		"SELECT cat, max(price) FROM seg WHERE ts > 8000 GROUP BY cat ORDER BY cat",
	} {
		requireVecParity(t, mk, q)
	}
}

// TestVecPredicateLowering covers every lowered leaf shape plus shapes that
// must fall back, each against both engines.
func TestVecPredicateLowering(t *testing.T) {
	mk := mkSegDB(500)
	for _, q := range []string{
		"SELECT count(*) FROM seg WHERE ts = 250",
		"SELECT count(*) FROM seg WHERE 250 > ts", // constant on the left: op flips
		"SELECT count(*) FROM seg WHERE ts <> 250",
		"SELECT count(*) FROM seg WHERE price <= 10.25",
		"SELECT count(*) FROM seg WHERE price >= 999.25",
		"SELECT count(*) FROM seg WHERE cat = 'c3'",
		"SELECT count(*) FROM seg WHERE cat > 'c5'",
		"SELECT count(*) FROM seg WHERE cat = 3",      // mixed-type comparison: constant verdict
		"SELECT count(*) FROM seg WHERE price = NULL", // NULL comparand: empty
		"SELECT count(*) FROM seg WHERE flag",         // bare boolean column
		"SELECT count(*) FROM seg WHERE flag = true",
		"SELECT count(*) FROM seg WHERE flag IS NULL",
		"SELECT count(*) FROM seg WHERE price IS NOT NULL",
		"SELECT count(*) FROM seg WHERE ts BETWEEN 100 AND 200",
		"SELECT count(*) FROM seg WHERE ts BETWEEN 200 AND 100",  // empty range
		"SELECT count(*) FROM seg WHERE ts BETWEEN NULL AND 200", // NULL bound
		"SELECT count(*) FROM seg WHERE ts > 100 AND (price < 50.0 OR cat = 'c2')",
		"SELECT count(*) FROM seg WHERE true",
		"SELECT count(*) FROM seg WHERE false",
		"SELECT count(*) FROM seg WHERE NULL",
		"SELECT count(*) FROM seg WHERE ts > -5",
		"SELECT count(*) FROM seg WHERE price > 10.0 + 5.0", // folded constant arithmetic
		// searched CASE: arm order, NULL conditions falling through, no ELSE,
		// constant conditions and null guards folded away or kept
		"SELECT count(*) FROM seg WHERE CASE WHEN flag THEN ts > 100 WHEN price IS NULL THEN TRUE ELSE cat = 'c1' END",
		"SELECT count(*) FROM seg WHERE CASE WHEN ts < 10 THEN NULL ELSE flag END",
		"SELECT count(*) FROM seg WHERE CASE WHEN price > 500.0 THEN TRUE END",
		"SELECT count(*) FROM seg WHERE CASE WHEN NULL IS NULL THEN price IS NULL END",
		"SELECT count(*) FROM seg WHERE CASE WHEN 5 IS NOT NULL THEN ts > 400 ELSE FALSE END",
		"SELECT count(*) FROM seg WHERE CASE WHEN price IS NULL THEN FALSE ELSE price > 100.0 END",
		"SELECT count(*) FROM seg WHERE CASE WHEN price IS NULL THEN FALSE ELSE flag END",
		"SELECT count(*) FROM seg WHERE CASE WHEN price IS NULL THEN FALSE WHEN ts > 300 THEN price IS NULL ELSE price < 9.0 END",
		"SELECT count(*) FROM seg WHERE CASE WHEN flag IS NULL THEN FALSE WHEN price IS NULL THEN FALSE ELSE ts < 250 END",
		// NOT over nullable operands, comparisons of two kernels, IS NULL of
		// a kernel
		"SELECT count(*) FROM seg WHERE NOT (ts > 100)",
		"SELECT count(*) FROM seg WHERE NOT (price > 100.0)",
		"SELECT count(*) FROM seg WHERE NOT (CASE WHEN ts < 10 THEN NULL ELSE flag END)",
		"SELECT count(*) FROM seg WHERE NOT flag",
		"SELECT count(*) FROM seg WHERE ts > price",
		"SELECT count(*) FROM seg WHERE price IS DISTINCT FROM ts - 0.75",
		"SELECT count(*) FROM seg WHERE (ts % 3) <> 0 AND NULLIF(price, 10.25) = 5.25",
		"SELECT count(*) FROM seg WHERE FLOOR(price / 7.0) IS NULL OR CASE WHEN flag THEN ts END IS NOT NULL",
		"SELECT count(*) FROM seg WHERE CASE WHEN ts > 100 THEN 1 ELSE 0 END = 1",
		// fallback shapes: LIKE, subquery, simple CASE, a divisor that can be
		// zero
		"SELECT count(*) FROM seg WHERE CASE cat WHEN 'c1' THEN true END",
		"SELECT count(*) FROM seg WHERE cat LIKE 'c%'",
		"SELECT count(*) FROM seg WHERE ts = (SELECT min(ts) FROM seg)",
		"SELECT count(*) FROM seg WHERE ts % (ts - 250) = 1",
		// the translator's q `in`: ORed IS NOT DISTINCT FROM, NULL and mixed
		// numeric members included
		"SELECT count(*) FROM seg WHERE cat IS NOT DISTINCT FROM 'c1' OR cat IS NOT DISTINCT FROM NULL",
		"SELECT count(*) FROM seg WHERE ts IS NOT DISTINCT FROM 1 OR ts IS NOT DISTINCT FROM 2.0 OR ts IS NOT DISTINCT FROM 3",
	} {
		requireVecParity(t, mk, q)
	}
	db := mk(t)
	for where, want := range map[string]bool{
		"cat IS NOT DISTINCT FROM 'c1' OR cat IS NOT DISTINCT FROM 'c4'": true, // the translator's IN
		// the shapes that sent WHERE blocks to the walker before predicates
		// were three-valued over value kernels
		"ts < price":           true,
		"(ts % 3) <> 0":        true,
		"NULLIF(ts, 0) = 5":    true,
		"FLOOR(price) IS NULL": true,
		"NOT (CASE WHEN ts < 10 THEN NULL ELSE price > 5.0 END)": true,
		"((ts % NULLIF(ts - 250, 0)) < 0) <> (price < 0.0)":      true, // q mod's sign test
		"cat LIKE 'c%'":             false,
		"ts % (ts - 250) = 1":       false, // may divide by zero on a row the walker never reaches
		"ts / 0 > 1":                false,
		"CAST(ts AS varchar) = '1'": false,
	} {
		if LowersToVector(db, "seg", where) != want {
			t.Errorf("%s: lowers %v, want %v", where, !want, want)
		}
	}
}

// mkOddDB bulk-loads data the SQL grammar cannot write: NaN and signed
// zeros, a column that degrades to mixed types mid-segment, an all-null
// column, and strings that collide under keyString's ';' separator.
func mkOddDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.CreateTable("odd", []Column{
		{Name: "k", Type: "varchar"},
		{Name: "f", Type: "double precision"},
		{Name: "m", Type: "varchar"}, // receives mixed types via bulk load
		{Name: "z", Type: "bigint"},  // all NULL
	})
	nan := math.NaN()
	rows := [][]any{
		{"a", 1.5, "s1", nil},
		{"a", nan, int64(7), nil},
		{"b", math.Copysign(0, -1), "s2", nil},
		{"b", 0.0, 2.5, nil},
		{"a;string:b", nan, true, nil},
		{"a", 2.5, nil, nil},
		{nil, -1.0, int64(9), nil},
	}
	if err := db.InsertRows("odd", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestVecFusedAggregateOddities pins the fused accumulators, and the shapes
// that decline to the row fold, on the cases that historically diverge
// engines: NaN in min/max/avg/grouping, -0.0 vs 0.0, mixed-type columns
// (degraded segments), all-null inputs, empty global groups, sum/bool type
// errors surfacing lazily, and first/last not skipping NULLs.
func TestVecFusedAggregateOddities(t *testing.T) {
	for _, q := range []string{
		"SELECT k, count(*), count(f), min(f), max(f), avg(f), sum(f) FROM odd GROUP BY k",
		"SELECT min(f), max(f), sum(f), avg(f) FROM odd",
		"SELECT f, count(*) FROM odd GROUP BY f", // NaN and ±0 as group keys
		"SELECT k, first(f), last(f), first(m), last(m) FROM odd GROUP BY k",
		"SELECT k, first(f * 2.0), last(m || k), first(z + 1) FROM odd GROUP BY k", // first/last over expressions
		"SELECT k, last(CAST(k AS bigint)) FROM odd GROUP BY k",                    // an error on the one row walked
		"SELECT first(f - 1.0), last(k) FROM odd WHERE f > 100.0",                  // empty global group
		"SELECT count(z), sum(z), min(z), max(z), avg(z) FROM odd",                 // all-null column
		"SELECT count(*) FROM odd WHERE k = 'nope'",                                // empty global group
		"SELECT sum(z), first(k) FROM odd WHERE f > 100.0",
		"SELECT min(m), max(m), count(m) FROM odd",                                           // mixed-kind min/max: the row fold
		"SELECT k, sum(m) FROM odd GROUP BY k",                                               // sum over strings: lazy 42804 from the row fold
		"SELECT k, median(m) FROM odd GROUP BY k",                                            // median over non-numbers: the row fold
		"SELECT k, CASE WHEN count(*) > 1 THEN sum(m) ELSE count(*) END FROM odd GROUP BY k", // error slot behind untaken CASE arm
		"SELECT COALESCE(sum(z), 0) FROM odd WHERE f IS NULL",
		// computed arguments: NaN, ±0 and NULLs through the kernels, lazy
		// type errors from the walker (m holds strings, ints, floats and a
		// bool)
		"SELECT k, sum(f + 0.0), avg(f * 2.0), min(f - 1.0), max(-f) FROM odd WHERE f IS NOT NULL GROUP BY k",
		"SELECT k, sum(NULLIF(f, 'NaN'::double precision)), count(NULLIF(f, 'NaN'::double precision)) FROM odd GROUP BY k",
		"SELECT k, min(k || 'x'), max(COALESCE(m, 'n')), count(z + 1) FROM odd GROUP BY k",
		"SELECT k, sum(m * 2) FROM odd GROUP BY k",
		"SELECT k, stddev_pop(f + 0.0), var_pop(f * 2.0) FROM odd GROUP BY k",
		"SELECT k, CASE WHEN count(*) > 1 THEN sum(m * 2) ELSE avg(f + 1.0) END FROM odd GROUP BY k",
		"SELECT sum(z * 2), avg(f / 0.0) FROM odd WHERE k = 'nope'",
		// non-fusable shapes exercising the fallback-after-vec-filter path
		"SELECT k, first(f + 0.0), last(f * 2.0) FROM odd WHERE f IS NOT NULL GROUP BY k",
		"SELECT k || 'x', count(*) FROM odd GROUP BY k || 'x'",
		// collecting slots and computed keys: NaN, ±0 and NULL through
		// median, stddev_pop and var_pop, and keys over an all-NULL column
		"SELECT median(f), stddev_pop(f), var_pop(f) FROM odd",
		"SELECT k, median(f), median(f * 2.0) FROM odd GROUP BY k",
		"SELECT median(z), var_pop(z) FROM odd WHERE k = 'nope'",
		"SELECT f * 2.0, count(*), median(f) FROM odd GROUP BY f * 2.0",
		"SELECT z + 1, k, count(*) FROM odd GROUP BY z + 1, k",
		"SELECT floor(f), count(*) FROM odd GROUP BY floor(f)",
	} {
		requireVecParity(t, mkOddDB, q)
	}
}

// TestPlanFusedComputedArgs pins which aggregate arguments fuse, deciding
// from segment metadata: an expression that lowers to a kernel does, reading
// exactly its columns, so the translator's wavg and spread shapes stay on
// the fused path, and count fuses over a column of any kind, median,
// stddev_pop and var_pop over numbers. first/last over an expression,
// sum/avg/min/max/median over strings, bools or mixed values, and min/max
// over a column or kernel whose kind changes between segments (kt's m: ints,
// then floats) fall back. Each query also runs against the interpreter.
func TestPlanFusedComputedArgs(t *testing.T) {
	for _, c := range []struct {
		mk   func(*testing.T) *DB
		sql  string
		fuse bool
		cols []int
	}{
		{mkOddDB, "SELECT sum(NULLIF(f * z, 'NaN'::double precision)) FROM odd", true, []int{1, 3}},
		{mkOddDB, "SELECT avg(NULLIF(f - f, 'NaN'::double precision)) FROM odd", true, []int{1}},
		{mkOddDB, "SELECT sum(f) FROM odd", true, []int{1}},
		{mkOddDB, "SELECT min(z) FROM odd", true, []int{3}}, // all NULL
		{mkOddDB, "SELECT count(m) FROM odd", true, []int{2}},
		{mkOddDB, "SELECT first(f + 0.0) FROM odd", true, []int{1}}, // walked on its one row
		{mkOddDB, "SELECT sum(f + abs(z)) FROM odd", false, nil},
		{mkOddDB, "SELECT min(k) FROM odd", false, nil},
		{mkOddDB, "SELECT max(m) FROM odd", false, nil},
		{mkOddDB, "SELECT sum(m) FROM odd", false, nil},
		{mkOddDB, "SELECT avg(k) FROM odd", false, nil},
		{mkOddDB, "SELECT median(f) FROM odd", true, []int{1}},
		{mkOddDB, "SELECT median(m) FROM odd", false, nil},
		{mkKernelDB, "SELECT sum(m), avg(m) FROM kt", true, []int{5}},
		{mkKernelDB, "SELECT count(v) FROM kt", true, []int{9}},
		{mkKernelDB, "SELECT min(a) FROM kt", true, []int{1}},
		{mkKernelDB, "SELECT min(m) FROM kt", false, nil},
		{mkKernelDB, "SELECT max(m * 2) FROM kt", false, nil},
		{mkKernelDB, "SELECT max(flag) FROM kt", false, nil},
		{mkKernelDB, "SELECT var_pop(a) FROM kt", true, []int{1}},
		{mkKernelDB, "SELECT stddev_pop(m * 2) FROM kt", true, []int{5}},
		{mkKernelDB, "SELECT median(flag) FROM kt", false, nil},
	} {
		db := c.mk(t)
		var st *colStore
		for _, tbl := range db.tables {
			st = tbl.store
		}
		stmt, err := sqlparse.Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		sel := stmt.(*sqlparse.SelectStmt)
		schema := schemaOf(st.cols, sel.From.(*sqlparse.BaseTable).Name)
		calls, _ := aggCalls(sel.Items)
		fused, ok := planFusedSlots(calls, schema, st)
		switch {
		case ok != c.fuse:
			t.Errorf("%s: fused=%v, want %v", c.sql, ok, c.fuse)
		case ok:
			cols := []int{fused[0].col}
			if fused[0].arg != nil {
				cols = colsOf(fused[0].arg)
			} else if fused[0].col < 0 {
				cols = fused[0].reads
			}
			if !reflect.DeepEqual(cols, c.cols) {
				t.Errorf("%s: argument columns %v, want %v", c.sql, cols, c.cols)
			}
		}
		requireVecParity(t, c.mk, c.sql)
	}
}

// TestVecDMLAcrossSegments checks INSERTs that fill the tail segment and
// open the next one, with values outside every earlier zone, NULLs and new
// keys, then re-queries through the vector scans (zone maps must stay sound
// as appends widen them).
func TestVecDMLAcrossSegments(t *testing.T) {
	n := segSize - 3
	for _, script := range [][]string{
		{"INSERT INTO seg VALUES (4094, 99999.5, 'c1', TRUE), (4095, NULL, 'zz', NULL), (4096, -5.5, 'c2', FALSE), (4097, 0.25, NULL, TRUE)"},
		{"INSERT INTO seg VALUES (-1, NULL, 'zz', NULL), (-2, NULL, 'zz', NULL), (-3, NULL, 'zz', NULL), (-4, 12345.5, 'a', FALSE)"},
		{
			"INSERT INTO seg VALUES (5000, 1.5, 'c3', TRUE), (5001, 1.5, 'c3', TRUE)",
			"INSERT INTO seg VALUES (4100, 99999.5, 'zz', FALSE), (4101, NULL, NULL, NULL)",
			"INSERT INTO seg VALUES (100, 2.5, 'c0', TRUE)",
		},
	} {
		script := script
		mk := func(t *testing.T) *DB {
			db := mkSegDB(n)(t)
			s := db.NewSession()
			for _, stmt := range script {
				if _, err := s.Exec(stmt); err != nil {
					t.Fatalf("%s: %v", stmt, err)
				}
			}
			return db
		}
		for _, q := range []string{
			"SELECT count(*), min(ts), max(ts), sum(ts) FROM seg",
			"SELECT * FROM seg WHERE price > 99999.0",
			"SELECT * FROM seg WHERE ts BETWEEN 4090 AND 4110",
			"SELECT cat, count(*), max(price) FROM seg GROUP BY cat",
			"SELECT count(*) FROM seg WHERE flag IS NULL",
			"SELECT count(*) FROM seg WHERE cat = 'zz'",
		} {
			// the INSERTs above already ran per-engine inside mk; every
			// engine sees the same table
			requireVecParity(t, mk, q)
		}
	}
}

// TestVecUpdateDegradesColumn writes an int into a varchar column cell via
// the bulk API path and checks the segment degrades to boxed storage while
// scans stay exact.
func TestVecUpdateDegradesColumn(t *testing.T) {
	mk := func(t *testing.T) *DB {
		db := mkSegDB(200)(t)
		if err := db.InsertRows("seg", [][]any{{int64(9999), 1.0, int64(42), true}}); err != nil {
			t.Fatal(err)
		}
		return db
	}
	for _, q := range []string{
		"SELECT count(*) FROM seg WHERE cat = 'c3'",
		"SELECT count(*) FROM seg WHERE cat = 42",
		"SELECT min(cat), max(cat) FROM seg",
		"SELECT cat, count(*) FROM seg GROUP BY cat",
	} {
		requireVecParity(t, mk, q)
	}
}

// TestVecRowViewCoherence interleaves INSERTs with reads
// that read the whole table by every path — a vector projection, a lowered
// NOT filter, a two-key row join, a filter the vector kernels do not lower,
// and the interpreter — and requires them to agree after every step: each
// boxes its rows from the vectors per statement, so no copy can miss a
// write.
func TestVecRowViewCoherence(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec := func(sql string) *Result {
		t.Helper()
		res, err := s.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	reads := []string{
		"SELECT a, b FROM c ORDER BY a",
		"SELECT a, b FROM c WHERE NOT (a IS NULL OR a < -100) ORDER BY a",
		"SELECT x.a, x.b FROM c x JOIN c y ON x.a = y.a AND x.b IS NOT DISTINCT FROM y.b ORDER BY a",
		"SELECT a, b FROM c WHERE lower(b) = lower(b) OR b IS NULL ORDER BY a",
	}
	check := func(step string) {
		t.Helper()
		var want string
		for _, mode := range []ExecMode{ExecCompiled, ExecInterpreted} {
			db.SetExecMode(mode)
			for _, q := range reads {
				got := fmt.Sprint(mustExec(q).Rows)
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("after %s, mode %d: %s = %s, want %s", step, mode, q, got, want)
				}
			}
		}
		db.SetExecMode(ExecCompiled)
	}
	mustExec("CREATE TABLE c (a bigint, b varchar)")
	for _, step := range []string{
		"INSERT INTO c VALUES (1, 'x'), (2, 'y'), (4, NULL)",
		"INSERT INTO c VALUES (3, 'w')",
		"INSERT INTO c VALUES (-50, 'z'), (7, NULL)",
		"INSERT INTO c VALUES (5, 'v')",
	} {
		mustExec(step)
		check(step)
	}
	if res := mustExec("SELECT a, b FROM c ORDER BY a"); fmt.Sprint(res.Rows) != "[[-50 z] [1 x] [2 y] [3 w] [4 <nil>] [5 v] [7 <nil>]]" {
		t.Fatalf("table after INSERTs wrong: %v", res.Rows)
	}
}

// TestColVecZoneMaps unit-tests the storage layer directly: per-segment
// min/max bounds, null bitmap counts and degradation.
func TestColVecZoneMaps(t *testing.T) {
	st := newColStore([]Column{{Name: "x", Type: "bigint"}})
	for i := 0; i < segSize+10; i++ {
		st.appendRow([]any{int64(i)})
	}
	if st.numSegs() != 2 {
		t.Fatalf("want 2 segments, got %d", st.numSegs())
	}
	v0, v1 := &st.seg(0).vecs[0], &st.seg(1).vecs[0]
	if v0.minV != int64(0) || v0.maxV != int64(segSize-1) {
		t.Fatalf("seg0 zone [%v,%v]", v0.minV, v0.maxV)
	}
	if v1.minV != int64(segSize) || v1.maxV != int64(segSize+9) {
		t.Fatalf("seg1 zone [%v,%v]", v1.minV, v1.maxV)
	}
	// appends widen the tail segment's bounds
	st.appendRow([]any{int64(-100)})
	if v1.minV != int64(-100) || v0.minV != int64(0) {
		t.Fatalf("zone must widen on append: seg0 %v seg1 %v", v0.minV, v1.minV)
	}
	// nulls tracked exactly
	st.appendRow([]any{nil})
	if v1.nullCnt != 1 || !v1.isNull(11) {
		t.Fatalf("null bookkeeping: cnt=%d", v1.nullCnt)
	}
	// degradation on type mismatch drops the zone map
	st.appendRow([]any{"oops"})
	if v1.kind != vkAny || v1.minV != nil {
		t.Fatalf("degrade: kind=%d zone=%v", v1.kind, v1.minV)
	}
	if st.cellAt(segSize+2, 0) != int64(segSize+2) || st.cellAt(segSize+12, 0) != "oops" || st.cellAt(segSize+11, 0) != nil {
		t.Fatalf("cells after degrade: %v %v %v", st.cellAt(segSize+2, 0), st.cellAt(segSize+12, 0), st.cellAt(segSize+11, 0))
	}
}

// TestBoxSelMatchesGet holds the one-allocation-per-column boxing to
// boxing cell by cell: every kind, NULLs, NaN and a mixed (vkAny) segment,
// across a segment boundary and under a selection, compare equal as
// interfaces and keep their values when an INSERT appends to the vector.
func TestBoxSelMatchesGet(t *testing.T) {
	st := newColStore([]Column{{Name: "i", Type: "bigint"}, {Name: "f", Type: "double precision"},
		{Name: "s", Type: "varchar"}, {Name: "b", Type: "boolean"}, {Name: "m", Type: "varchar"}})
	n := segSize + 100
	for k := 0; k < n; k++ {
		row := []any{int64(k * 1000), float64(k) / 3, fmt.Sprintf("s%d", k), k%2 == 0, "x"}
		if k == 7 {
			row[1] = math.NaN()
		}
		if k >= segSize {
			row[4] = int64(k) // the second segment's m degrades to vkAny
		}
		if k%11 == 0 {
			row[k%5] = nil
		}
		st.appendRow(row)
	}
	sel := make([]uint64, (n+63)/64)
	for k := 0; k < n; k += 3 {
		sel[k>>6] |= 1 << (uint(k) & 63)
	}
	all := seq(0, len(st.cols))
	for _, s := range [][]uint64{nil, sel} {
		rows := st.boxSel(s, all)
		for j, row := range rows {
			k := j
			if s != nil {
				k = 3 * j
			}
			for c, got := range row {
				want := st.cellAt(k, c)
				if f, isF := want.(float64); isF && math.IsNaN(f) {
					if g, ok := got.(float64); !ok || !math.IsNaN(g) {
						t.Fatalf("row %d col %d: %#v, want NaN", k, c, got)
					}
					continue
				}
				if got != want {
					t.Fatalf("row %d col %d: %#v, want %#v", k, c, got, want)
				}
			}
		}
		// an INSERT writes the tail segment in place: boxed rows keep
		// their values
		last := rows[len(rows)-1]
		before := fmt.Sprint(last)
		st.appendRow([]any{nil, nil, "later", true, int64(1)})
		if fmt.Sprint(last) != before {
			t.Fatalf("INSERT reached a boxed row: %v, was %v", last, before)
		}
	}
}
