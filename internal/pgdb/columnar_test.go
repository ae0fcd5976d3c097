package pgdb

import (
	"fmt"
	"slices"
	"testing"

	"hyperq/internal/pgdb/sqlparse"
)

// asofTmpl is the translator's as-of shape over l(id,k,t) and r(k,t,v):
// partition column, left and right sources, key operator, extra WHERE.
const asofTmpl = `SELECT id, k, t, v FROM (
	SELECT a.id, a.k, a.t, b.v, ROW_NUMBER() OVER (PARTITION BY %s ORDER BY b.t DESC) AS rn
	FROM %s a LEFT JOIN %s b ON a.k %s b.k AND b.t <= a.t
) x WHERE rn = 1%s ORDER BY id`

// TestAsofFusionMatchesGenericPlan holds the fused as-of plan to the plan it
// replaces — the same SQL with `AND 1 = 1` appended to the rank filter,
// which defeats the pattern match — in the compiled engine over columnar
// sides (typed path), over computed sides (row path), and in the
// interpreter. The data covers NULL right times (which never satisfy the
// bound), NULL left keys under plain = (which never match), partition
// columns that repeat or hold NULL (one partition for several left rows),
// and a distinct but unordered partition column.
func TestAsofFusionMatchesGenericPlan(t *testing.T) {
	type row = []any
	cases := []struct {
		name string
		l, r [][]any
	}{
		{"null right times", []row{{int64(1), "a", int64(10)}},
			[]row{{"a", nil, int64(100)}, {"a", nil, int64(101)}, {"a", nil, int64(102)}, {"a", int64(5), int64(103)}}},
		{"null left key", []row{{int64(1), nil, int64(10)}, {int64(2), "a", int64(10)}},
			[]row{{nil, int64(5), int64(200)}, {"a", int64(5), int64(100)}}},
		{"shared partition", []row{{int64(1), "a", int64(10)}, {int64(2), "a", int64(20)}, {int64(3), "b", int64(20)}},
			[]row{{"a", int64(5), int64(100)}, {"a", int64(15), int64(101)}, {"b", int64(1), int64(300)}}},
		{"unordered partition", []row{{int64(3), "a", int64(10)}, {int64(1), "b", int64(20)}, {int64(2), "a", int64(30)}, {int64(4), nil, nil}},
			[]row{{"a", int64(25), int64(100)}, {"a", int64(5), int64(101)}, {"b", int64(30), int64(300)}, {nil, int64(1), int64(400)}}},
	}
	sides := []struct{ name, l, r string }{
		{"typed", "l", "r"},
		{"wrapped", "(SELECT id AS id, k AS k, t AS t FROM l)", "(SELECT k AS k, t AS t, v AS v FROM r)"},
		{"rows", "(SELECT id, k, t + 0 AS t FROM l)", "(SELECT k, t + 0 AS t, v FROM r)"},
	}
	for _, tc := range cases {
		db := NewDB()
		db.CreateTable("l", []Column{{"id", "bigint"}, {"k", "varchar"}, {"t", "bigint"}})
		db.CreateTable("r", []Column{{"k", "varchar"}, {"t", "bigint"}, {"v", "bigint"}})
		if err := db.InsertRows("l", tc.l); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertRows("r", tc.r); err != nil {
			t.Fatal(err)
		}
		s := db.NewSession()
		stats := db.IndexStats()
		for _, mode := range []ExecMode{ExecCompiled, ExecInterpreted} {
			db.SetExecMode(mode)
			for _, sd := range sides {
				for _, op := range []string{"=", "IS NOT DISTINCT FROM"} {
					for _, part := range []string{"a.id", "a.k", "a.t"} {
						fused := fmt.Sprintf(asofTmpl, part, sd.l, sd.r, op, "")
						cached := stats.AsofBuilds.Load() + stats.AsofHits.Load()
						got := fmt.Sprint(mustExec(t, s, fused).Rows)
						want := fmt.Sprint(mustExec(t, s, fmt.Sprintf(asofTmpl, part, sd.l, sd.r, op, " AND 1 = 1")).Rows)
						if got != want {
							t.Errorf("%s, %s engine, %s sides, ON a.k %s b.k, PARTITION BY %s:\n fused   %s\n unfused %s",
								tc.name, mode, sd.name, op, part, got, want)
						}
						// a distinct partition column takes the fusion: over
						// columnar sides the cached typed build side shows it
						if mode == ExecCompiled && sd.name != "rows" && part == "a.id" &&
							stats.AsofBuilds.Load()+stats.AsofHits.Load() == cached {
							t.Errorf("%s, %s sides, ON a.k %s b.k: the typed as-of path did not run", tc.name, sd.name, op)
						}
					}
				}
			}
		}
	}
}

// joinParityDB holds f (9000 rows) and d (8500 rows), both straddling two
// segment boundaries: string and integer keys with duplicates and NULLs on
// both sides, a float key, and an integer key whose second segment of f
// degrades to boxed storage.
func joinParityDB(t *testing.T) (*DB, *Session) {
	t.Helper()
	db := NewDB()
	db.CreateTable("f", []Column{{"x", "bigint"}, {"k", "varchar"}, {"ki", "bigint"}, {"kf", "double precision"}, {"ka", "bigint"}})
	db.CreateTable("d", []Column{{"y", "bigint"}, {"k", "varchar"}, {"ki", "bigint"}, {"kf", "double precision"}, {"ka", "bigint"}, {"w", "varchar"}})
	key := func(i, mod, nullEvery int) (any, any, any) {
		if i%nullEvery == 0 {
			return nil, nil, nil
		}
		return fmt.Sprintf("k%d", i%mod), int64(i % mod), float64(i%mod) / 2
	}
	var frows, drows [][]any
	for i := 0; i < 9000; i++ {
		k, ki, kf := key(i, 5000, 97)
		var ka any = int64(i % 50)
		if i == 2*SegmentSize-10 {
			ka = "boxed"
		}
		frows = append(frows, []any{int64(i), k, ki, kf, ka})
	}
	for i := 0; i < 8500; i++ {
		k, ki, kf := key(i*7, 4000, 101)
		drows = append(drows, []any{int64(i), k, ki, kf, int64(i % 60), fmt.Sprintf("w%d", i%13)})
	}
	if err := db.InsertRows("f", frows); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("d", drows); err != nil {
		t.Fatal(err)
	}
	return db, db.NewSession()
}

// TestColumnarJoinParity holds the typed hash join, and the columnar
// subqueries feeding and consuming it, to the interpreter over both join
// types, both key operators, duplicate and NULL keys and empty sides; the
// typed shapes' FROM clauses must stay columnar, so neither table nor any
// subquery under the join is boxed. The fallback shapes — float key, boxed
// key, two keys, a residual — run the row join and must agree too.
func TestColumnarJoinParity(t *testing.T) {
	db, s := joinParityDB(t)
	typed := []string{
		"SELECT f.x, f.k, d.y, d.w FROM f JOIN d ON f.k = d.k",
		"SELECT f.x, f.k, d.y, d.w FROM f LEFT JOIN d ON f.k = d.k",
		"SELECT f.x, d.y FROM f JOIN d ON f.k IS NOT DISTINCT FROM d.k",
		"SELECT f.x, d.y FROM f LEFT JOIN d ON d.k IS NOT DISTINCT FROM f.k",
		"SELECT f.x, d.y, d.ki FROM f LEFT JOIN d ON f.ki = d.ki",
		"SELECT f.x, d.y FROM f JOIN d ON f.ki IS NOT DISTINCT FROM d.ki",
		"SELECT a.x, b.y FROM (SELECT k AS k, x AS x FROM f) a LEFT JOIN (SELECT k AS k, y AS y FROM d) b ON a.k = b.k",
		"SELECT a.x, b.y, b.w FROM (SELECT k, x FROM f WHERE x > 100) a LEFT JOIN (SELECT k, y, w FROM d WHERE y < 5000) b ON a.k IS NOT DISTINCT FROM b.k",
		"SELECT a.x, d.y FROM (SELECT k, x FROM f WHERE x < 0) a LEFT JOIN d ON a.k = d.k",
		"SELECT f.x, b.y FROM f LEFT JOIN (SELECT k, y FROM d WHERE y < 0) b ON f.k = b.k",
		"SELECT f.x, b.y FROM f JOIN (SELECT k, y FROM d WHERE y < 0) b ON f.k = b.k",
		"SELECT x, y, w FROM (SELECT f.x, d.y, d.w FROM f LEFT JOIN d ON f.k = d.k) j WHERE y > 4000 OR x < 50",
		"SELECT w, count(*), sum(x), min(y) FROM (SELECT f.x, d.y, d.w FROM f JOIN d ON f.ki = d.ki) j GROUP BY w ORDER BY w",
		"SELECT j.x, e.y FROM (SELECT f.x, f.k FROM f JOIN d ON f.k = d.k) j LEFT JOIN d e ON j.k = e.k",
	}
	fallback := []string{
		"SELECT f.x, d.y FROM f JOIN d ON f.kf = d.kf",
		"SELECT f.x, d.y FROM f LEFT JOIN d ON f.ka = d.ka WHERE f.x < 300",
		"SELECT f.x, d.y FROM f LEFT JOIN d ON f.k = d.k AND f.ki = d.ki",
		"SELECT f.x, d.y FROM f LEFT JOIN d ON f.k = d.k AND d.y < f.x",
	}
	for _, q := range typed {
		stmt, err := sqlparse.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := s.buildFrom(stmt.(*sqlparse.SelectStmt).From)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if rel.store == nil || rel.rows != nil {
			t.Errorf("%s: the join's input or output was boxed", q)
		}
	}
	compiled := map[string]string{}
	for _, q := range slices.Concat(typed, fallback) {
		compiled[q] = fmt.Sprint(mustExec(t, s, q).Rows)
	}
	db.SetExecMode(ExecInterpreted)
	for q, want := range compiled {
		if got := fmt.Sprint(mustExec(t, s, q).Rows); got != want {
			t.Errorf("%s: compiled and interpreted engines differ", q)
		}
	}
}

// TestGatherAndViewSizedToRows: the vectors of a private store — a view of
// a table, a gather of a few rows, a join's output — have exactly their
// segment's row count of capacity, never a full segment's worth.
func TestGatherAndViewSizedToRows(t *testing.T) {
	_, s := joinParityDB(t)
	for _, q := range []string{
		"SELECT x, k, kf FROM f",
		"SELECT x, k, kf, ka FROM f WHERE x IS NOT DISTINCT FROM 3 OR x IS NOT DISTINCT FROM 4500 OR x IS NOT DISTINCT FROM 8999",
		"SELECT d.w, f.kf FROM f JOIN d ON f.k = d.k WHERE f.x = 17",
	} {
		stmt, err := sqlparse.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.execSelect(stmt.(*sqlparse.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		st := res.store
		if st == nil || !st.private {
			t.Fatalf("%s: not a private column store", q)
		}
		for si := range st.slots {
			seg := st.seg(si)
			for c := range seg.vecs {
				v := &seg.vecs[c]
				caps := map[string][2]int{"ints": {len(v.ints), cap(v.ints)}, "floats": {len(v.floats), cap(v.floats)},
					"codes": {len(v.codes), cap(v.codes)}, "bools": {len(v.bools), cap(v.bools)}, "anys": {len(v.anys), cap(v.anys)}}
				if len(v.dict) != cap(v.dict) {
					t.Errorf("%s: segment %d column %d dictionary len %d cap %d", q, si, c, len(v.dict), cap(v.dict))
				}
				for name, lc := range caps {
					if lc[1] != 0 && (lc[0] != seg.n || lc[1] != seg.n) {
						t.Errorf("%s: segment %d column %d %s len %d cap %d for %d rows", q, si, c, name, lc[0], lc[1], seg.n)
					}
				}
			}
		}
	}
}
