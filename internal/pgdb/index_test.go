package pgdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hyperq/internal/pgdb/sqlparse"
)

func storeOf(t *testing.T, db *DB, name string) *colStore {
	t.Helper()
	tab, ok := db.tables[name]
	if !ok {
		t.Fatalf("no table %s", name)
	}
	return tab.store
}

// TestSortedAttrMaintenance drives the sorted attribute through appends:
// kept while order holds (ties included), dropped on the first violation or
// NULL, and never resurrected by later in-order appends.
func TestSortedAttrMaintenance(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE st (k bigint, v varchar)")
	mustExec(t, s, "INSERT INTO st VALUES (1,'c'),(2,'b'),(2,'d'),(5,'a')")
	st := storeOf(t, db, "st")
	if !st.sortedCol(0) {
		t.Fatalf("ascending k should be sorted")
	}
	if st.sortedCol(1) {
		t.Fatalf("shuffled v should not be sorted")
	}
	// an append equal to the last value keeps the flag
	mustExec(t, s, "INSERT INTO st VALUES (5,'e'),(6,'f')")
	if !st.sortedCol(0) {
		t.Fatalf("in-order append dropped the sorted attribute")
	}
	// out-of-order append invalidates, for good
	mustExec(t, s, "INSERT INTO st VALUES (0,'g')")
	if st.sortedCol(0) {
		t.Fatalf("out-of-order append kept the sorted attribute")
	}
	mustExec(t, s, "INSERT INTO st VALUES (9,'h')")
	if st.sortedCol(0) {
		t.Fatalf("a later in-order append resurrected the sorted attribute")
	}
	// NULL kills it
	mustExec(t, s, "CREATE TABLE sn (k bigint)")
	mustExec(t, s, "INSERT INTO sn VALUES (1),(2)")
	mustExec(t, s, "INSERT INTO sn VALUES (NULL)")
	if storeOf(t, db, "sn").sortedCol(0) {
		t.Fatalf("NULL append kept the sorted attribute")
	}
}

// TestSortedRangeParity: every comparison shape over a sorted column must
// return the same rows in both engines — the compiled one answering from
// binary search, the interpreter scanning.
func TestSortedRangeParity(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE big (k bigint, f double precision, txt varchar)")
	// two full segments plus change, sorted k with long duplicate runs
	rng := rand.New(rand.NewSource(7))
	n := 2*SegmentSize + 300
	for lo := 0; lo < n; lo += 1000 {
		hi := lo + 1000
		if hi > n {
			hi = n
		}
		sql := "INSERT INTO big VALUES "
		for i := lo; i < hi; i++ {
			if i > lo {
				sql += ","
			}
			sql += fmt.Sprintf("(%d,%g,'s%d')", i/7, float64(rng.Intn(100))/4, rng.Intn(50))
		}
		mustExec(t, s, sql)
	}
	if !storeOf(t, db, "big").sortedCol(0) {
		t.Fatalf("k should be sorted")
	}

	queries := []string{
		"SELECT count(*), sum(k) FROM big WHERE k = 100",
		"SELECT count(*), sum(k) FROM big WHERE k = -5",
		"SELECT count(*), sum(k) FROM big WHERE k = 1000000",
		"SELECT count(*), sum(k) FROM big WHERE k < 300",
		"SELECT count(*), sum(k) FROM big WHERE k <= 300",
		"SELECT count(*), sum(k) FROM big WHERE k > 1100",
		"SELECT count(*), sum(k) FROM big WHERE k >= 1100",
		"SELECT count(*), sum(k) FROM big WHERE k <> 0",
		"SELECT count(*), sum(k) FROM big WHERE k <> 500",
		"SELECT count(*), sum(k) FROM big WHERE k >= 100 AND k < 200",
		"SELECT count(*), sum(k) FROM big WHERE k < 100 OR k <= 150",
		"SELECT count(*), sum(k) FROM big WHERE k = 100.0",
		"SELECT count(*), sum(k) FROM big WHERE k = 100.5",
		"SELECT count(*), sum(f) FROM big WHERE k BETWEEN 50 AND 60",
		"SELECT count(*) FROM big WHERE k IS NULL",
		"SELECT count(*) FROM big WHERE k IS NOT NULL",
	}
	for _, q := range queries {
		var ref [][]any
		for _, mode := range []ExecMode{ExecInterpreted, ExecCompiled} {
			db.SetExecMode(mode)
			res := mustExec(t, s, q)
			if ref == nil {
				ref = res.Rows
				continue
			}
			if !reflect.DeepEqual(res.Rows, ref) {
				t.Fatalf("%s: mode %d rows %v != interpreted %v", q, mode, res.Rows, ref)
			}
		}
	}
	if hits := db.IndexStats().Hits.Load(); hits == 0 {
		t.Fatalf("sorted-range queries never hit an access path")
	}
}

// TestHashIndexDMLParity runs a statement stream — filters and joins on
// string and integer keys, NULL keys under = and IS NOT DISTINCT FROM,
// with INSERTs between the runs, one of them past a segment boundary —
// through the compiled engine and the interpreter, requiring identical
// results after every step. The compiled engine scans every equality and
// builds each join's hash side per query, so an INSERT must show in the
// next statement.
func TestHashIndexDMLParity(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	probes := []string{
		"SELECT count(*), sum(n) FROM kv WHERE k = 'a'",
		"SELECT count(*), sum(n) FROM kv WHERE k = 'b'",
		"SELECT count(*), sum(n) FROM kv WHERE (k IS NOT DISTINCT FROM 'a') OR (k IS NOT DISTINCT FROM 'c') OR (k IS NOT DISTINCT FROM 'zz')",
		"SELECT count(*), sum(n) FROM kv WHERE n = 5",
		"SELECT count(*), sum(n) FROM kv WHERE (n IS NOT DISTINCT FROM 1) OR (n IS NOT DISTINCT FROM 3)",
		"SELECT count(*), sum(n) FROM kv WHERE k IS NOT DISTINCT FROM NULL",
		"SELECT count(*), sum(a.n) FROM kv a JOIN kv b ON a.k = b.k",
		"SELECT count(*), sum(b.n) FROM kv a LEFT JOIN kv b ON a.k IS NOT DISTINCT FROM b.k",
		"SELECT count(*), sum(b.n) FROM kv a LEFT JOIN kv b ON a.n = b.n",
		"SELECT count(*), sum(a.n) FROM kv a JOIN kv b ON a.n IS NOT DISTINCT FROM b.n",
		"SELECT k, count(*) FROM kv GROUP BY k ORDER BY k",
	}
	bulk := "INSERT INTO kv VALUES "
	for i := 0; i < SegmentSize+100; i++ {
		if i > 0 {
			bulk += ","
		}
		if i%211 == 0 {
			bulk += fmt.Sprintf("(NULL,%d)", i%97)
		} else {
			bulk += fmt.Sprintf("('k%d',%d)", i%1500, i%97)
		}
	}
	steps := []string{
		"CREATE TABLE kv (k varchar, n bigint)",
		"INSERT INTO kv VALUES ('a',1),('b',2),('a',3),('c',4),('b',5),(NULL,6)",
		"INSERT INTO kv VALUES ('a',7),('d',8)",
		"INSERT INTO kv VALUES ('b',50),(NULL,5)",
		bulk,
		"INSERT INTO kv VALUES ('a',9),(NULL,10)",
		"INSERT INTO kv VALUES ('e',NULL),('zz',1)",
	}
	for _, step := range steps {
		mustExec(t, s, step)
		for _, q := range probes {
			db.SetExecMode(ExecCompiled)
			got := mustExec(t, s, q).Rows
			db.SetExecMode(ExecInterpreted)
			want := mustExec(t, s, q).Rows
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("after %.60q: %s\n  compiled:    %v\n  interpreted: %v", step, q, got, want)
			}
		}
	}
}

// TestIndexConcurrentLookups hammers one table with concurrent lookups
// (shared statement lock): equality scans, sorted-attribute ranges and
// fused as-of joins whose first runs race to build the bucket cache. Every
// answer must equal the interpreter's; run under -race.
func TestIndexConcurrentLookups(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE c (id bigint, k bigint, v varchar, tm bigint)")
	mustExec(t, s, "CREATE TABLE q (v varchar, tm bigint, px bigint)")
	for lo := 0; lo < 4000; lo += 500 {
		sql := "INSERT INTO c VALUES "
		for i := lo; i < lo+500; i++ {
			if i > lo {
				sql += ","
			}
			sql += fmt.Sprintf("(%d,%d,'s%d',%d)", i, i%97, i%13, i%1000)
		}
		mustExec(t, s, sql)
	}
	for i := 0; i < 60; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO q VALUES ('s%d',%d,%d)", i%13, i*17%1000, i))
	}
	var queries []string
	for i := 0; i < 13; i++ {
		queries = append(queries,
			fmt.Sprintf("SELECT count(*) FROM c WHERE k = %d", i*7),
			fmt.Sprintf("SELECT count(*) FROM c WHERE v = 's%d'", i),
			fmt.Sprintf("SELECT count(*), sum(k) FROM c WHERE id >= %d AND id < %d", i*250, i*300+7))
	}
	asof := `SELECT count(px), sum(px) FROM (
		SELECT a.id, b.px, ROW_NUMBER() OVER (PARTITION BY a.id ORDER BY b.tm DESC) AS rn
		FROM c a LEFT JOIN q b ON a.v IS NOT DISTINCT FROM b.v AND b.tm <= a.tm
	) x WHERE rn = 1`
	queries = append(queries, asof)
	db.SetExecMode(ExecInterpreted)
	want := map[string]string{}
	for _, q := range queries {
		want[q] = fmt.Sprint(mustExec(t, s, q).Rows)
	}
	db.SetExecMode(ExecCompiled)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.NewSession()
			for i := 0; i < 40; i++ {
				q := queries[(g*7+i)%len(queries)]
				if i%4 == 0 {
					q = asof
				}
				res, err := sess.Exec(q)
				if err == nil && fmt.Sprint(res.Rows) != want[q] {
					err = fmt.Errorf("%s: %v, interpreter %s", q, res.Rows, want[q])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent lookup: %v", err)
	}
	st := db.IndexStats()
	if st.Hits.Load() == 0 || st.AsofBuilds.Load() == 0 || st.AsofHits.Load() == 0 {
		t.Fatalf("concurrent run: %d sorted hits, %d as-of builds, %d as-of hits",
			st.Hits.Load(), st.AsofBuilds.Load(), st.AsofHits.Load())
	}
}

// TestAsofBucketCache: repeated fused as-of joins against an unchanged right
// table reuse the cached bucket index; any mutation invalidates it.
func TestAsofBucketCache(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE lt (id bigint, sym varchar, tm bigint)")
	mustExec(t, s, "CREATE TABLE rt (sym varchar, tm bigint, px double precision)")
	mustExec(t, s, "INSERT INTO lt VALUES (0,'a',10),(1,'a',20),(2,'b',15)")
	mustExec(t, s, "INSERT INTO rt VALUES ('a',5,1.0),('a',15,2.0),('b',12,3.0)")
	asof := `SELECT sym, tm, px, id FROM (
		SELECT a.id, a.sym, a.tm, b.px,
		       ROW_NUMBER() OVER (PARTITION BY a.id ORDER BY b.tm DESC) AS rn
		FROM lt a LEFT JOIN rt b ON a.sym IS NOT DISTINCT FROM b.sym AND b.tm <= a.tm
	) x WHERE rn = 1 ORDER BY id`

	want := mustExec(t, s, asof).Rows
	stats := db.IndexStats()
	builds0 := stats.AsofBuilds.Load()
	if builds0 == 0 {
		t.Fatalf("fused as-of did not build a bucket index")
	}
	again := mustExec(t, s, asof).Rows
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("cached as-of diverged: %v vs %v", again, want)
	}
	if stats.AsofHits.Load() == 0 {
		t.Fatalf("repeat as-of missed the cache")
	}
	if stats.AsofBuilds.Load() != builds0 {
		t.Fatalf("repeat as-of rebuilt the bucket index")
	}

	// mutating the right side must invalidate: new row visible immediately
	mustExec(t, s, "INSERT INTO rt VALUES ('a',18,9.0)")
	res := mustExec(t, s, asof).Rows
	if stats.AsofBuilds.Load() == builds0 {
		t.Fatalf("as-of cache survived a mutation")
	}
	if res[1][2].(float64) != 9.0 {
		t.Fatalf("post-insert as-of row = %v, want px 9.0", res[1])
	}

	// parity: all three engines agree on the post-mutation result
	for _, mode := range []ExecMode{ExecInterpreted, ExecCompiled} {
		db.SetExecMode(mode)
		got := mustExec(t, s, asof).Rows
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("mode %d as-of rows %v != %v", mode, got, res)
		}
	}
}

// TestOrderBySingleKeyTyped checks the typed single-key ORDER BY fast path
// against the boxed multi-key path: appending a redundant second key forces
// the generic comparator, and a stable sort over identical keys must yield
// the identical permutation.
func TestOrderBySingleKeyTyped(t *testing.T) {
	s := NewDB().NewSession()
	mustExec(t, s, "CREATE TABLE ob (i bigint, f double precision, v varchar)")
	mustExec(t, s, `INSERT INTO ob VALUES
		(3, 2.5, 'b'), (1, 'NaN'::double precision, 'a'), (NULL, -0.5, NULL),
		(2, NULL, 'c'), (3, 2.5, 'a'), (-7, 'Infinity'::double precision, ''),
		(9223372036854775807, -1e308, 'zz'), (0, 0.0, 'b')`)
	for _, key := range []string{"i", "f", "v", "i DESC", "f DESC", "v DESC",
		"i ASC NULLS FIRST", "f DESC NULLS LAST", "v NULLS FIRST"} {
		single := mustExec(t, s, "SELECT i, f, v FROM ob ORDER BY "+key).Rows
		double := mustExec(t, s, "SELECT i, f, v FROM ob ORDER BY "+key+", "+key).Rows
		// fmt.Sprint instead of DeepEqual: the NaN row must compare equal to itself
		if fmt.Sprint(single) != fmt.Sprint(double) {
			t.Fatalf("ORDER BY %s: typed %v != boxed %v", key, single, double)
		}
	}
	// the already-sorted pre-check: ordering a sorted relation is a no-op
	// that must still produce exactly the sorted rows
	sorted := mustExec(t, s, "SELECT i FROM ob WHERE i IS NOT NULL ORDER BY i").Rows
	resorted := mustExec(t, s, "SELECT * FROM (SELECT i FROM ob WHERE i IS NOT NULL ORDER BY i) x ORDER BY i").Rows
	if !reflect.DeepEqual(sorted, resorted) {
		t.Fatalf("re-sorting a sorted relation changed it: %v vs %v", resorted, sorted)
	}
}

// TestIndexedJoinParity holds the typed hash join, which builds its side
// per query, to the interpreter: string and integer keys, NULL keys under =
// and IS NOT DISTINCT FROM, INNER and LEFT joins, and a right side that is a
// base table, a pass-through projection of one, a filtered subquery and a
// CREATE VIEW over the table — before and after INSERTs into both sides.
// Except over the stored view, which the engine boxes, the join's FROM must
// stay columnar, so the compiled run is the typed join.
func TestIndexedJoinParity(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	for _, stmt := range []string{
		"CREATE TABLE f (k varchar, ki bigint, x bigint)",
		"CREATE TABLE dim (k varchar, ki bigint, y bigint)",
		"CREATE VIEW dv AS SELECT k, ki, y FROM dim",
		"INSERT INTO f VALUES ('a',1,1),('b',2,2),(NULL,NULL,3),('a',1,4),('zz',26,5)",
		"INSERT INTO dim VALUES ('a',1,10),('b',2,20),(NULL,NULL,30),('c',3,40)",
	} {
		mustExec(t, s, stmt)
	}
	rights := []string{
		"dim",
		"(SELECT k AS k, ki AS ki, y AS y FROM dim)",
		"(SELECT k, ki, y FROM dim WHERE y > 15)",
		"dv",
	}
	var queries []string
	for _, r := range rights {
		for _, join := range []string{"JOIN", "LEFT JOIN"} {
			for _, key := range []string{"k", "ki"} {
				for _, op := range []string{"=", "IS NOT DISTINCT FROM"} {
					queries = append(queries, fmt.Sprintf(
						"SELECT f.k, f.x, r.y FROM f %s %s r ON f.%s %s r.%s", join, r, key, op, key))
				}
			}
		}
	}
	check := func(when string) {
		t.Helper()
		for _, q := range queries {
			stmt, err := sqlparse.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			db.SetExecMode(ExecCompiled)
			rel, err := s.buildFrom(stmt.(*sqlparse.SelectStmt).From)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if rel.store == nil && !strings.Contains(q, " dv ") {
				t.Errorf("%s: the join ran over boxed rows", q)
			}
			got := fmt.Sprint(mustExec(t, s, q).Rows)
			db.SetExecMode(ExecInterpreted)
			if want := fmt.Sprint(mustExec(t, s, q).Rows); got != want {
				t.Errorf("%s %s:\n  compiled:    %s\n  interpreted: %s", when, q, got, want)
			}
		}
	}
	check("before inserts:")
	mustExec(t, s, "INSERT INTO dim VALUES ('zz',26,50),(NULL,NULL,60),('a',1,70)")
	mustExec(t, s, "INSERT INTO f VALUES ('c',3,6),(NULL,NULL,7)")
	check("after inserts:")
}

// TestTranslatedShapeIndexPaths drives the exact SQL shapes the Hyper-Q
// translator emits — null-safe equality predicates and as-of joins whose
// sides are wrapped in bare pass-through projections — and checks they answer
// as the interpreter does and reach the as-of bucket cache as hand-written
// SQL does.
func TestTranslatedShapeIndexPaths(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE tr (sym varchar, tm bigint, px double precision)")
	mustExec(t, s, `INSERT INTO tr VALUES
		('GOOG',10,1.0),('IBM',11,2.0),('GOOG',20,3.0),(NULL,30,4.0),('IBM',21,5.0)`)
	mustExec(t, s, "CREATE TABLE qt (sym varchar, tm bigint, bid double precision, ask double precision)")
	mustExec(t, s, `INSERT INTO qt VALUES
		('GOOG',5,0.9,1.1),('GOOG',15,2.9,3.1),('IBM',8,1.9,2.1),(NULL,25,3.9,4.1)`)
	stats := db.IndexStats()

	// translated equality: IS [NOT] DISTINCT FROM handles NULL cells per
	// null-safe semantics (matched by the plain variant, not by NOT)
	preds := []struct {
		where string
		want  int
	}{
		{"sym IS NOT DISTINCT FROM 'GOOG'::varchar", 2},
		{"'IBM'::varchar IS NOT DISTINCT FROM sym", 2},
		{"sym IS DISTINCT FROM 'GOOG'", 3}, // includes the NULL row
		{"sym IS NOT DISTINCT FROM NULL", 1},
		{"sym IS DISTINCT FROM NULL", 4},
	}
	for _, p := range preds {
		q := "SELECT COUNT(*) FROM tr WHERE " + p.where
		var rows [][]any
		for _, mode := range []ExecMode{ExecCompiled, ExecInterpreted} {
			db.SetExecMode(mode)
			got := mustExec(t, s, q).Rows
			if got[0][0].(int64) != int64(p.want) {
				t.Fatalf("mode %d WHERE %s = %v, want %d", mode, p.where, got[0][0], p.want)
			}
			if rows != nil && !reflect.DeepEqual(got, rows) {
				t.Fatalf("mode %d WHERE %s diverged: %v vs %v", mode, p.where, got, rows)
			}
			rows = got
		}
	}
	// translated as-of: both sides behind pass-through projections; the
	// bucket cache must key on the base store and survive the wrapper
	db.SetExecMode(ExecCompiled)
	asofWrapped := `SELECT sym, tm, px, bid, ask FROM (
		SELECT a.sym, a.tm, a.px, b.bid, b.ask,
		       ROW_NUMBER() OVER (PARTITION BY a.tm ORDER BY b.tm DESC) AS rn
		FROM (SELECT sym AS sym, tm AS tm, px AS px FROM tr) a
		LEFT JOIN (SELECT sym AS sym, tm AS tm, bid AS bid, ask AS ask FROM qt) b
		  ON a.sym IS NOT DISTINCT FROM b.sym AND b.tm <= a.tm
	) x WHERE rn = 1 ORDER BY tm`
	asofDirect := `SELECT sym, tm, px, bid, ask FROM (
		SELECT a.sym, a.tm, a.px, b.bid, b.ask,
		       ROW_NUMBER() OVER (PARTITION BY a.tm ORDER BY b.tm DESC) AS rn
		FROM tr a LEFT JOIN qt b
		  ON a.sym IS NOT DISTINCT FROM b.sym AND b.tm <= a.tm
	) x WHERE rn = 1 ORDER BY tm`
	builds0 := stats.AsofBuilds.Load()
	want := mustExec(t, s, asofWrapped).Rows
	if stats.AsofBuilds.Load() != builds0+1 {
		t.Fatalf("wrapped as-of did not build the bucket cache (builds %d -> %d)",
			builds0, stats.AsofBuilds.Load())
	}
	hits0 := stats.AsofHits.Load()
	again := mustExec(t, s, asofWrapped).Rows
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("cached wrapped as-of diverged: %v vs %v", again, want)
	}
	if stats.AsofHits.Load() != hits0+1 {
		t.Fatalf("repeat wrapped as-of missed the cache")
	}
	// the direct shape shares the entry: same base columns, same cache key
	direct := mustExec(t, s, asofDirect).Rows
	if fmt.Sprint(direct) != fmt.Sprint(want) {
		t.Fatalf("direct as-of %v != wrapped %v", direct, want)
	}
	if stats.AsofHits.Load() != hits0+2 {
		t.Fatalf("direct as-of did not share the wrapped shape's cache entry")
	}
	for _, mode := range []ExecMode{ExecInterpreted, ExecCompiled} {
		db.SetExecMode(mode)
		got := mustExec(t, s, asofWrapped).Rows
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mode %d wrapped as-of rows %v != %v", mode, got, want)
		}
	}

	// equi-join through a pass-through wrapper
	db.SetExecMode(ExecCompiled)
	joinWrapped := `SELECT a.sym, a.px, b.bid, a.tm AS atm, b.tm AS btm FROM tr a
		JOIN (SELECT sym AS sym, tm AS tm, bid AS bid FROM qt) b ON a.sym = b.sym
		ORDER BY atm, btm`
	jw := mustExec(t, s, joinWrapped).Rows
	for _, mode := range []ExecMode{ExecInterpreted, ExecCompiled} {
		db.SetExecMode(mode)
		got := mustExec(t, s, joinWrapped).Rows
		if !reflect.DeepEqual(got, jw) {
			t.Fatalf("mode %d wrapped join rows %v != %v", mode, got, jw)
		}
	}

	// a mutation through the wrapper still invalidates: new quote visible
	db.SetExecMode(ExecCompiled)
	mustExec(t, s, "INSERT INTO qt VALUES ('GOOG',19,8.9,9.1)")
	post := mustExec(t, s, asofWrapped).Rows
	if reflect.DeepEqual(post, want) {
		t.Fatalf("as-of cache served stale buckets after INSERT")
	}
	for _, mode := range []ExecMode{ExecInterpreted, ExecCompiled} {
		db.SetExecMode(mode)
		got := mustExec(t, s, asofWrapped).Rows
		if !reflect.DeepEqual(got, post) {
			t.Fatalf("mode %d post-insert as-of rows %v != %v", mode, got, post)
		}
	}
}
