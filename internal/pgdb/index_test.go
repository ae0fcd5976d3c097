package pgdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// indexedDB returns a database with lazy indexing forced on (no row
// threshold), so small test tables exercise every access path.
func indexedDB(t *testing.T) (*DB, *Session) {
	t.Helper()
	db := NewDB()
	db.SetIndexMinRows(0)
	return db, db.NewSession()
}

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
	db, s := indexedDB(t)
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
	db, s := indexedDB(t)
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

// TestHashIndexDMLParity runs the same statement stream — with lookups
// interleaved so indexes build early and INSERTs then maintain them —
// against an indexed and an index-free database, requiring identical
// results after every step.
func TestHashIndexDMLParity(t *testing.T) {
	dbi := NewDB()
	dbi.SetIndexMinRows(0)
	dbn := NewDB()
	dbn.SetIndexMinRows(-1)
	si, sn := dbi.NewSession(), dbn.NewSession()

	probes := []string{
		"SELECT count(*), sum(n) FROM kv WHERE k = 'a'",
		"SELECT count(*), sum(n) FROM kv WHERE k = 'b'",
		"SELECT count(*), sum(n) FROM kv WHERE (k IS NOT DISTINCT FROM 'a') OR (k IS NOT DISTINCT FROM 'c') OR (k IS NOT DISTINCT FROM 'zz')",
		"SELECT count(*), sum(n) FROM kv WHERE n = 5",
		"SELECT count(*), sum(n) FROM kv WHERE (n IS NOT DISTINCT FROM 1) OR (n IS NOT DISTINCT FROM 3)",
		"SELECT count(*), sum(n) FROM kv WHERE k IS NOT DISTINCT FROM NULL",
		"SELECT count(*) FROM kv a JOIN kv b ON a.k = b.k",
		"SELECT k, count(*) FROM kv GROUP BY k ORDER BY k",
	}
	steps := []string{
		"CREATE TABLE kv (k varchar, n bigint)",
		"INSERT INTO kv VALUES ('a',1),('b',2),('a',3),('c',4),('b',5),(NULL,6)",
		"INSERT INTO kv VALUES ('a',7),('d',8)",
		"INSERT INTO kv VALUES ('b',50),(NULL,5)",
		"INSERT INTO kv VALUES ('a',9),(NULL,10)",
		"INSERT INTO kv VALUES ('e',NULL),('zz',1)",
	}
	for _, step := range steps {
		mustExec(t, si, step)
		mustExec(t, sn, step)
		for _, q := range probes {
			ri := mustExec(t, si, q)
			rn := mustExec(t, sn, q)
			if !reflect.DeepEqual(ri.Rows, rn.Rows) {
				t.Fatalf("after %q: %s\n  indexed:   %v\n  unindexed: %v", step, q, ri.Rows, rn.Rows)
			}
		}
	}
	stats := dbi.IndexStats()
	if stats.Builds.Load() == 0 {
		t.Fatalf("the indexed database never built an index")
	}
	if dbn.IndexStats().Builds.Load() != 0 {
		t.Fatalf("the disabled database built an index")
	}
}

// TestIndexTypeDegradation: an append of a value outside the index's kind
// drops the index (sticky), and results stay correct through the fallback.
func TestIndexTypeDegradation(t *testing.T) {
	db, s := indexedDB(t)
	// unsorted, so the equality lookup routes to the hash index rather than
	// the sorted attribute's binary search
	mustExec(t, s, "CREATE TABLE mix (k bigint)")
	mustExec(t, s, "INSERT INTO mix VALUES (3),(1),(2),(2)")
	mustExec(t, s, "SELECT count(*) FROM mix WHERE k = 2") // builds
	if db.IndexStats().Builds.Load() != 1 {
		t.Fatalf("expected one build, got %d", db.IndexStats().Builds.Load())
	}
	// SQL coerces writes to the column type, so reach below it: a raw float
	// append is the kind-mixing mutation the maintenance hook must survive
	st := storeOf(t, db, "mix")
	st.appendRow([]any{2.5})
	res := mustExec(t, s, "SELECT count(*) FROM mix WHERE k = 2")
	if res.Rows[0][0].(int64) != 2 {
		t.Fatalf("post-degradation count = %v", res.Rows[0][0])
	}
	if db.IndexStats().Invalidations.Load() == 0 {
		t.Fatalf("type degradation did not invalidate")
	}
	// bytes accounting returns to zero once every index is gone
	if b := db.IndexStats().BytesResident.Load(); b != 0 {
		t.Fatalf("BytesResident = %d after all indexes dropped", b)
	}
}

// TestIndexConcurrentLookups hammers one table with concurrent point lookups
// (shared statement lock) so the lazy build, the hit path, and the postings
// reads race against each other; run under -race.
func TestIndexConcurrentLookups(t *testing.T) {
	db, s := indexedDB(t)
	mustExec(t, s, "CREATE TABLE c (k bigint, v varchar)")
	for lo := 0; lo < 4000; lo += 500 {
		sql := "INSERT INTO c VALUES "
		for i := lo; i < lo+500; i++ {
			if i > lo {
				sql += ","
			}
			sql += fmt.Sprintf("(%d,'s%d')", i%97, i%13)
		}
		mustExec(t, s, sql)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.NewSession()
			for i := 0; i < 40; i++ {
				q := fmt.Sprintf("SELECT count(*) FROM c WHERE k = %d", (g*7+i)%97)
				if i%3 == 0 {
					q = fmt.Sprintf("SELECT count(*) FROM c WHERE v = 's%d'", (g+i)%13)
				}
				if _, err := sess.Exec(q); err != nil {
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
	if st.Builds.Load() == 0 || st.Hits.Load() == 0 {
		t.Fatalf("concurrent run built %d indexes, hit %d", st.Builds.Load(), st.Hits.Load())
	}
}

// TestAsofBucketCache: repeated fused as-of joins against an unchanged right
// table reuse the cached bucket index; any mutation invalidates it.
func TestAsofBucketCache(t *testing.T) {
	db, s := indexedDB(t)
	mustExec(t, s, "CREATE TABLE lt (id bigint, sym varchar, tm bigint)")
	mustExec(t, s, "CREATE TABLE rt (sym varchar, tm bigint, px double precision)")
	mustExec(t, s, "INSERT INTO lt VALUES (0,'a',10),(1,'a',20),(2,'b',15)")
	mustExec(t, s, "INSERT INTO rt VALUES ('a',5,1.0),('a',15,2.0),('b',12,3.0)")
	asof := `SELECT sym, tm, px FROM (
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
	_, s := indexedDB(t)
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

// TestIndexedJoinParity: equi-joins using the prebuilt index build side must
// match the generic hash join (index off) across join types.
func TestIndexedJoinParity(t *testing.T) {
	dbi := NewDB()
	dbi.SetIndexMinRows(0)
	dbn := NewDB()
	dbn.SetIndexMinRows(-1)
	for _, stmt := range []string{
		"CREATE TABLE f (k varchar, x bigint)",
		"CREATE TABLE dim (k varchar, y bigint)",
		"INSERT INTO f VALUES ('a',1),('b',2),(NULL,3),('a',4),('zz',5)",
		"INSERT INTO dim VALUES ('a',10),('b',20),(NULL,30),('c',40)",
	} {
		mustExec(t, dbi.NewSession(), stmt)
		mustExec(t, dbn.NewSession(), stmt)
	}
	queries := []string{
		"SELECT f.k, x, y FROM f JOIN dim ON f.k = dim.k ORDER BY x, y",
		"SELECT f.k, x, y FROM f LEFT JOIN dim ON f.k = dim.k ORDER BY x, y",
		"SELECT f.k, x, y FROM f JOIN dim ON f.k IS NOT DISTINCT FROM dim.k ORDER BY x, y",
		"SELECT f.k, x, y FROM f JOIN dim ON f.k = dim.k WHERE y > 10 ORDER BY x, y",
	}
	for _, mode := range []ExecMode{ExecCompiled} {
		dbi.SetExecMode(mode)
		dbn.SetExecMode(mode)
		for _, q := range queries {
			ri := mustExec(t, dbi.NewSession(), q)
			rn := mustExec(t, dbn.NewSession(), q)
			if !reflect.DeepEqual(ri.Rows, rn.Rows) {
				t.Fatalf("mode %d %s:\n  indexed:   %v\n  unindexed: %v", mode, q, ri.Rows, rn.Rows)
			}
		}
	}
	if dbi.IndexStats().Builds.Load() == 0 {
		t.Fatalf("joins never built an index")
	}
}

// TestTranslatedShapeIndexPaths drives the exact SQL shapes the Hyper-Q
// translator emits — null-safe equality predicates and as-of joins whose
// sides are wrapped in bare pass-through projections — and checks they reach
// the same index-backed fast paths as hand-written SQL.
func TestTranslatedShapeIndexPaths(t *testing.T) {
	db, s := indexedDB(t)
	mustExec(t, s, "CREATE TABLE tr (sym varchar, tm bigint, px double precision)")
	mustExec(t, s, `INSERT INTO tr VALUES
		('GOOG',10,1.0),('IBM',11,2.0),('GOOG',20,3.0),(NULL,30,4.0),('IBM',21,5.0)`)
	mustExec(t, s, "CREATE TABLE qt (sym varchar, tm bigint, bid double precision, ask double precision)")
	mustExec(t, s, `INSERT INTO qt VALUES
		('GOOG',5,0.9,1.1),('GOOG',15,2.9,3.1),('IBM',8,1.9,2.1),(NULL,25,3.9,4.1)`)
	stats := db.IndexStats()

	// translated equality: IS [NOT] DISTINCT FROM must lower to the
	// vectorized kernels and consult the index, with NULL cells handled per
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
	if stats.Hits.Load()+stats.Builds.Load() == 0 {
		t.Fatalf("translated equality predicates never touched an index")
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

	// equi-join through a pass-through wrapper probes the prebuilt side
	db.SetExecMode(ExecCompiled)
	jb0 := stats.Builds.Load() + stats.Hits.Load()
	joinWrapped := `SELECT a.sym, a.px, b.bid FROM tr a
		JOIN (SELECT sym AS sym, tm AS tm, bid AS bid FROM qt) b ON a.sym = b.sym
		ORDER BY a.tm, b.tm`
	jw := mustExec(t, s, joinWrapped).Rows
	if stats.Builds.Load()+stats.Hits.Load() == jb0 {
		t.Fatalf("wrapped join build side never consulted the index")
	}
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
