package pgdb

import (
	"fmt"
	"testing"
)

// Dictionary-encoded string vectors: every string kernel works per
// segment-dictionary entry, so these tests hold the vector engine to the
// walker over string columns whose segments differ in what their
// dictionaries hold.

// dictSyms returns n symbols named prefix0, prefix1, ...
func dictSyms(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// mkDictDB loads
//   - d(id, s, t, v): segment 0 cycles 16 symbols with NULL and the empty
//     string among them, segment 1 cycles 16 other symbols (a disjoint
//     dictionary), segment 2 holds 4096 distinct strings, and a partial
//     segment 3 mixes segment 0's symbols with new ones;
//   - e(s, sector): a lookup table over some of d's symbols and one it
//     lacks, for a join whose gathered sector column is grouped on;
//   - u(s): a small table for UNION ALL with d;
//   - l(id, k, t) and r(k, t, v): as-of sides whose key dictionaries
//     differ per segment.
func mkDictDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.CreateTable("d", []Column{{"id", "bigint"}, {"s", "varchar"}, {"t", "bigint"}, {"v", "bigint"}})
	lo, hi := dictSyms("sym", 16), dictSyms("alt", 16)
	var rows [][]any
	add := func(s any) {
		i := int64(len(rows))
		rows = append(rows, []any{i, s, i * 10, i % 13})
	}
	for i := 0; i < segSize; i++ {
		switch i % 19 {
		case 3:
			add(nil)
		case 5:
			add("")
		default:
			add(lo[i%16])
		}
	}
	for i := 0; i < segSize; i++ {
		add(hi[(i*7)%16])
	}
	for i := 0; i < segSize; i++ {
		add(fmt.Sprintf("u%04d", (i*37)%segSize))
	}
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			add(lo[i%16])
		} else {
			add(fmt.Sprintf("tail%d", i%5))
		}
	}
	if err := db.InsertRows("d", rows); err != nil {
		t.Fatal(err)
	}

	db.CreateTable("e", []Column{{"s", "varchar"}, {"sector", "varchar"}})
	var erows [][]any
	for i, s := range append(append([]string{}, lo[:8]...), hi[:8]...) {
		erows = append(erows, []any{s, fmt.Sprintf("sector%d", i%3)})
	}
	erows = append(erows, []any{"absent", "sector9"}, []any{"", "blank"}, []any{"u0042", "unique"})
	if err := db.InsertRows("e", erows); err != nil {
		t.Fatal(err)
	}

	db.CreateTable("u", []Column{{"s", "varchar"}})
	if err := db.InsertRows("u", [][]any{{"sym3"}, {"new"}, {nil}, {""}, {"alt15"}}); err != nil {
		t.Fatal(err)
	}

	db.CreateTable("l", []Column{{"id", "bigint"}, {"k", "varchar"}, {"t", "bigint"}})
	db.CreateTable("r", []Column{{"k", "varchar"}, {"t", "bigint"}, {"v", "bigint"}})
	var lrows, rrows [][]any
	for i := 0; i < segSize+500; i++ {
		var k any = lo[i%16]
		if i >= segSize {
			k = hi[i%16]
		}
		if i%97 == 0 {
			k = nil
		}
		lrows = append(lrows, []any{int64(i), k, int64(i * 3)})
	}
	for i := 0; i < 2*segSize+10; i++ {
		var k any = lo[(i*5)%16]
		if i%3 == 0 {
			k = hi[i%16]
		}
		rrows = append(rrows, []any{k, int64(i * 2), int64(i)})
	}
	if err := db.InsertRows("l", lrows); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("r", rrows); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestDictVectorsMatchWalker(t *testing.T) {
	queries := []string{
		// single-key grouping over NULL, '', disjoint and unique dictionaries
		"SELECT s, count(*), sum(v), min(t), max(t), first(id), last(id) FROM d GROUP BY s",
		"SELECT s, count(*) FROM d WHERE id >= 4000 AND id < 8300 GROUP BY s",
		"SELECT s, v, count(*) FROM d GROUP BY s, v",
		// comparisons and LIKE
		"SELECT id FROM d WHERE s = 'sym3'",
		"SELECT id FROM d WHERE s = ''",
		"SELECT id FROM d WHERE s = 'nowhere'",
		"SELECT count(*) FROM d WHERE s <> 'sym3'",
		"SELECT count(*) FROM d WHERE s < 'sym'",
		"SELECT count(*) FROM d WHERE s < 'sym3'",
		"SELECT count(*) FROM d WHERE s > 'alt7'",
		"SELECT count(*) FROM d WHERE s <= 'alt7'",
		"SELECT count(*) FROM d WHERE s > 'tail'",
		"SELECT count(*) FROM d WHERE s >= 'u2000'",
		"SELECT count(*) FROM d WHERE s > ''",
		"SELECT id FROM d WHERE s LIKE 'tail%'",
		"SELECT count(*) FROM d WHERE s LIKE '%1_'",
		"SELECT count(*) FROM d WHERE s IS NULL",
		"SELECT count(*) FROM d WHERE s IS NOT DISTINCT FROM 'alt2' OR s IS NOT DISTINCT FROM 'u0007'",
		// a join, then grouping on the gathered column (one source segment)
		"SELECT e.sector, count(*), sum(d.v) FROM d JOIN e ON d.s = e.s GROUP BY e.sector",
		"SELECT e.sector, count(*) FROM d LEFT JOIN e ON d.s = e.s GROUP BY e.sector",
		// the gathered side drawn from several segments of d
		"SELECT x.s, count(*) FROM e JOIN d x ON e.s = x.s GROUP BY x.s",
		"SELECT x.s, e.sector FROM e LEFT JOIN d x ON e.s = x.s WHERE x.id > 4090 AND x.id < 4200",
		// a filtered subquery gathers across segment boundaries
		"SELECT s, count(*) FROM (SELECT s, v FROM d WHERE v > 10) z GROUP BY s",
		"SELECT s, id FROM (SELECT s, id FROM d WHERE id % 1000 < 3) z",
		// UNION ALL of two tables
		"SELECT s, count(*) FROM (SELECT s FROM d UNION ALL SELECT s FROM u) z GROUP BY s",
		// as-of on a symbol key
		fmt.Sprintf(asofTmpl, "a.id", "l", "r", "=", ""),
		fmt.Sprintf(asofTmpl, "a.id", "l", "r", "IS NOT DISTINCT FROM", ""),
	}
	for _, q := range queries {
		if requireVecParity(t, mkDictDB, q) == nil {
			t.Errorf("%s: fails in both engines", q)
		}
	}
}

// TestDictGroupProbesOncePerEntry pins a single-key string GROUP BY to one
// string-map probe per dictionary entry per segment.
func TestDictGroupProbesOncePerEntry(t *testing.T) {
	db := NewDB()
	db.CreateTable("t", []Column{{"s", "varchar"}, {"v", "bigint"}})
	syms := dictSyms("sym", 16)
	const segs = 3
	rows := make([][]any, segs*segSize)
	for i := range rows {
		rows[i] = []any{syms[(i*5)%16], int64(i)}
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	res := mustExec(t, s, "SELECT s, count(*) FROM t GROUP BY s")
	if len(res.Rows) != 16 {
		t.Fatalf("%d groups, want 16", len(res.Rows))
	}
	if s.strProbes != 16*segs {
		t.Fatalf("%d string probes, want %d: one per dictionary entry per segment", s.strProbes, 16*segs)
	}
}

// TestDictMemBytes pins a string vector's accounting: 2 B per row plus each
// dictionary entry once.
func TestDictMemBytes(t *testing.T) {
	st := newColStore([]Column{{"s", "varchar"}})
	syms := dictSyms("symbol", 16)
	want := int64(2 * segSize)
	for _, s := range syms {
		want += int64(len(s)) + 16
	}
	for i := 0; i < segSize; i++ {
		st.appendRow([]any{syms[i%16]})
	}
	if got := st.residentBytes(); got != want {
		t.Fatalf("resident bytes %d, want %d", got, want)
	}
	if v := &st.peekSeg(0).vecs[0]; len(v.dict) != 16 || v.intern != nil {
		t.Fatalf("full segment: %d dictionary entries, intern map kept %v; want 16 and none", len(v.dict), v.intern != nil)
	}
}
