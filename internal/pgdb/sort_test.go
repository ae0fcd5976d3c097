package pgdb

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// refKey is one ORDER BY key of the reference sort: column col of the
// unordered rows, its direction and, when set, its NULL placement.
type refKey struct {
	col        int
	desc       bool
	nullsFirst *bool
}

// refSort stably sorts boxed rows the way PostgreSQL orders them: compareVals
// on the cells, NULLs last ascending and first descending unless a key
// says otherwise, ties in input order.
func refSort(rows [][]any, keys []refKey) {
	slices.SortStableFunc(rows, func(a, b []any) int {
		for _, k := range keys {
			av, bv := a[k.col], b[k.col]
			nullsFirst := k.desc
			if k.nullsFirst != nil {
				nullsFirst = *k.nullsFirst
			}
			switch {
			case av == nil && bv == nil:
				continue
			case av == nil && nullsFirst, bv == nil && !nullsFirst:
				return -1
			case av == nil, bv == nil:
				return 1
			}
			c := compareVals(av, bv)
			if k.desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	})
}

// TestStoreSortMatchesReference holds ORDER BY, UNION ALL and LIMIT over
// column stores to a reference: the same statement's unordered rows, boxed
// and sorted stably by compareVals in the test, and the walker alone
// (ExecInterpreted). The table spans three segments, so its strings come
// from three dictionaries and its mixed column is integer in one segment
// and boxed in the others; keys tie often, so stability shows.
func TestStoreSortMatchesReference(t *testing.T) {
	db, oracle := NewDB(), NewDB()
	oracle.SetExecMode(ExecInterpreted)
	cols := []Column{{Name: "id", Type: "bigint"}, {Name: "i", Type: "bigint"}, {Name: "f", Type: "double precision"},
		{Name: "s", Type: "varchar"}, {Name: "b", Type: "boolean"}, {Name: "m", Type: "varchar"}}
	n := 2*segSize + 300
	rows := make([][]any, n)
	floats := []float64{0.5, math.NaN(), -1, math.Inf(1), 0.5, math.Inf(-1), 2}
	strs := []string{"delta", "alpha", "", "charlie", "bravo", "alpha"}
	for r := range rows {
		row := []any{int64(r), int64((r * 7) % 13), floats[r%len(floats)], strs[(r+r/segSize)%len(strs)], r%3 == 0, int64(r % 5)}
		if r >= segSize {
			row[5] = []any{int64(r % 4), "x", 1.5, nil, true, "a"}[r%6]
		}
		for c := 1; c < len(row); c++ {
			if (r+c)%11 == 0 {
				row[c] = nil
			}
		}
		rows[r] = row
	}
	for _, d := range []*DB{db, oracle} {
		d.CreateTable("t", cols)
		if err := d.InsertRows("t", rows); err != nil {
			t.Fatal(err)
		}
	}
	if k := db.tables["t"].store.colKind(5); k != vkAny {
		t.Fatalf("mixed column m has kind %d, want vkAny", k)
	}
	first, last := true, false
	const union = "SELECT id, s, f FROM t WHERE i = 3 UNION ALL SELECT id, s, f FROM t UNION ALL SELECT id, s, f FROM t WHERE id < 10"
	for _, c := range []struct {
		body, order string
		keys        []refKey
		limit       string
	}{
		{"SELECT id, i, f FROM t", "i, f DESC", []refKey{{col: 1}, {col: 2, desc: true}}, ""},
		{"SELECT id, s, b FROM t", "s DESC NULLS LAST, b NULLS FIRST", []refKey{{col: 1, desc: true, nullsFirst: &last}, {col: 2, nullsFirst: &first}}, ""},
		{"SELECT id, m FROM t", "m", []refKey{{col: 1}}, ""},
		{"SELECT id, m, i FROM t", "m DESC, 3", []refKey{{col: 1, desc: true}, {col: 2}}, ""},
		{"SELECT id, f FROM t", "f NULLS FIRST", []refKey{{col: 1, nullsFirst: &first}}, ""},
		{"SELECT id, b, i FROM t", "b DESC, i NULLS FIRST", []refKey{{col: 1, desc: true}, {col: 2, nullsFirst: &first}}, ""},
		{"SELECT id, s FROM t WHERE i < 5", "2", []refKey{{col: 1}}, ""},
		{"SELECT s, count(*) AS n, min(id) AS o FROM t GROUP BY s", "o", []refKey{{col: 2}}, ""},
		{union, "s, f DESC", []refKey{{col: 1}, {col: 2, desc: true}}, ""},
		{union, "", nil, " LIMIT 7000"},
		{union, "f, id DESC", []refKey{{col: 2}, {col: 0, desc: true}}, " LIMIT 9"},
		{"SELECT id, i FROM t", "i DESC", []refKey{{col: 1, desc: true}}, " LIMIT 0"},
		{"SELECT id, i FROM t", "i DESC", []refKey{{col: 1, desc: true}}, " LIMIT 100000"},
		{"SELECT id, s FROM t", "s", []refKey{{col: 1}}, " LIMIT 4200"},
	} {
		sql := c.body
		if c.order != "" {
			sql += " ORDER BY " + c.order
		}
		sql += c.limit
		want := mustExec(t, oracle.NewSession(), c.body).Rows
		refSort(want, c.keys)
		var limit int
		if _, err := fmt.Sscanf(c.limit, " LIMIT %d", &limit); err == nil && limit < len(want) {
			want = want[:limit]
		}
		for _, d := range []*DB{db, oracle} {
			got := mustExec(t, d.NewSession(), sql).Rows
			if len(got) != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s (%v): %d rows differ from the reference's %d", sql, d.ExecutionMode(), len(got), len(want))
			}
		}
	}
}

// TestSortedIDsKeepsOrderedRows pins the tail's shortcut: rows already in
// ORDER BY order — ascending keys with ties, a DESC key over descending
// values, NULLs where the key puts them, a UNION ALL whose parts follow one
// another — come back as the ids given, so nothing sorts or gathers, while
// one row out of place sorts.
func TestSortedIDsKeepsOrderedRows(t *testing.T) {
	s := NewDB().NewSession()
	cols := []Column{{Name: "id", Type: "bigint"}, {Name: "tie", Type: "bigint"}, {Name: "down", Type: "double precision"}, {Name: "s", Type: "varchar"}}
	build := func(lo, n int) *colStore {
		rows := make([][]any, n)
		for i := range rows {
			r := lo + i
			rows[i] = []any{int64(r), int64(r / 100), float64(-r), fmt.Sprintf("k%06d", r)}
			if r >= lo+n-5 {
				rows[i][2] = nil // the last rows' down is NULL
			}
		}
		return columnize(cols, rows)
	}
	st := build(0, 2*segSize+300)
	for _, c := range []struct {
		keys  []sortKey
		sorts bool
	}{
		{[]sortKey{{col: 0}}, false},
		{[]sortKey{{col: 1}, {col: 3}}, false},
		{[]sortKey{{col: 1}}, false}, // ties keep their order
		{[]sortKey{{col: 2, desc: true}}, false},
		{[]sortKey{{col: 2, desc: true, nullsFirst: true}}, true},
		{[]sortKey{{col: 3, desc: true}}, true},
		{[]sortKey{{col: 1, desc: true}, {col: 0}}, true},
	} {
		ids, err := s.sortedIDs(st, nil, c.keys)
		if err != nil {
			t.Fatal(err)
		}
		if sorts := ids != nil; sorts != c.sorts {
			t.Errorf("keys %+v: sorted %v, want %v", c.keys, sorts, c.sorts)
		}
	}
	for _, c := range []struct {
		parts []*colStore
		sorts bool
	}{
		{[]*colStore{build(0, 10), build(10, segSize+5), build(segSize+15, 3)}, false},
		{[]*colStore{build(10, 10), build(0, 10)}, true},
	} {
		all, ids := concatStores(cols, c.parts)
		got, err := s.sortedIDs(all, ids, []sortKey{{col: 0}})
		if err != nil {
			t.Fatal(err)
		}
		if sorts := &got[0] != &ids[0]; sorts != c.sorts {
			t.Errorf("union of %d parts: sorted %v, want %v", len(c.parts), sorts, c.sorts)
		}
	}
}
