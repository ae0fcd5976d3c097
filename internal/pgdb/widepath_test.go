package pgdb_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/pgdb"
	"hyperq/internal/taq"
	"hyperq/internal/workload"
)

// rowFallbacks sums the database's walker-block counters over every reason.
func rowFallbacks(db *pgdb.DB) int64 {
	var n int64
	for k, v := range db.IndexStats().Vars() {
		if strings.HasPrefix(k, "pgdb.row_fallbacks.") {
			n += v
		}
	}
	return n
}

// TestWideResultsLeaveColumnar runs the 25 workload queries, translated by a
// Hyper-Q session and served over ServeConn, twice each — text cells, then
// binary — and then the point_lookups, cold_scan and ingest_mix shapes.
// None takes a walker step: every block runs on the vector paths, and the
// translator's SELECT ... FROM (grouped) ORDER BY ordcol wrapper of a `by`
// query is a view over the grouped store. Every translated ORDER BY finds
// its rows already in order (ordcol ascends through a scan and through
// MIN(ordcol) per group in first-appearance order), so the tail neither
// sorts nor gathers them.
func TestWideResultsLeaveColumnar(t *testing.T) {
	ctx := context.Background()
	db := pgdb.NewDB()
	b, err := gateway.Pipe(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := workload.Setup(ctx, b, taq.Config{Seed: 1, Trades: 400, Quotes: 800, WideCols: 500}); err != nil {
		t.Fatal(err)
	}
	s := core.NewPlatform().NewSession(b, core.Config{})
	defer s.Close()
	if _, _, err := s.Run(ctx, "avgpx: 100.0"); err != nil {
		t.Fatal(err)
	}
	check := func(name, q string, runs int) {
		t.Helper()
		before := rowFallbacks(db)
		for run := range runs {
			if _, _, err := s.Run(ctx, q); err != nil {
				t.Fatalf("%s run %d: %v", name, run, err)
			}
		}
		if n := rowFallbacks(db) - before; n != 0 {
			t.Errorf("%s: %d blocks ran on the walker, want none", name, n)
		}
		sql, _, err := s.Translate(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(sql, "ORDER BY") {
			return
		}
		if sorts, err := pgdb.SortsRows(db, sql); err != nil || sorts {
			t.Errorf("%s: ORDER BY moves rows %v (%v), want them already in order", name, sorts, err)
		}
	}
	for _, q := range workload.Queries() {
		check(fmt.Sprintf("q%02d", q.ID), q.Q, 2)
	}
	shapes := append([]string{
		"select from daily where Symbol=`GOOG, Volume<1000000000",
		"select attr_007 from refdata where Symbol=`GOOG, attr_007<1000000000",
		"select Close from daily where Symbol=`GOOG, High>0.5",
		"select Symbol, attr_100, attr_250 from refdata where Symbol=`GOOG, attr_499<1000000000",
		"select rng:High-Low from daily where Symbol=`GOOG, Low>0.5",
		"exec Close from daily where Symbol=`GOOG, Volume<1000000000",
		"select Sector from refdata where Symbol=`GOOG, attr_000<1000000000",
		"select Symbol, Open, Close from daily where Symbol=`GOOG, Open>0.5",
	}, benchShapes...)
	for i, q := range shapes {
		check(fmt.Sprintf("shape %d (%s)", i, q), q, 1)
	}
}

// TestOrderByFallback: a top-level ORDER BY that is not the identity on the
// block's column store — a key that is not ascending, a DESC key, a
// nullable key, a float key, two keys — sorts a permutation of the store
// and gathers it, and the rows arrive sorted, as they do when the store is
// already in order. A key that names no output column is refused.
func TestOrderByFallback(t *testing.T) {
	ctx := context.Background()
	db := pgdb.NewDB()
	gw, err := gateway.Pipe(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	const n = 5000 // more than one segment
	type row struct {
		id, k int64
		null  bool // n is NULL
		f     float64
	}
	rows := make([]row, n)
	var vals []string
	for i := range rows {
		r := row{id: int64(i), k: int64(i * 7919 % 101), null: i%17 == 3, f: float64(i%250) / 8}
		rows[i] = r
		nv := fmt.Sprint(r.k - 50)
		if r.null {
			nv = "NULL"
		}
		vals = append(vals, fmt.Sprintf("(%d, %d, %s, %g)", r.id, r.k, nv, r.f))
	}
	for _, sql := range []string{"CREATE TABLE o (id bigint, k bigint, n bigint, f double precision)",
		"INSERT INTO o VALUES " + strings.Join(vals, ", ")} {
		if _, err := gw.Exec(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}
	byKey := func(key func(r row) float64, desc bool) []int64 {
		s := slices.Clone(rows)
		slices.SortStableFunc(s, func(a, b row) int {
			c := 0
			switch ka, kb := key(a), key(b); {
			case ka < kb:
				c = -1
			case ka > kb:
				c = 1
			}
			if desc {
				return -c
			}
			return c
		})
		ids := make([]int64, len(s))
		for i, r := range s {
			ids[i] = r.id
		}
		return ids
	}
	// NULLS LAST ascending: a NULL n sorts above every value
	nKey := func(r row) float64 {
		if r.null {
			return 1e9
		}
		return float64(r.k - 50)
	}
	for _, c := range []struct {
		sql  string
		want []int64
	}{
		{"SELECT id, k FROM (SELECT id, k FROM o) t ORDER BY id", byKey(func(r row) float64 { return float64(r.id) }, false)},
		{"SELECT id, k FROM (SELECT id, k FROM o) t ORDER BY k", byKey(func(r row) float64 { return float64(r.k) }, false)},
		{"SELECT id, k FROM o ORDER BY id DESC", byKey(func(r row) float64 { return float64(r.id) }, true)},
		{"SELECT id, n FROM o ORDER BY n", byKey(nKey, false)},
		{"SELECT id, f FROM o ORDER BY f", byKey(func(r row) float64 { return r.f }, false)},
		{"SELECT id, k FROM o ORDER BY k, id", byKey(func(r row) float64 { return float64(r.k*n) + float64(r.id) }, false)},
	} {
		res, err := gw.Exec(ctx, c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		got := make([]int64, len(res.Rows))
		for i, r := range res.Rows {
			fmt.Sscan(r[0].Text, &got[i])
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: rows out of order", c.sql)
		}
	}
	if _, err := gw.Exec(ctx, "SELECT id FROM o ORDER BY k"); err == nil || !strings.Contains(err.Error(), "42P10") {
		t.Errorf("ORDER BY a key that is not an output column: %v, want SQLSTATE 42P10", err)
	}
}
