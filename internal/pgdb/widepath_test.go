package pgdb_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/pgdb"
	"hyperq/internal/taq"
	"hyperq/internal/workload"
)

// wireForms records, for each top-level SELECT the database runs, whether
// its result left execution as a column store.
type wireForms struct {
	mu    sync.Mutex
	forms []bool
}

func watchWire(db *pgdb.DB) *wireForms {
	w := &wireForms{}
	pgdb.OnSelect(db, func(columnar bool) {
		w.mu.Lock()
		w.forms = append(w.forms, columnar)
		w.mu.Unlock()
	})
	return w
}

// take returns the forms recorded since the last call.
func (w *wireForms) take() []bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.forms
	w.forms = nil
	return out
}

// wideQueries are the workload queries whose results are the rows of a
// table or join, not an aggregate: plain vector projections that every
// translation wraps in SELECT ... FROM (...) ORDER BY ordcol.
var wideQueries = map[int]bool{1: true, 2: true, 9: true, 10: true, 12: true, 14: true, 15: true,
	18: true, 19: true, 21: true, 22: true, 23: true}

// TestWideResultsLeaveColumnar pins the result path of the 25 workload
// queries, translated by a Hyper-Q session and served over ServeConn: the
// twelve wide results leave pgdb as column stores — their ORDER BY ordcol
// is the identity, so the top-level select boxes nothing — and the grouped
// and row-path results leave as rows. Each query runs twice, with text and
// then binary cells. A run's last result is the query's own; any before it
// are the binder's catalog lookups.
func TestWideResultsLeaveColumnar(t *testing.T) {
	ctx := context.Background()
	db := pgdb.NewDB()
	wire := watchWire(db)
	b, err := gateway.Pipe(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Setup(ctx, b, taq.Config{Seed: 1, Trades: 400, Quotes: 800, WideCols: 500}); err != nil {
		t.Fatal(err)
	}
	s := core.NewPlatform().NewSession(b, core.Config{})
	defer s.Close()
	if _, _, err := s.Run(ctx, "avgpx: 100.0"); err != nil {
		t.Fatal(err)
	}
	wire.take()
	for _, q := range workload.Queries() {
		for run := range 2 {
			if _, _, err := s.Run(ctx, q.Q); err != nil {
				t.Fatalf("q%02d: %v", q.ID, err)
			}
			forms := wire.take()
			if len(forms) == 0 || forms[len(forms)-1] != wideQueries[q.ID] {
				t.Errorf("q%02d run %d: results columnar %v, want the last %v", q.ID, run, forms, wideQueries[q.ID])
			}
		}
	}
}

// TestOrderByFallback: a top-level ORDER BY that is not the identity on the
// column store — a key that is not ascending, a DESC key, a nullable key, a
// float key, two keys — boxes the store and sorts it, and the rows arrive
// sorted; an ascending integer key leaves the store as it is.
func TestOrderByFallback(t *testing.T) {
	ctx := context.Background()
	db := pgdb.NewDB()
	wire := watchWire(db)
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
	wire.take()
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
		sql      string
		want     []int64
		columnar bool
	}{
		{"SELECT id, k FROM (SELECT id, k FROM o) t ORDER BY id", byKey(func(r row) float64 { return float64(r.id) }, false), true},
		{"SELECT id, k FROM (SELECT id, k FROM o) t ORDER BY k", byKey(func(r row) float64 { return float64(r.k) }, false), false},
		{"SELECT id, k FROM o ORDER BY id DESC", byKey(func(r row) float64 { return float64(r.id) }, true), false},
		{"SELECT id, n FROM o ORDER BY n", byKey(nKey, false), false},
		{"SELECT id, f FROM o ORDER BY f", byKey(func(r row) float64 { return r.f }, false), false},
		{"SELECT id, k FROM o ORDER BY k, id", byKey(func(r row) float64 { return float64(r.k*n) + float64(r.id) }, false), false},
		{"SELECT id FROM o ORDER BY k", byKey(func(r row) float64 { return float64(r.k) }, false), false},
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
		if forms := wire.take(); !slices.Equal(forms, []bool{c.columnar}) {
			t.Errorf("%s: columnar %v, want %v", c.sql, forms, c.columnar)
		}
	}
}
