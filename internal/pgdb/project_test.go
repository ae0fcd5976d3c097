package pgdb

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"hyperq/internal/pgdb/sqlparse"
)

// newProjectDB holds one table p of n rows with a NULL now and then.
func newProjectDB(t testing.TB, n int) (*DB, *Session) {
	t.Helper()
	db := NewDB()
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE p (id bigint, sym varchar, px double precision)"); err != nil {
		t.Fatal(err)
	}
	syms := []string{"GOOG", "IBM", "", "MSFT", "AAPL"}
	rows := make([][]any, n)
	for i := range rows {
		var px any = float64(i%97) / 4
		if i%13 == 0 {
			px = nil
		}
		rows[i] = []any{int64(i), syms[i%len(syms)], px}
	}
	if err := db.InsertRows("p", rows); err != nil {
		t.Fatal(err)
	}
	return db, s
}

// tableRows boxes table p's rows from its vectors.
func tableRows(s *Session) [][]any {
	t, _ := s.lookupTable("p")
	return t.store.boxSel(nil, seq(0, len(t.cols)))
}

// notVec filters p through a predicate the vector engine cannot lower, so
// the filter keeps the rows it boxed and a pass-through wrapper over it
// shares them.
const notVec = "(SELECT * FROM p WHERE lower(sym) = lower(sym)) q"

// TestPassThroughProjectionLeavesRowsUnchanged: a pass-through wrapper over
// a column store is a view sharing its input's vectors, and ORDER BY, UNION
// ALL and LIMIT above one gather a private store instead of reordering
// anything in place: a statement's result is the same the second time, and
// the table's rows never change.
func TestPassThroughProjectionLeavesRowsUnchanged(t *testing.T) {
	_, s := newProjectDB(t, 300)
	stmt, err := sqlparse.Parse("SELECT * FROM p WHERE lower(sym) = lower(sym)")
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := s.lookupTable("p")
	if _, ok := lowerVecPred(stmt.(*sqlparse.SelectStmt).Where, schemaOf(tbl.cols, "p"), tbl.store); ok {
		t.Fatal("the filter lowers to a vector program; pick one that does not")
	}
	before := tableRows(s)
	all, err := sqlparse.Parse("SELECT * FROM p")
	if err != nil {
		t.Fatal(err)
	}
	rel := &relation{schema: schemaOf(tbl.cols, "p"), store: tbl.store}
	out, ok, err := s.projectVec(all.(*sqlparse.SelectStmt), rel, nil)
	if err != nil || !ok || out.store.src != tbl.store {
		t.Fatalf("identity wrapper is not a view of its input (%v, %v)", ok, err)
	}
	for _, q := range []string{
		// identity wrappers
		"SELECT id AS id, sym AS sym, px AS px FROM " + notVec + " ORDER BY px DESC, id LIMIT 40",
		"SELECT * FROM " + notVec + " ORDER BY sym",
		"SELECT id, sym, px FROM " + notVec + " UNION ALL SELECT id, sym, px FROM " + notVec + " ORDER BY id DESC",
		// arena projections
		"SELECT px AS px, id AS id FROM " + notVec + " ORDER BY px NULLS FIRST, id LIMIT 25",
		"SELECT sym AS s FROM " + notVec + " ORDER BY s DESC NULLS LAST",
		"SELECT sym, id FROM " + notVec + " UNION ALL SELECT sym, id FROM " + notVec + " ORDER BY id LIMIT 9",
	} {
		first, err := s.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		second, err := s.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !reflect.DeepEqual(first.Rows, second.Rows) {
			t.Errorf("%s: second run differs from the first", q)
		}
		if !reflect.DeepEqual(tableRows(s), before) {
			t.Fatalf("%s: changed the table's rows", q)
		}
	}
}

// TestInsertDoesNotRewriteSharedRows: a result handed out before an INSERT
// keeps the rows it was computed with — its rows, which an identity
// projection shares with the statement's relation, belong to that finished
// statement — and the write is visible afterwards.
func TestInsertDoesNotRewriteSharedRows(t *testing.T) {
	_, s := newProjectDB(t, 50)
	held, err := s.Exec("SELECT * FROM " + notVec)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]any, len(held.Rows))
	for i, r := range held.Rows {
		want[i] = append([]any(nil), r...)
	}
	if _, err := s.Exec("INSERT INTO p VALUES (1000, 'new', -1.0)"); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(held.Rows, want) {
		t.Fatal("INSERT rewrote rows a previous result shares")
	}
	res, err := s.Exec("SELECT px FROM " + notVec + " WHERE id = 1000")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != -1.0 {
		t.Fatalf("INSERT not visible afterwards: %v", res.Rows)
	}
}

// TestPassThroughProjectionAllocs holds a pass-through wrapper over a
// column store, the identity projection and a reordering one alike, to a
// view: its allocations follow the input's segment count, not its row count.
func TestPassThroughProjectionAllocs(t *testing.T) {
	allocs := func(n int, q string) float64 {
		_, s := newProjectDB(t, n)
		stmt, err := sqlparse.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		sel := stmt.(*sqlparse.SelectStmt)
		tbl, _ := s.lookupTable("p")
		rel := &relation{schema: schemaOf(tbl.cols, "q"), store: tbl.store}
		return testing.AllocsPerRun(20, func() {
			if _, ok, err := s.projectVec(sel, rel, nil); err != nil || !ok {
				t.Fatalf("%s: vector projection declined (%v)", q, err)
			}
		})
	}
	for _, q := range []string{
		"SELECT id AS id, sym AS sym, px AS px FROM q",
		"SELECT px AS px, id AS id FROM q",
	} {
		small, large := allocs(3*segSize+1, q), allocs(4*segSize, q)
		if large != small {
			t.Errorf("%s: %.0f allocations at %d rows, %.0f at %d", q, small, 3*segSize+1, large, 4*segSize)
		}
	}
}

// TestBoxingPollsContext: a top-level vector projection checks the
// statement's context before it copies the table, and a CREATE TABLE AS
// once per segment as it boxes the rows, so a cancelled statement stops
// before it reads the table or writes a row.
func TestBoxingPollsContext(t *testing.T) {
	_, s := newProjectDB(t, 3*segSize)
	before := tableRows(s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []string{"SELECT id, sym FROM p", "CREATE TEMPORARY TABLE c AS SELECT id, px FROM p WHERE px > 1"} {
		if _, err := s.ExecContext(ctx, q); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: %v, want the cancellation", q, err)
		}
	}
	if !reflect.DeepEqual(tableRows(s), before) {
		t.Fatal("a cancelled statement changed the table")
	}
	if _, ok := s.lookupTable("c"); ok {
		t.Fatal("a cancelled CREATE TABLE AS created its table")
	}
}
