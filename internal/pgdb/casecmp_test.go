package pgdb_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hyperq/internal/persist"
	"hyperq/internal/pgdb"
)

// nullSafeCmp renders `l op r` exactly as the Hyper-Q serializer does for a
// q comparison (serializer.cmpSQL): q orders NULL below every value, so the
// SQL guards both sides with a searched CASE.
func nullSafeCmp(op, l, r string) string {
	switch op {
	case "<":
		return "(CASE WHEN " + l + " IS NULL THEN (" + r + " IS NOT NULL) WHEN " + r + " IS NULL THEN FALSE ELSE (" + l + " < " + r + ") END)"
	case ">":
		return "(CASE WHEN " + r + " IS NULL THEN (" + l + " IS NOT NULL) WHEN " + l + " IS NULL THEN FALSE ELSE (" + l + " > " + r + ") END)"
	case "<=":
		return "(CASE WHEN " + l + " IS NULL THEN TRUE WHEN " + r + " IS NULL THEN FALSE ELSE (" + l + " <= " + r + ") END)"
	default:
		return "(CASE WHEN " + r + " IS NULL THEN TRUE WHEN " + l + " IS NULL THEN FALSE ELSE (" + l + " >= " + r + ") END)"
	}
}

// caseCols are the columns of the comparison table with their literals:
// NULL, NaN and ±Inf where the type has them, one below the column's
// minimum, one above its maximum, and values inside its range.
var caseCols = []struct {
	name, typ string
	lits      []string
}{
	{"id", "bigint", []string{"NULL", "-1", "4100", "99999"}}, // sorted: answered by binary search
	{"i", "bigint", []string{"NULL", "'NaN'::double precision", "'Infinity'::double precision",
		"'-Infinity'::double precision", "-5000", "5000", "0", "17", "2.5"}},
	{"f", "double precision", []string{"NULL", "'NaN'::double precision", "'Infinity'::double precision",
		"'-Infinity'::double precision", "-1e9", "1e9", "-0.0", "12.25", "3"}},
	{"tm", "time", []string{"NULL", "-1", "'00:00:00.000'::time", "'10:00:00.000'::time", "'23:59:59.999'::time"}},
	{"d", "date", []string{"NULL", "'2000-01-01'::date", "'2015-11-28'::date", "'2030-01-01'::date"}},
	{"s", "varchar", []string{"NULL", "''", "'a'", "'s100'", "'zzz'"}},
}

// caseRows builds n rows with a NULL in every column at its own period, and
// NaN, ±Inf and -0 among the floats.
func caseRows(n int) [][]any {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	rows := make([][]any, n)
	for k := range rows {
		f := float64(k%500)/4 - 60
		if k%97 < len(specials) {
			f = specials[k%97]
		}
		row := []any{int64(k), int64(k*7919%2001 - 1000), f, int64(k * 37_000 % 86_400_000),
			int64(5800 + k%30), fmt.Sprintf("s%03d", k%200)}
		if k%113 == 3 {
			row[5] = ""
		}
		for c := 1; c < len(row); c++ {
			if k%(7+2*c) == c {
				row[c] = nil
			}
		}
		rows[k] = row
	}
	return rows
}

func loadCaseTable(t *testing.T, db *pgdb.DB, rows [][]any) {
	t.Helper()
	cols := make([]pgdb.Column, len(caseCols))
	for c, cc := range caseCols {
		cols[c] = pgdb.Column{Name: cc.name, Type: cc.typ}
	}
	db.CreateTable("t", cols)
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
}

// caseShapes is every translator comparison over every column and literal,
// with the column on either side, plus searched CASEs whose arms do not fold
// away.
func caseShapes() []string {
	out := []string{
		"CASE WHEN f > 0.0 THEN i < 0 WHEN s IS NULL THEN TRUE ELSE tm < 40000000 END",
		"CASE WHEN i < -900 THEN NULL WHEN d IS NULL THEN FALSE ELSE d > 5810 END",
		"CASE WHEN s < 's050' THEN f IS NULL WHEN i IS NULL THEN FALSE WHEN tm > 1000 THEN i IS NULL END",
	}
	for _, cc := range caseCols {
		for _, lit := range cc.lits {
			for _, op := range []string{"<", ">", "<=", ">="} {
				out = append(out, nullSafeCmp(op, cc.name, lit), nullSafeCmp(op, lit, cc.name))
			}
		}
	}
	return out
}

// notShapes negates comparisons and compositions of them. The two-valued
// ones can never be NULL: every translator comparison that puts a NULL
// column below the literal (q orders NULL lowest), every comparison with a
// NULL literal, and ORs whose IS NULL arm covers the NULL cells of the
// comparisons beside it. The three-valued ones can be NULL, which NOT keeps
// NULL.
func notShapes() (twoValued, threeValued []string) {
	for _, cc := range caseCols {
		for _, lit := range cc.lits {
			for _, op := range []string{"<", ">", "<=", ">="} {
				// nullLow holds where a NULL column sits below the literal
				nullLow, nullHigh := "NOT "+nullSafeCmp(op, cc.name, lit), "NOT "+nullSafeCmp(op, lit, cc.name)
				if op == ">" || op == ">=" {
					nullLow, nullHigh = nullHigh, nullLow
				}
				twoValued = append(twoValued, nullLow)
				if lit == "NULL" {
					twoValued = append(twoValued, nullHigh)
				} else {
					threeValued = append(threeValued, nullHigh)
				}
			}
		}
	}
	twoValued = append(twoValued,
		"NOT (i IS NULL OR i < 5 OR f IS NULL OR f >= 2.5)",
		"NOT (tm IS NOT NULL AND (d IS NULL OR d BETWEEN 5805 AND 5820))",
		"NOT NOT (f IS NULL OR f < 0.0)",
		"NOT (TRUE AND s IS NULL)",
	)
	threeValued = append(threeValued,
		"NOT (i < 5)",
		"NOT (i IS NULL OR s < 'b')",
		"NOT (s IS NOT DISTINCT FROM 'a')",
		"NOT (f IS NULL OR f < NULL)",
		"NOT (CASE WHEN i IS NULL THEN NULL ELSE i > 0 END)",
		"NOT (CASE WHEN i IS NULL THEN NULL ELSE i IS NOT NULL END)",
	)
	return twoValued, threeValued
}

// requireSameIDs runs `SELECT id FROM t WHERE where` on the engine under test
// and the interpreter oracle and requires the same rows in the same order.
func requireSameIDs(t *testing.T, got, oracle *pgdb.Session, where string) {
	t.Helper()
	q := "SELECT id FROM t WHERE " + where
	g, err := got.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	w, err := oracle.Exec(q)
	if err != nil {
		t.Fatalf("%s (interpreted): %v", q, err)
	}
	if fmt.Sprint(g.Rows) != fmt.Sprint(w.Rows) {
		t.Fatalf("%s: %d rows, interpreter %d", q, len(g.Rows), len(w.Rows))
	}
}

// TestCaseLoweringExact: the translator's null-safe ordered comparison, and
// NOT over it, lowers to a bitmap program, and that program selects exactly
// the rows the interpreter does, on a table straddling a segment boundary
// with NULL, NaN and ±Inf cells. NOT lowers over an operand that can be NULL
// too, and keeps its NULL rows NULL.
func TestCaseLoweringExact(t *testing.T) {
	rows := caseRows(pgdb.SegmentSize + 37)
	db, oracle := pgdb.NewDB(), pgdb.NewDB()
	oracle.SetExecMode(pgdb.ExecInterpreted)
	loadCaseTable(t, db, rows)
	loadCaseTable(t, oracle, rows)
	s, ref := db.NewSession(), oracle.NewSession()
	twoValued, threeValued := notShapes()
	for _, where := range slices.Concat(caseShapes(), twoValued, threeValued) {
		if !pgdb.LowersToVector(db, "t", where) {
			t.Fatalf("does not lower: %s", where)
		}
		requireSameIDs(t, s, ref, where)
	}
}

// TestCaseLoweringColdBudget runs the same shapes against a durable store
// reopened cold under a memory budget far below the table, so every
// checkpointed segment is evicted between statements and the lowered
// program decides it from zone metadata (stubSeg) or faults it back in.
func TestCaseLoweringColdBudget(t *testing.T) {
	rows := caseRows(2*pgdb.SegmentSize + 37)
	dir := t.TempDir()
	db := pgdb.NewDB()
	st, err := persist.Open(db, persist.Options{Dir: dir, Sync: persist.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	loadCaseTable(t, db, rows)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	db = pgdb.NewDB()
	if st, err = persist.Open(db, persist.Options{Dir: dir, Sync: persist.SyncNone, MemBudget: 4096}); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	oracle := pgdb.NewDB()
	oracle.SetExecMode(pgdb.ExecInterpreted)
	loadCaseTable(t, oracle, rows)
	s, ref := db.NewSession(), oracle.NewSession()
	twoValued, threeValued := notShapes()
	for _, where := range slices.Concat(caseShapes(), twoValued, threeValued) {
		requireSameIDs(t, s, ref, where)
	}
	if st.Stats().Evictions.Load() == 0 {
		t.Fatalf("the budget never evicted a segment")
	}
}
