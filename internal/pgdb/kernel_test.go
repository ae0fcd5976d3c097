package pgdb

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"hyperq/internal/pgdb/sqlparse"
)

// kernelRows is the row count of the kernel test table: two full segments
// and part of a third.
const kernelRows = 2*segSize + 300

// mkKernelDB bulk-loads the kernel test table kt. The numeric columns draw
// from the values arithmetic gets wrong first — NULL, zero divisors,
// MinInt64/MaxInt64 overflow, NaN, ±Inf and ±0 — plus per-segment kinds: m
// holds ints in segment 0 and floats after, z is all NULL in segment 0.
// s, flag and v (strings and ints mixed in one vector) are operands the
// kernels must decline.
func mkKernelDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.CreateTable("kt", []Column{
		{Name: "g", Type: "varchar"},
		{Name: "a", Type: "bigint"},
		{Name: "b", Type: "bigint"},
		{Name: "x", Type: "double precision"},
		{Name: "y", Type: "double precision"},
		{Name: "m", Type: "double precision"},
		{Name: "z", Type: "bigint"},
		{Name: "s", Type: "varchar"},
		{Name: "flag", Type: "boolean"},
		{Name: "v", Type: "varchar"},
	})
	ints := []any{nil, int64(0), int64(1), int64(-1), int64(2), int64(7), int64(-3), int64(100),
		int64(math.MinInt64), int64(math.MaxInt64)}
	floats := []any{nil, 0.0, math.Copysign(0, -1), 1.5, -2.25, 3.0, 1e300, math.NaN(),
		math.Inf(1), math.Inf(-1)}
	r := rand.New(rand.NewSource(7))
	rows := make([][]any, kernelRows)
	for i := range rows {
		var m, z any = ints[r.Intn(len(ints))], nil
		if i >= segSize {
			m, z = floats[r.Intn(len(floats))], ints[r.Intn(len(ints))]
		}
		var v any = fmt.Sprint(i)
		if i%2 == 0 {
			v = int64(i)
		}
		rows[i] = []any{
			fmt.Sprintf("k%d", r.Intn(5)),
			ints[r.Intn(len(ints))], ints[r.Intn(len(ints))],
			floats[r.Intn(len(floats))], floats[r.Intn(len(floats))],
			m, z, fmt.Sprint(r.Intn(3)), r.Intn(2) == 0, v,
		}
	}
	if err := db.InsertRows("kt", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// kernelExpr generates a random numeric expression over kt of the given
// depth from every shape the kernels lower.
func kernelExpr(r *rand.Rand, depth int) string {
	if depth == 0 || r.Intn(4) == 0 {
		leaves := []string{"a", "b", "x", "y", "m", "z", "0", "1", "-1", "3", "2.5", "0.0",
			"'NaN'::double precision", "NULL"}
		return leaves[r.Intn(len(leaves))]
	}
	sub := func() string { return kernelExpr(r, depth-1) }
	switch r.Intn(10) {
	case 0:
		return "-(" + sub() + ")"
	case 4:
		return "FLOOR(" + sub() + ")"
	case 1:
		return "CAST(" + sub() + []string{" AS bigint)", " AS double precision)", " AS integer)"}[r.Intn(3)]
	case 2:
		return "NULLIF(" + sub() + []string{", 'NaN'::double precision)", ", 0)", ", 1.5)"}[r.Intn(3)]
	case 3:
		preds := []string{"a > 2", "x IS NULL", "g = 'k1'", "b <> 0", "x < 0.5 OR a IS NULL"}
		arms := "WHEN " + preds[r.Intn(len(preds))] + " THEN " + sub()
		if r.Intn(2) == 0 {
			arms += " WHEN " + preds[r.Intn(len(preds))] + " THEN " + sub()
		}
		els := "NULL"
		if r.Intn(2) == 0 {
			els = sub()
		}
		return "CASE " + arms + " ELSE " + els + " END"
	default:
		return "(" + sub() + " " + []string{"+", "-", "*", "/", "%"}[r.Intn(5)] + " " + sub() + ")"
	}
}

func parseItem(t *testing.T, expr string) sqlparse.Expr {
	t.Helper()
	stmt, err := sqlparse.Parse("SELECT " + expr + " FROM kt")
	if err != nil {
		t.Fatalf("%s: %v", expr, err)
	}
	return stmt.(*sqlparse.SelectStmt).Items[0].Expr
}

// kernelSelections are the selections each segment is evaluated over: every
// row, a random third, one row and none.
func kernelSelections(r *rand.Rand, n int) [][]int32 {
	var third []int32
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			third = append(third, int32(i))
		}
	}
	return [][]int32{iota32[:n], third, {int32(r.Intn(n))}, {}}
}

// TestValueKernelsMatchRowPath holds every kernel to the walker, entry by
// entry: the same NULLs, the same kind, the same int64 or float64 bits, and
// a division-by-zero failure exactly where the walker returns 22012. Then
// the fused computed-argument aggregates and computed GROUP BY keys run
// against execGrouped over the same table, filtered and not, including a
// frozen slot the items never read and a key that divides by zero, and
// min/max over an argument whose kind differs across segments declines and
// matches the interpreter.
func TestValueKernelsMatchRowPath(t *testing.T) {
	db := mkKernelDB(t)
	s := db.NewSession()
	st := db.tables["kt"].store
	schema := schemaOf(st.cols, "kt")
	r := rand.New(rand.NewSource(1))
	lowered, failed := 0, 0
	var exprs []string
	for n := 0; n < 300; n++ {
		expr := kernelExpr(r, 1+n%4)
		e := parseItem(t, expr)
		k, ok := lowerValue(e, schema, st)
		if !ok {
			continue // CASE arms of different kinds in some segment
		}
		lowered++
		exprs = append(exprs, expr)
		failed += requireKernelMatchesWalker(t, r, st, expr, k)
	}
	t.Logf("%d of 300 expressions lowered, %d entries divided by zero", lowered, failed)
	if lowered < 200 || failed == 0 {
		t.Fatalf("%d expressions lowered and %d entries divided by zero: the generator misses the kernels", lowered, failed)
	}

	declined := 0
	for i, expr := range exprs[:60] {
		where := []string{"", " WHERE a > 0", " WHERE g = 'k2' OR x IS NULL"}[i%3]
		for _, q := range []string{
			fmt.Sprintf("SELECT g, count(%[1]s), sum(%[1]s), avg(%[1]s) FROM kt%s GROUP BY g", expr, where),
			fmt.Sprintf("SELECT count(*), CASE WHEN count(*) < 0 THEN sum(%s) ELSE 0 END FROM kt%s", expr, where),
			fmt.Sprintf("SELECT %[1]s, count(*), median(a) FROM kt%[2]s GROUP BY %[1]s", expr, where),
		} {
			requireFusedMatchesWalker(t, s, st, schema, q)
		}
		// min and max fuse only over a kernel of one kind in every segment;
		// the others (m is int in segment 0, float after) take the row fold
		q := fmt.Sprintf("SELECT g, min(%[1]s), max(%[1]s) FROM kt%s GROUP BY g", expr, where)
		k, _ := lowerValue(parseItem(t, expr), schema, st)
		if _, oneKind := storeKind(k, st); oneKind {
			requireFusedMatchesWalker(t, s, st, schema, q)
			continue
		}
		declined++
		stmt, err := sqlparse.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := s.execGroupedVec(stmt.(*sqlparse.SelectStmt), &relation{schema: schema, store: st}, nil); ok {
			t.Fatalf("%s: fused over a kernel whose kind differs across segments", q)
		}
		requireMatchesInterpreter(t, db, q)
	}
	if declined == 0 {
		t.Fatalf("no min/max argument changes kind across segments: the decline is untested")
	}
}

// TestFloorKernelMatchesWalker holds FLOOR's kernel to the walker over the
// operands that distinguish them: negative values, ±0, NaN, ±Inf and NULL
// from kt's float columns, ints from its bigint columns, a column that is
// ints in one segment and floats in the others, and the serializer's xbar
// over a constant bucket and over a bucket that is not a constant.
func TestFloorKernelMatchesWalker(t *testing.T) {
	db := mkKernelDB(t)
	st := db.tables["kt"].store
	schema := schemaOf(st.cols, "kt")
	r := rand.New(rand.NewSource(3))
	for _, expr := range []string{
		"FLOOR(x)", "FLOOR(-y)", "FLOOR(a)", "FLOOR(m)", "FLOOR(z)", "FLOOR(NULL)", "FLOOR(-2.5)",
		"FLOOR(x / y)", "FLOOR(CAST(a AS double precision) / 3)",
		"((5) * FLOOR(CAST(a AS double precision) / (5)))",
		"((b) * FLOOR(CAST(a AS double precision) / (b)))",
		"((x) * FLOOR(CAST(y AS double precision) / (x)))",
		"CAST(((300000) * FLOOR(CAST(a AS double precision) / (300000))) AS time)",
		"CAST(FLOOR(CAST(a AS double precision) / NULLIF(b, 0)) AS bigint)",
	} {
		k, ok := lowerValue(parseItem(t, expr), schema, st)
		if !ok {
			t.Fatalf("%s does not lower", expr)
		}
		requireKernelMatchesWalker(t, r, st, expr, k)
	}
}

// requireKernelMatchesWalker evaluates kernel k of expr over every segment of
// st under several selections and holds each entry to the walker over the
// same row. It returns the number of entries that divided by zero.
func requireKernelMatchesWalker(t *testing.T, r *rand.Rand, st *colStore, expr string, k valKernel) (failed int) {
	t.Helper()
	e, schema := parseItem(t, expr), schemaOf(st.cols, "kt")
	rows := st.boxSel(nil, seq(0, len(st.cols)))
	for si := 0; si < st.numSegs(); si++ {
		seg := st.seg(si)
		for _, pos := range kernelSelections(r, seg.n) {
			o := k.eval(seg, pos)
			nulls := 0
			for j, i := range pos {
				if o.isNull(j) {
					nulls++
				}
				want, err := evalExpr(e, schema, rows[si*segSize+int(i)])
				var pe *Error
				switch {
				case err != nil && errors.As(err, &pe) && pe.Code == "22012":
					if !o.failed(j) {
						t.Fatalf("%s, row %d: the walker divides by zero, the kernel gives %v", expr, si*segSize+int(i), o.get(j))
					}
					failed++
				case err != nil:
					t.Fatalf("%s lowered, but the walker fails with %v", expr, err)
				case o.failed(j):
					t.Fatalf("%s, row %d: the kernel divides by zero, the walker gives %v", expr, si*segSize+int(i), want)
				case !sameBits(o.get(j), want):
					t.Fatalf("%s, row %d: kernel %#v, walker %#v", expr, si*segSize+int(i), o.get(j), want)
				}
			}
			if o.nullCnt != nulls {
				t.Fatalf("%s: nullCnt %d, %d NULL entries", expr, o.nullCnt, nulls)
			}
		}
	}
	return failed
}

// requireMatchesInterpreter runs q on db in the compiled engine and in the
// interpreter and requires the same rows or the same error text.
func requireMatchesInterpreter(t *testing.T, db *DB, q string) {
	t.Helper()
	defer db.SetExecMode(ExecCompiled)
	var res [2]*Result
	var errs [2]error
	for i, mode := range []ExecMode{ExecCompiled, ExecInterpreted} {
		db.SetExecMode(mode)
		res[i], errs[i] = db.NewSession().Exec(q)
	}
	if (errs[0] == nil) != (errs[1] == nil) || errs[0] != nil && errs[0].Error() != errs[1].Error() {
		t.Fatalf("%s:\n  compiled err:    %v\n  interpreted err: %v", q, errs[0], errs[1])
	}
	if errs[0] != nil {
		return
	}
	if len(res[0].Rows) != len(res[1].Rows) {
		t.Fatalf("%s: %d rows compiled, %d interpreted", q, len(res[0].Rows), len(res[1].Rows))
	}
	for i := range res[0].Rows {
		if !rowsEqualNaN(res[0].Rows[i], res[1].Rows[i]) {
			t.Fatalf("%s: row %d:\n  compiled:    %v\n  interpreted: %v", q, i, res[0].Rows[i], res[1].Rows[i])
		}
	}
}

// sameBits reports whether a kernel entry and a walker value are the same
// value of the same type, floats compared bit for bit.
func sameBits(got, want any) bool {
	if gf, ok := got.(float64); ok {
		wf, ok := want.(float64)
		return ok && math.Float64bits(gf) == math.Float64bits(wf)
	}
	return reflect.DeepEqual(got, want)
}

// requireFusedMatchesWalker runs a grouped select over kt through the fused
// path and through execGrouped over the boxed selected rows.
func requireFusedMatchesWalker(t *testing.T, s *Session, st *colStore, schema []colBinding, q string) {
	t.Helper()
	stmt, err := sqlparse.Parse(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	sel := stmt.(*sqlparse.SelectStmt)
	var selBits []uint64
	if sel.Where != nil {
		p, ok := lowerVecPred(sel.Where, schema, st)
		if !ok {
			t.Fatalf("%s: WHERE does not lower", q)
		}
		if selBits, err = s.evalVecPred(p, st); err != nil {
			t.Fatal(err)
		}
	}
	fused, ok, ferr := s.execGroupedVec(sel, &relation{schema: schema, store: st}, selBits)
	if !ok {
		t.Fatalf("%s: not fused", q)
	}
	rel := &relation{schema: schema, rows: st.boxSel(selBits, seq(0, len(st.cols)))}
	walk, werr := s.execGrouped(sel, rel)
	if (ferr == nil) != (werr == nil) || ferr != nil && ferr.Error() != werr.Error() {
		t.Fatalf("%s:\n  fused err:  %v\n  walker err: %v", q, ferr, werr)
	}
	if ferr != nil {
		return
	}
	if !reflect.DeepEqual(fused.Cols, walk.Cols) || len(fused.Rows) != len(walk.Rows) {
		t.Fatalf("%s: fused %v %d rows, walker %v %d rows", q, fused.Cols, len(fused.Rows), walk.Cols, len(walk.Rows))
	}
	for i := range fused.Rows {
		if !rowsEqualNaN(fused.Rows[i], walk.Rows[i]) {
			t.Fatalf("%s: row %d:\n  fused:  %v\n  walker: %v", q, i, fused.Rows[i], walk.Rows[i])
		}
	}
}

// TestValueKernelsDecline pins the shapes and operands the kernels refuse:
// string, bool and mixed-value columns, non-numeric constants, and
// operators and functions outside the lowered set. A fused aggregate over
// such an argument declines to execGrouped.
func TestValueKernelsDecline(t *testing.T) {
	db := mkKernelDB(t)
	st := db.tables["kt"].store
	schema := schemaOf(st.cols, "kt")
	for _, expr := range []string{
		"s + 1", "flag + 1", "v * 2", "-s", "CAST(v AS bigint)", "NULLIF(flag, 1)",
		"a + 'x'", "NULLIF(a, 'x')", "NULLIF(a, b)", "a || 'x'", "abs(a)", "a > 1",
		"CASE WHEN a > 1 THEN s END", "CASE WHEN a / b > 2 THEN 1 END", // a condition that can raise
		"CASE WHEN a > 1 THEN a ELSE x END", // int and float arms
		"CAST(a AS varchar)", "m + 1 + s", "floor(s)", "floor(a, b)", "ceil(x)",
	} {
		if _, ok := lowerValue(parseItem(t, expr), schema, st); ok {
			t.Errorf("%s lowers", expr)
		}
	}
	// m holds ints in one segment and floats in the others: it lowers, and a
	// CASE between it and an int column does not; a condition comparing a
	// kernel lowers, one dividing by a non-zero constant too
	for expr, want := range map[string]bool{"m * 2": true, "CASE WHEN g = 'k1' THEN m ELSE a END": false,
		"CASE WHEN a + 1 > 2 THEN 1 END": true, "CASE WHEN a % 3 <> 0 THEN x END": true} {
		if _, ok := lowerValue(parseItem(t, expr), schema, st); ok != want {
			t.Errorf("%s: lowers %v, want %v", expr, ok, want)
		}
	}
	stmt, err := sqlparse.Parse("SELECT g, sum(v * 2) FROM kt GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*sqlparse.SelectStmt)
	calls, _ := aggCalls(sel.Items)
	if _, ok := planFusedSlots(calls, schema, st); ok {
		t.Error("sum over a mixed-value column fuses")
	}
}

// TestValueKernelProjections holds projectVec's computed items to the
// interpreter: boxed at top level, gathered into a subquery's private
// store, filtered and not, through a CASE masked by its filter, and failing
// on a division by zero only where a selected row divides.
func TestValueKernelProjections(t *testing.T) {
	for _, q := range []string{
		"SELECT g, a * b, x / y, NULLIF(x - y, 'NaN'::double precision) FROM kt",
		"SELECT a + 1, CAST(a - b AS double precision) / (a + b) FROM kt WHERE b > 0 AND a > 0",
		"SELECT g, q FROM (SELECT g, ordcol, m * 2 AS q FROM (SELECT g, a AS ordcol, m FROM kt) r WHERE ordcol > 1) t ORDER BY g, q",
		"SELECT n FROM (SELECT CASE WHEN b <> 0 THEN a / b ELSE NULL END AS n FROM kt) t WHERE n > 0",
		"SELECT count(*), sum(n) FROM (SELECT CASE WHEN g = 'k1' THEN NULLIF(x * a, 'NaN'::double precision) ELSE NULL END AS n, g FROM kt WHERE a IS NOT NULL) t",
		"SELECT a / b FROM kt",              // fails: some selected b is 0
		"SELECT a % b FROM kt WHERE b <> 0", // no selected row divides by zero
		"SELECT * FROM (SELECT a % b AS r FROM kt WHERE b = 0 AND a IS NULL) t", // NULL operand: no error
		"SELECT * FROM (SELECT a / b AS r FROM kt WHERE g = 'k3') t",
	} {
		requireVecParity(t, mkKernelDB, q)
	}
}

// TestKernelScratchSizedToSelection checks that a kernel's scratch grows to
// the selection it evaluates, not to a segment.
func TestKernelScratchSizedToSelection(t *testing.T) {
	db := mkKernelDB(t)
	st := db.tables["kt"].store
	k, ok := lowerValue(parseItem(t, "NULLIF(CAST(a - b AS double precision) / x, 'NaN'::double precision)"), schemaOf(st.cols, "kt"), st)
	if !ok {
		t.Fatal("does not lower")
	}
	seg := st.seg(0)
	out := k.eval(seg, []int32{5, 4000})
	if len(out.floats) != 2 || cap(out.floats) > 8 || bits.OnesCount64(out.nullWord(0)) != out.nullCnt {
		t.Fatalf("two selected rows: %d floats, capacity %d", len(out.floats), cap(out.floats))
	}
}
