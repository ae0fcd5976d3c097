package pgdb

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// mkPredDB loads the predicate table: a sorted id, NULL-bearing ints (i, j),
// floats with NaN, ±0 and ±Inf (f, g), a column of ints in its first segment
// and floats after (m), strings (s) and bools (b), over three segments.
func mkPredDB(mode ExecMode) (*DB, error) {
	db := NewDB()
	db.SetExecMode(mode)
	db.CreateTable("pt", []Column{
		{Name: "id", Type: "bigint"}, {Name: "i", Type: "bigint"}, {Name: "j", Type: "bigint"},
		{Name: "f", Type: "double precision"}, {Name: "g", Type: "double precision"},
		{Name: "m", Type: "double precision"}, {Name: "s", Type: "varchar"}, {Name: "b", Type: "boolean"},
	})
	ints := []any{nil, int64(0), int64(1), int64(-1), int64(2), int64(7), int64(-3), int64(1000)}
	floats := []any{nil, 0.0, math.Copysign(0, -1), 1.5, -2.25, 7.0, math.NaN(), math.Inf(1), math.Inf(-1)}
	strs := []any{nil, "", "a", "b", "zz"}
	bools := []any{nil, true, false}
	r := rand.New(rand.NewSource(11))
	pick := func(vs []any) any { return vs[r.Intn(len(vs))] }
	rows := make([][]any, 2*segSize+300)
	for k := range rows {
		m := pick(ints)
		if k >= segSize {
			m = pick(floats)
		}
		rows[k] = []any{int64(k), pick(ints), pick(ints), pick(floats), pick(floats), m, pick(strs), pick(bools)}
	}
	return db, db.InsertRows("pt", rows)
}

// predGen builds a predicate over pt from fuzz bytes; an exhausted input
// reads as zeros, which pick leaves, so every input ends in a finite tree.
type predGen struct{ b []byte }

func (g *predGen) pick(n int) int {
	if len(g.b) == 0 {
		return 0
	}
	c := int(g.b[0])
	g.b = g.b[1:]
	return c % n
}

func (g *predGen) of(vs ...string) string { return vs[g.pick(len(vs))] }

func (g *predGen) cmpOp() string { return g.of("<", "=", ">", "<=", ">=", "<>") }

func (g *predGen) konst() string {
	return g.of("0", "7", "NULL", "-1", "2.5", "-0.0", "'NaN'::double precision",
		"'Infinity'::double precision", "'-Infinity'::double precision", "1000")
}

// kernel is a numeric expression: a column, a constant, or arithmetic,
// NULLIF, FLOOR, CAST, negation or a CASE over kernels. `/` and `%` divide
// mostly by constants, zero among them, so most trees lower.
func (g *predGen) kernel(d int) string {
	if d <= 0 {
		return g.of("i", "f", "j", "g", "m", "7", "2.5", "NULL")
	}
	switch g.pick(9) {
	case 1:
		return g.kernel(0)
	case 2:
		return "(" + g.kernel(d-1) + " " + g.of("+", "-", "*") + " " + g.kernel(d-1) + ")"
	case 3:
		return "(" + g.kernel(d-1) + " " + g.of("/", "%") + " " + g.of("3", "0", "-2", "2.5", "j", "f", "NULLIF(j, 0)") + ")"
	case 4:
		return "NULLIF(" + g.kernel(d-1) + ", " + g.of("0", "7", "-0.0", "'NaN'::double precision", "NULL") + ")"
	case 5:
		return "FLOOR(" + g.kernel(d-1) + ")"
	case 6:
		return "CAST(" + g.kernel(d-1) + " AS " + g.of("double precision", "bigint") + ")"
	case 7:
		return "(-" + g.kernel(d-1) + ")"
	case 8:
		return "(CASE WHEN " + g.pred(d-1) + " THEN " + g.kernel(d-1) + " ELSE " + g.kernel(d-1) + " END)"
	}
	return g.of("i", "f", "j", "g", "m") + " " + g.of("+", "*") + " " + g.konst()
}

// guarded is the translator's null-safe ordered comparison (q orders NULL
// lowest), as the serializer writes it.
func guarded(op, l, r string) string {
	switch op {
	case "<":
		return "(CASE WHEN " + l + " IS NULL THEN (" + r + " IS NOT NULL) WHEN " + r + " IS NULL THEN FALSE ELSE (" + l + " < " + r + ") END)"
	case ">":
		return "(CASE WHEN " + r + " IS NULL THEN (" + l + " IS NOT NULL) WHEN " + l + " IS NULL THEN FALSE ELSE (" + l + " > " + r + ") END)"
	case "<=":
		return "(CASE WHEN " + l + " IS NULL THEN TRUE WHEN " + r + " IS NULL THEN FALSE ELSE (" + l + " <= " + r + ") END)"
	}
	return "(CASE WHEN " + r + " IS NULL THEN TRUE WHEN " + l + " IS NULL THEN FALSE ELSE (" + l + " >= " + r + ") END)"
}

func (g *predGen) leaf() string {
	switch g.pick(7) {
	case 1:
		return "b"
	case 2:
		return g.of("TRUE", "FALSE", "NULL")
	case 3:
		return "(s " + g.of("= 'a'", "> 'a'", "IS NOT DISTINCT FROM 'b'", "IS DISTINCT FROM ''", "IS NULL", "<> NULL") + ")"
	case 4:
		return "(" + g.of("i", "f", "m", "b", "id") + " IS " + g.of("", "NOT ") + "NULL)"
	case 5:
		return "(" + g.of("i", "f", "id") + " BETWEEN " + g.konst() + " AND " + g.konst() + ")"
	case 6:
		return "(" + g.of("i", "f", "m", "id") + " IS " + g.of("", "NOT ") + "DISTINCT FROM " + g.konst() + ")"
	}
	return "(" + g.of("i", "f", "j", "g", "m", "id") + " " + g.cmpOp() + " " + g.konst() + ")"
}

func (g *predGen) pred(d int) string {
	if d <= 0 {
		return g.leaf()
	}
	switch g.pick(11) {
	case 1:
		return "(" + g.pred(d-1) + " AND " + g.pred(d-1) + ")"
	case 10:
		return "((" + g.pred(d-1) + ") " + g.of("=", "<>") + " (" + g.pred(d-1) + "))"
	case 2:
		return "(" + g.pred(d-1) + " OR " + g.pred(d-1) + ")"
	case 3, 4:
		return "NOT (" + g.pred(d-1) + ")"
	case 5:
		return "(" + g.kernel(d-1) + " " + g.cmpOp() + " " + g.kernel(d-1) + ")"
	case 6:
		return "(" + g.kernel(d-1) + " IS " + g.of("", "NOT ") + "DISTINCT FROM " + g.kernel(d-1) + ")"
	case 7:
		return "(" + g.kernel(d-1) + " IS " + g.of("", "NOT ") + "NULL)"
	case 8:
		return guarded(g.of("<", ">", "<=", ">="), g.kernel(d-1), g.of(g.kernel(d-1), g.konst()))
	case 9:
		c := "(CASE WHEN " + g.pred(d-1) + " THEN " + g.pred(d-1)
		if g.pick(2) == 1 {
			c += " WHEN " + g.pred(d-1) + " THEN " + g.pred(d-1)
		}
		if g.pick(2) == 1 {
			c += " ELSE " + g.pred(d-1)
		}
		return c + " END)"
	}
	return g.leaf()
}

// FuzzPredicateKernels holds the three-valued predicate kernels to the
// walker: `SELECT id FROM pt WHERE <where>` must return the same rows, or the
// same error, in both engines. where is a predicate from the seeds, or, when
// empty, one that prog generates: AND, OR and NOT over comparisons of value
// kernels and of predicates, IS [NOT] DISTINCT FROM, IS NULL of NULLIF, CASE
// and FLOOR, the translator's guarded comparisons and boolean CASEs. Every NULL window
// shows through a NOT above it.
func FuzzPredicateKernels(f *testing.F) {
	for _, where := range []string{
		// the walker census's shapes
		"i < j", "(i % 3) <> 0", "NULLIF(i, 0) = 5", "FLOOR(f) IS NULL",
		"NOT (CASE WHEN i IS NULL THEN NULL ELSE i > 0 END)",
		"NOT (i < j)", "NOT (f >= g AND i <> 2)", "NOT (f > 1.5 OR j IS NULL)",
		"NOT NOT (m < i)", "NOT (CASE WHEN b THEN f < g ELSE NULL END)",
		"NOT " + guarded("<", "i", "j"), "NOT " + guarded(">=", "f * 2", "g"),
		"NOT (i * j IS NOT DISTINCT FROM 0)", "f IS DISTINCT FROM m",
		"NOT (NULLIF(f, 'NaN'::double precision) < 1.5)", "NOT (CASE WHEN i > 0 THEN f ELSE g END IS NULL)",
		"NOT ((i < 0) <> (j < 0))", "(f > g) = b", "NOT ((i < 0) = NULL)",
		// q's i mod j, as the serializer writes it
		"NOT ((CASE WHEN ((i % NULLIF(j, 0)) <> 0) AND (((i % NULLIF(j, 0)) < 0) <> (NULLIF(j, 0) < 0)) " +
			"THEN ((i % NULLIF(j, 0)) + NULLIF(j, 0)) ELSE (i % NULLIF(j, 0)) END) > 1)",
		// a divisor that can be zero: the walker raises only on rows it
		// reaches, so these stay on it
		"i = 0 AND j / i > 1", "i % 0 = 1", "NOT (j % i = 1)",
	} {
		f.Add(where, []byte(nil))
	}
	r := rand.New(rand.NewSource(5))
	for range 16 {
		prog := make([]byte, 24)
		r.Read(prog)
		f.Add("", prog)
	}
	db, err := mkPredDB(ExecCompiled)
	if err != nil {
		f.Fatal(err)
	}
	ref, err := mkPredDB(ExecInterpreted)
	if err != nil {
		f.Fatal(err)
	}
	s, oracle := db.NewSession(), ref.NewSession()
	f.Fuzz(func(t *testing.T, where string, prog []byte) {
		switch {
		case strings.Contains(where, ";"):
			t.Skip("one statement only: both databases must stay the seeded table")
		case strings.TrimSpace(where) == "":
			where = (&predGen{b: prog}).pred(4)
		}
		q := "SELECT id FROM pt WHERE " + where
		got, gerr := s.Exec(q)
		want, werr := oracle.Exec(q)
		switch {
		case (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error():
			t.Fatalf("%s:\n  compiled err: %v\n  interpreted err: %v", q, gerr, werr)
		case gerr == nil && fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows):
			t.Fatalf("%s: compiled %d rows, interpreted %d", q, len(got.Rows), len(want.Rows))
		}
	})
}
