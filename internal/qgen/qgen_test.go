package qgen

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"hyperq/internal/qlang/qval"
)

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b := New(Config{Seed: 7}), New(Config{Seed: 7})
	for i := 0; i < 50; i++ {
		qa, qb := a.Query().Q(), b.Query().Q()
		if qa != qb {
			t.Fatalf("iteration %d diverged:\n%s\n%s", i, qa, qb)
		}
	}
	da, db := a.Dataset(), b.Dataset()
	for _, name := range da.Names() {
		if da.Tables[name].String() != db.Tables[name].String() {
			t.Fatalf("table %s diverged", name)
		}
	}
}

func TestGeneratedQueriesAreWellFormed(t *testing.T) {
	g := New(Config{Seed: 3})
	for i := 0; i < 200; i++ {
		q := g.Query()
		text := q.Q()
		body := text
		if q.Sort != "" {
			// `k xasc <query>: every key is an output column of the query
			_, body, _ = strings.Cut(text, " "+q.Sort+" ")
			if q.Kind == "exec" || len(q.By) > 0 || len(q.SortBy) == 0 {
				t.Fatalf("sort over a vector or keyed result: %s", text)
			}
		}
		if !strings.HasPrefix(body, "select") && !strings.HasPrefix(body, "exec") &&
			!strings.HasPrefix(body, "delete from t") && !strings.HasPrefix(body, "update x:") {
			t.Fatalf("bad query kind: %s", text)
		}
		if q.Kind == "delete" && (len(q.Cols) > 0 || q.From != "t") {
			t.Fatalf("delete names columns or a join: %s", text)
		}
		if q.Kind == "update" && (len(q.Cols) != 1 || q.From != "t" || len(q.Where) == 0) {
			t.Fatalf("update is not one column of t under a where clause: %s", text)
		}
		if !strings.Contains(text, " from ") {
			t.Fatalf("missing from: %s", text)
		}
		// every non-aggregate select column must reference a column,
		// otherwise q collapses the result to a single row
		for _, sc := range q.Cols {
			if _, isAgg := sc.Expr.(*Agg); !isAgg && !refsColumn(sc.Expr) {
				t.Fatalf("column-free select expr in %s", text)
			}
		}
		// grouped queries must aggregate every select column
		if len(q.By) > 0 {
			for _, sc := range q.Cols {
				if _, isAgg := sc.Expr.(*Agg); !isAgg {
					t.Fatalf("non-aggregate column under by: %s", text)
				}
			}
		}
	}
}

func TestDatasetShape(t *testing.T) {
	g := New(Config{Seed: 11})
	sawEmpty := false
	for i := 0; i < 40; i++ {
		d := g.Dataset()
		fact := d.Tables["t"]
		if fact.NumCols() != 4 {
			t.Fatalf("fact table has %d cols", fact.NumCols())
		}
		if fact.Len() == 0 {
			sawEmpty = true
		}
		// dim keys must be unique: lj takes the first match in q while SQL
		// fans out, so duplicate keys would be an uninteresting divergence
		dim := d.Tables["d"]
		seen := map[string]bool{}
		for j := 0; j < dim.Len(); j++ {
			k := string(qval.Index(dim.Data[0], j).(qval.Symbol))
			if seen[k] {
				t.Fatalf("duplicate dim key %q", k)
			}
			seen[k] = true
		}
		// quote times must be strictly increasing per symbol (aj ties
		// resolve differently in the two engines)
		qts := d.Tables["qts"]
		last := map[string]int64{}
		for j := 0; j < qts.Len(); j++ {
			s := string(qval.Index(qts.Data[0], j).(qval.Symbol))
			tm := qval.Index(qts.Data[1], j).(qval.Temporal).V
			if prev, ok := last[s]; ok && tm <= prev {
				t.Fatalf("non-increasing quote time for %q", s)
			}
			last[s] = tm
		}
	}
	if !sawEmpty {
		t.Error("empty fact table never generated in 40 datasets")
	}
}

func TestTableCodecRoundTrip(t *testing.T) {
	g := New(Config{Seed: 5})
	for i := 0; i < 10; i++ {
		d := g.Dataset()
		encoded, err := EncodeDataset(d)
		if err != nil {
			t.Fatal(err)
		}
		// through JSON text, as the corpus stores it
		text, err := json.Marshal(encoded)
		if err != nil {
			t.Fatal(err)
		}
		var back []TableJSON
		if err := json.Unmarshal(text, &back); err != nil {
			t.Fatal(err)
		}
		d2, err := DecodeDataset(back)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range d.Names() {
			a, b := d.Tables[name], d2.Tables[name]
			if a.String() != b.String() {
				t.Fatalf("%s did not round-trip:\n%s\n%s", name, a, b)
			}
		}
	}
}

func TestShrinksAreSmallerOrEqual(t *testing.T) {
	g := New(Config{Seed: 9})
	for i := 0; i < 100; i++ {
		q := g.Query()
		for _, s := range q.Shrinks() {
			if len(s.Q()) > len(q.Q()) {
				t.Fatalf("shrink grew: %q -> %q", q.Q(), s.Q())
			}
		}
	}
}

// TestGeneratorCoversValueKernelShapes checks the generator emits the two
// shapes the backend's value kernels run: an aggregate over arithmetic
// nested two operators deep, and an update of t under a where clause.
func TestGeneratorCoversValueKernelShapes(t *testing.T) {
	g := New(Config{Seed: 1})
	nested, updates := 0, 0
	for i := 0; i < 500; i++ {
		q := g.Query()
		if q.Kind == "update" {
			updates++
		}
		for _, sc := range q.Cols {
			if a, ok := sc.Expr.(*Agg); ok && depth(a.X) >= 2 {
				nested++
			}
		}
	}
	if nested == 0 || updates == 0 {
		t.Fatalf("500 queries hold %d nested aggregate arguments and %d updates", nested, updates)
	}
}

// TestGeneratorCoversSortsAndMonads checks the generator emits one- and
// two-key xasc and xdesc sorts and every monadic verb.
func TestGeneratorCoversSortsAndMonads(t *testing.T) {
	g := New(Config{Seed: 1})
	sorts := map[string]bool{}
	fns := map[string]bool{}
	var visit func(e Expr)
	visit = func(e Expr) {
		if u, ok := e.(*Un); ok {
			fns[u.Fn] = true
		}
		for _, c := range e.Children() {
			visit(c)
		}
	}
	for i := 0; i < 2000; i++ {
		q := g.Query()
		if q.Sort != "" {
			sorts[fmt.Sprint(q.Sort, len(q.SortBy))] = true
		}
		for _, sc := range q.Cols {
			visit(sc.Expr)
		}
	}
	for _, want := range []string{"xasc1", "xasc2", "xdesc1", "xdesc2"} {
		if !sorts[want] {
			t.Errorf("no %s-key %s sort in 2000 queries", want[len(want)-1:], want[:len(want)-1])
		}
	}
	for _, fn := range append(numFns, "lower", "upper") {
		if !fns[fn] {
			t.Errorf("no %s in 2000 queries", fn)
		}
	}
}

// depth is the operator nesting depth of an expression.
func depth(e Expr) int {
	d := 0
	for _, c := range e.Children() {
		d = max(d, depth(c))
	}
	if _, ok := e.(*Bin); ok {
		d++
	}
	return d
}
