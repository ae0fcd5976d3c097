package binder

import (
	"context"
	"strings"
	"testing"

	"hyperq/internal/mdi"
	"hyperq/internal/qlang/parse"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/xtra"
)

// fakeCatalog serves the MDI with a canned schema.
type fakeCatalog struct {
	tables map[string][][2]string // name -> (col, sqltype)
	calls  int
}

func (f *fakeCatalog) QueryCatalog(_ context.Context, sql string) ([][]string, error) {
	f.calls++
	for name, cols := range f.tables {
		if strings.Contains(sql, "'"+name+"'") {
			out := make([][]string, len(cols))
			for i, c := range cols {
				out[i] = []string{c[0], c[1]}
			}
			return out, nil
		}
	}
	return nil, nil
}

func testScopes() (*Scopes, *fakeCatalog) {
	cat := &fakeCatalog{tables: map[string][][2]string{
		"trades": {
			{"ordcol", "bigint"}, {"Symbol", "varchar"}, {"Time", "time"},
			{"Price", "double precision"}, {"Size", "bigint"},
		},
		"quotes": {
			{"ordcol", "bigint"}, {"Symbol", "varchar"}, {"Time", "time"},
			{"Bid", "double precision"}, {"Ask", "double precision"},
		},
	}}
	m := mdi.New(cat)
	return NewScopes(NewServerStore(), m), cat
}

func bindQ(t *testing.T, b *Binder, src string) *Bound {
	t.Helper()
	n, err := parse.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	bound, err := b.BindStatement(context.Background(), n)
	if err != nil {
		t.Fatalf("bind %q: %v", src, err)
	}
	return bound
}

func TestBindSelectToProjectOverFilter(t *testing.T) {
	scopes, _ := testScopes()
	b := New(scopes)
	bound := bindQ(t, b, "select Price from trades where Symbol=`GOOG")
	p, ok := bound.Rel.(*xtra.Project)
	if !ok {
		t.Fatalf("root = %T", bound.Rel)
	}
	f, ok := p.Input.(*xtra.Filter)
	if !ok {
		t.Fatalf("project input = %T", p.Input)
	}
	if _, ok := f.Input.(*xtra.Get); !ok {
		t.Fatalf("filter input = %T", f.Input)
	}
	if _, exists := p.P.Col("Price"); !exists {
		t.Fatalf("project cols = %v", p.P.ColNames())
	}
}

func TestBindVarToGetWithDerivedProps(t *testing.T) {
	// Figure 2: q_var(trades) binds to xtra_get(trades) with metadata props
	scopes, _ := testScopes()
	b := New(scopes)
	bound := bindQ(t, b, "select from trades")
	var get *xtra.Get
	xtra.Walk(bound.Rel, func(n xtra.Node) bool {
		if g, ok := n.(*xtra.Get); ok {
			get = g
		}
		return true
	})
	if get == nil || get.Table != "trades" {
		t.Fatalf("get = %v", get)
	}
	c, ok := get.P.Col("Price")
	if !ok || c.QType != qval.KFloat {
		t.Fatalf("Price prop = %v", c)
	}
	if get.P.OrderCol != xtra.OrdCol {
		t.Fatalf("order col = %q", get.P.OrderCol)
	}
}

func TestBindAjToAsOfJoin(t *testing.T) {
	// Figure 2: aj binds to a left outer join with a window on the right
	scopes, _ := testScopes()
	b := New(scopes)
	bound := bindQ(t, b, "aj[`Symbol`Time; trades; quotes]")
	j, ok := bound.Rel.(*xtra.AsOfJoin)
	if !ok {
		t.Fatalf("root = %T", bound.Rel)
	}
	if len(j.EqCols) != 1 || j.EqCols[0] != "Symbol" || j.TimeCol != "Time" {
		t.Fatalf("join cols = %v %v", j.EqCols, j.TimeCol)
	}
	// output has left cols then right-only cols
	if _, ok := j.P.Col("Bid"); !ok {
		t.Fatalf("output cols = %v", j.P.ColNames())
	}
}

func TestAjPropertyChecks(t *testing.T) {
	scopes, _ := testScopes()
	b := New(scopes)
	n, _ := parse.ParseExpr("aj[`Nope`Time; trades; quotes]")
	if _, err := b.BindStatement(context.Background(), n); err == nil {
		t.Fatal("aj with missing join column should fail the §3.2.2 property check")
	}
	n, _ = parse.ParseExpr("aj[`Symbol`Time; trades]")
	if _, err := b.BindStatement(context.Background(), n); err == nil {
		t.Fatal("aj with 2 args should fail the rank check")
	}
}

func TestBindGroupBy(t *testing.T) {
	scopes, _ := testScopes()
	b := New(scopes)
	bound := bindQ(t, b, "select mx:max Price by Symbol from trades")
	g, ok := bound.Rel.(*xtra.GroupAgg)
	if !ok {
		t.Fatalf("root = %T", bound.Rel)
	}
	if len(g.Keys) != 1 || g.Keys[0].Name != "Symbol" {
		t.Fatalf("keys = %v", g.Keys)
	}
	if len(g.Aggs) != 1 || g.Aggs[0].Name != "mx" {
		t.Fatalf("aggs = %v", g.Aggs)
	}
	agg, ok := g.Aggs[0].Expr.(*xtra.AggCall)
	if !ok || agg.Fn != "max" {
		t.Fatalf("agg expr = %#v", g.Aggs[0].Expr)
	}
}

// TestBareColumnBesideAggregateIsNYI: a column without an aggregate next to
// an aggregate or under by is a whole column in q (broadcast or per-group
// list), not its last value, so the binder rejects it by name. A constant
// is the same in every group and still binds.
func TestBareColumnBesideAggregateIsNYI(t *testing.T) {
	scopes, _ := testScopes()
	b := New(scopes)
	for _, tc := range []struct{ src, col string }{
		{"select mx:max Price, p:Price from trades", "Price"},
		{"select p:Price by Symbol from trades", "Price"},
		{"select v:Size*2, n:count Price by Symbol from trades", "Size"},
	} {
		n, err := parse.ParseExpr(tc.src)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.src, err)
		}
		_, err = b.BindStatement(context.Background(), n)
		if be, ok := err.(*BindError); !ok || be.Code != "nyi" || !strings.Contains(be.Ctx, "column "+tc.col+" ") {
			t.Errorf("bind %q: %v, want a nyi error naming column %s", tc.src, err, tc.col)
		}
	}
	g, ok := bindQ(t, b, "select k:1, mx:max Price by Symbol from trades").Rel.(*xtra.GroupAgg)
	if !ok || len(g.Aggs) != 2 {
		t.Fatalf("constant beside an aggregate: %#v", g)
	}
}

func TestBindTypeErrors(t *testing.T) {
	scopes, _ := testScopes()
	b := New(scopes)
	for _, src := range []string{
		"select Price+Symbol from trades",     // arithmetic on symbol
		"select from trades where Price",      // non-boolean where
		"select from trades where Nope=`GOOG", // unknown column
		"select from nosuchtable",             // unknown table
	} {
		n, err := parse.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := b.BindStatement(context.Background(), n); err == nil {
			t.Errorf("bind %q should fail", src)
		}
	}
}

func TestScalarStatementsBindWithoutBackend(t *testing.T) {
	scopes, _ := testScopes()
	b := New(scopes)
	bound := bindQ(t, b, "1+2")
	if bound.Scalar == nil || !qval.EqualValues(bound.Scalar, qval.Long(3)) {
		// constant folding is not required; a const expr is also fine
		if bound.Rel != nil {
			t.Fatalf("1+2 bound to relation")
		}
	}
	bound = bindQ(t, b, "SYMS:`A`B")
	if bound.Assign != "SYMS" || bound.Scalar == nil {
		t.Fatalf("assignment bound = %+v", bound)
	}
}

func TestScopeLookupOrder(t *testing.T) {
	scopes, cat := testScopes()
	// session definition shadows the catalog
	scopes.Upsert(&VarDef{Name: "trades", Kind: KindScalar, Value: qval.Long(1)})
	def, err := scopes.Lookup(context.Background(), "trades")
	if err != nil || def.Kind != KindScalar {
		t.Fatalf("session shadow failed: %v %v", def, err)
	}
	// local shadows session
	scopes.PushLocal()
	scopes.Upsert(&VarDef{Name: "trades", Kind: KindScalar, Value: qval.Long(2)})
	def, _ = scopes.Lookup(context.Background(), "trades")
	if !qval.EqualValues(def.Value, qval.Long(2)) {
		t.Fatal("local should shadow session")
	}
	scopes.PopLocal()
	def, _ = scopes.Lookup(context.Background(), "trades")
	if !qval.EqualValues(def.Value, qval.Long(1)) {
		t.Fatal("pop should restore session definition")
	}
	_ = cat
}

func TestSessionPromotionToServer(t *testing.T) {
	server := NewServerStore()
	scopes := NewScopes(server, nil)
	scopes.Upsert(&VarDef{Name: "f", Kind: KindFunction, Source: "{x}"})
	if _, ok := server.Get("f"); ok {
		t.Fatal("session var visible at server before destruction")
	}
	scopes.DestroySession()
	if _, ok := server.Get("f"); !ok {
		t.Fatal("session var not promoted on destruction (paper §3.2.3)")
	}
}

func TestLocalNeverPromoted(t *testing.T) {
	server := NewServerStore()
	scopes := NewScopes(server, nil)
	scopes.PushLocal()
	scopes.Upsert(&VarDef{Name: "loc", Kind: KindScalar, Value: qval.Long(1)})
	scopes.PopLocal()
	scopes.DestroySession()
	if _, ok := server.Get("loc"); ok {
		t.Fatal("local variable must never be promoted (paper §3.2.3)")
	}
}

func TestGlobalAmendBypassesSession(t *testing.T) {
	server := NewServerStore()
	scopes := NewScopes(server, nil)
	scopes.PushLocal()
	scopes.UpsertGlobal(&VarDef{Name: "g", Kind: KindScalar, Value: qval.Long(7)})
	scopes.PopLocal()
	if _, ok := server.Get("g"); !ok {
		t.Fatal(":: amend should hit the server scope directly")
	}
}

func TestUpdateBindsConditionalReplacement(t *testing.T) {
	scopes, _ := testScopes()
	b := New(scopes)
	bound := bindQ(t, b, "update Price:2*Price from trades where Symbol=`IBM")
	p, ok := bound.Rel.(*xtra.Project)
	if !ok {
		t.Fatalf("update root = %T", bound.Rel)
	}
	// all input columns survive, Price becomes a CASE
	if len(p.Exprs) != 5 {
		t.Fatalf("update exprs = %d (%v)", len(p.Exprs), p.P.ColNames())
	}
	var cond *xtra.FnApp
	for _, e := range p.Exprs {
		if e.Name == "Price" {
			cond, _ = e.Expr.(*xtra.FnApp)
		}
	}
	if cond == nil || cond.Op != "cond" {
		t.Fatalf("Price expr should be conditional, got %#v", cond)
	}
}

func TestScopeFingerprint(t *testing.T) {
	server := NewServerStore()
	s1 := NewScopes(server, nil)
	s2 := NewScopes(server, nil)

	// fresh sessions over the same server scope share a fingerprint — they
	// can only see shared state, so cache entries are shareable
	if s1.Fingerprint() != s2.Fingerprint() {
		t.Fatal("fresh sessions should share a fingerprint")
	}

	fp0 := s1.Fingerprint()
	s1.Upsert(&VarDef{Name: "x", Kind: KindScalar})
	if s1.Fingerprint() == fp0 {
		t.Fatal("session upsert must change the fingerprint")
	}
	// identical-looking private histories must NOT collide: each session's
	// variables bind to its own backing state
	s2.Upsert(&VarDef{Name: "x", Kind: KindScalar})
	if s1.Fingerprint() == s2.Fingerprint() {
		t.Fatal("two sessions with private state must have distinct fingerprints")
	}

	// server-scope mutation changes every session's fingerprint
	a, b := s1.Fingerprint(), s2.Fingerprint()
	server.Put(&VarDef{Name: "g", Kind: KindScalar})
	if s1.Fingerprint() == a || s2.Fingerprint() == b {
		t.Fatal("server-scope mutation must change all fingerprints")
	}

	// destroying the session mutates both scopes (promotion) and keeps the
	// fingerprint moving
	c := s1.Fingerprint()
	s1.DestroySession()
	if s1.Fingerprint() == c {
		t.Fatal("session destruction must change the fingerprint")
	}
}

func TestServerStoreGeneration(t *testing.T) {
	server := NewServerStore()
	g0 := server.Generation()
	server.Put(&VarDef{Name: "a", Kind: KindScalar})
	if server.Generation() != g0+1 {
		t.Fatal("Put should bump the generation")
	}
}
