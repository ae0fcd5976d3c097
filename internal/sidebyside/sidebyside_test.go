package sidebyside

import (
	"context"
	"testing"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/interp"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/taq"
)

var ctx = context.Background()

func newFramework(t *testing.T) *Framework {
	t.Helper()
	db := pgdb.NewDB()
	b, err := gateway.Pipe(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPlatform()
	s := p.NewSession(b, core.Config{})
	t.Cleanup(func() { s.Close() })
	f := New(interp.New(), s, b)
	data := taq.Generate(taq.Config{Seed: 11, Trades: 300, Quotes: 600, WideCols: 8,
		Symbols: []string{"AAPL", "IBM", "GOOG"}})
	for name, tbl := range map[string]*qval.Table{
		"trades": data.Trades, "quotes": data.Quotes, "daily": data.Daily,
	} {
		if err := f.LoadTable(ctx, name, tbl); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestSelectAgreement(t *testing.T) {
	f := newFramework(t)
	for _, q := range []string{
		"select from trades",
		"select Price, Size from trades where Symbol=`AAPL",
		"select from trades where Price>100, Size>2000",
		"select from quotes where Symbol=`IBM",
	} {
		if err := f.MustMatch(ctx, q); err != nil {
			t.Error(err)
		}
	}
}

func TestAggregateAgreement(t *testing.T) {
	f := newFramework(t)
	for _, q := range []string{
		"select sum Size from trades",
		"select max Price, min Price from trades",
		"select avg Price from trades where Symbol=`GOOG",
		"select n:count Price by Symbol from trades",
		"select h:max Price, l:min Price by Symbol from trades",
	} {
		if err := f.MustMatch(ctx, q); err != nil {
			t.Error(err)
		}
	}
}

func TestAsOfJoinAgreement(t *testing.T) {
	// the paper's flagship query shape: prevailing quote as of each trade
	f := newFramework(t)
	q := "aj[`Symbol`Time; select Symbol, Time, Price from trades where Symbol=`AAPL; select Symbol, Time, Bid, Ask from quotes]"
	if err := f.MustMatch(ctx, q); err != nil {
		t.Error(err)
	}
}

func TestUpdateAgreement(t *testing.T) {
	f := newFramework(t)
	if err := f.MustMatch(ctx, "update Notional:Price*Size from trades where Symbol=`IBM"); err != nil {
		t.Error(err)
	}
}

func TestDeleteAgreement(t *testing.T) {
	f := newFramework(t)
	if err := f.MustMatch(ctx, "delete from trades where Size<1000"); err != nil {
		t.Error(err)
	}
}

func TestMismatchIsDetected(t *testing.T) {
	// sanity: the differ must actually catch divergence
	f := newFramework(t)
	// poison one side
	f.Kdb.SetGlobal("poison", qval.NewTable([]string{"a"}, []qval.Value{qval.LongVec{1, 2}}))
	if err := core.LoadQTable(ctx, f.backend, "poison", qval.NewTable([]string{"a"}, []qval.Value{qval.LongVec{1, 99}})); err != nil {
		t.Fatal(err)
	}
	rep, err := f.Compare(ctx, "select from poison")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Match {
		t.Fatal("differ missed an intentional mismatch")
	}
}

func TestBothSidesErroringCountsAsAgreement(t *testing.T) {
	f := newFramework(t)
	rep, err := f.Compare(ctx, "select from table_that_does_not_exist")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match {
		t.Fatalf("both sides error; report: %v", rep)
	}
}

func TestWorkloadSubsetAgreement(t *testing.T) {
	// run the side-by-side harness over the simpler workload shapes
	f := newFramework(t)
	for _, q := range []string{
		"select o:first Price, h:max Price, l:min Price, c:last Price by Symbol from trades",
		"select vol:sum Size by Symbol from trades where Price>50",
		"exec Price from trades where Symbol=`IBM",
	} {
		if err := f.MustMatch(ctx, q); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
}

// TestBareColumnBesideAggregateIsUnsupported: q keeps a column without an
// aggregate whole — beside an aggregate the aggregate atom broadcasts to
// every row, under by each group holds a list. Hyper-Q has no SQL form for
// either and must reject the query with an unsupported-feature error, not
// answer one row per group with the column's last value.
func TestBareColumnBesideAggregateIsUnsupported(t *testing.T) {
	f := newFramework(t)
	tbl := qval.NewTable([]string{"s", "f"}, []qval.Value{
		qval.SymbolVec{"a", "a", "b"}, qval.FloatVec{1.5, 100, 2},
	})
	if err := f.LoadTable(ctx, "t", tbl); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q       string
		kdbRows int
	}{
		{"select x:min f, y:f from t", 3},
		{"select y:f by s from t", 2},
	} {
		rep, err := f.Compare(ctx, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Match || rep.KdbErr != ClassNone || rep.HyperQErr != ClassUnsupported {
			t.Errorf("%s: match=%v kdb=%q hyperq=%q, want kdb to answer and hyperq to reject as %q",
				tc.q, rep.Match, rep.KdbErr, rep.HyperQErr, ClassUnsupported)
			continue
		}
		kv, err := f.Kdb.Eval(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if kt, _ := canonicalize(kv); kt == nil || kt.Len() != tc.kdbRows {
			t.Errorf("%s: kdb side %v, want %d rows", tc.q, kv, tc.kdbRows)
		}
	}
}
