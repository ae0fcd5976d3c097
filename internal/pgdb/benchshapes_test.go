package pgdb_test

import (
	"context"
	"regexp"
	"testing"

	"hyperq/internal/core"
	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/taq"
	"hyperq/internal/xtra"
)

// benchShapes are the q texts of BENCHMARK.json's cold_scan (six shapes) and
// ingest_mix (five reader shapes) workloads, as bench/workloads.go renders
// them for one day and symbol.
var benchShapes = []string{
	"select n:count Price, vol:sum Size by Symbol from trades where Date=2016.06.28",
	"select Time, Price, Size from trades where Date=2016.06.28, Symbol=`GOOG, Time within 10:00:00.000 10:30:00.000",
	"select vwap:Size wavg Price by Symbol from trades where Date within 2016.06.27 2016.06.28",
	"select avgspread:avg Ask-Bid by Symbol from quotes where Date=2016.06.28",
	"select Symbol, Time, Price from trades where Date=2016.06.28, Price>150.0",
	"select vol:sum Size by Symbol from trades",
	"select last Price by Symbol from trades",
	"select o:first Price, h:max Price, l:min Price, c:last Price by bucket:300000 xbar Time from trades where Symbol=`GOOG",
	"select Time, Price, Size from trades where Symbol=`GOOG, Time>=16:00:00.000",
	"select n:count Price by Exch from trades",
	"select bid:last Bid, ask:last Ask from quotes where Symbol=`GOOG",
}

// TestBenchShapesStayColumnar translates every benchmark shape through the
// Hyper-Q pipeline and runs it on cold (all-stub) trades and quotes tables:
// no shape may build a table's boxed row view, and each may fault in only
// the columns its q text names plus the translator's order column.
func TestBenchShapesStayColumnar(t *testing.T) {
	ctx := context.Background()
	db := pgdb.NewDB()
	b := core.NewDirectBackend(db)
	// two trading days of 3000 trades (6000 quotes) each: several segments,
	// and a date predicate that prunes some of them
	for i, day := range []qval.Temporal{qval.MkDate(2016, 6, 27), qval.MkDate(2016, 6, 28)} {
		d := taq.Generate(taq.Config{Seed: int64(i + 1), Trades: 3000, Date: day})
		for _, tbl := range []struct {
			name string
			t    *qval.Table
		}{{"trades", d.Trades}, {"quotes", d.Quotes}} {
			if i == 0 {
				if err := core.CreateQTable(ctx, b, tbl.name, tbl.t); err != nil {
					t.Fatal(err)
				}
			}
			if err := core.LoadQTableRows(ctx, b, tbl.name, tbl.t, 0, tbl.t.Len()); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := core.NewPlatform().NewSession(b, core.Config{})
	for _, q := range benchShapes {
		faulted := map[string]func() []string{}
		for _, name := range []string{"trades", "quotes"} {
			faulted[name] = pgdb.RelazyTable(db, name)
		}
		if _, _, err := s.Run(ctx, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for name, cols := range faulted {
			if pgdb.RowCacheBuilt(db, name) {
				t.Errorf("%s: built the boxed row view of %s", q, name)
			}
			for _, c := range cols() {
				if c != xtra.OrdCol && !regexp.MustCompile(`\b`+c+`\b`).MatchString(q) {
					t.Errorf("%s: faulted %s.%s, which it does not reference", q, name, c)
				}
			}
		}
		t.Logf("%s: faulted trades %v, quotes %v", q, faulted["trades"](), faulted["quotes"]())
		if len(faulted["trades"]())+len(faulted["quotes"]()) == 0 {
			t.Errorf("%s: faulted nothing; the test tables are not cold", q)
		}
	}
}
