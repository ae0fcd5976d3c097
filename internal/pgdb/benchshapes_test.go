package pgdb_test

import (
	"context"
	"fmt"
	"regexp"
	"runtime"
	"testing"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/taq"
	"hyperq/internal/workload"
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

// benchTables loads trading days from 2016.06.27 on, each of the given
// number of trades (twice as many quotes), plus the first day's daily and
// refdata tables, into a database behind an in-process gateway. Each day's load
// numbers its rows' order column from 0.
func benchTables(t *testing.T, days, trades int) (*pgdb.DB, core.Backend) {
	t.Helper()
	ctx := context.Background()
	db := pgdb.NewDB()
	b, err := gateway.Pipe(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	for i := 0; i < days; i++ {
		d := taq.Generate(taq.Config{Seed: int64(i + 1), Trades: trades, Date: qval.MkDate(2016, 6, 27+i)})
		tables := []struct {
			name string
			t    *qval.Table
		}{{"trades", d.Trades}, {"quotes", d.Quotes}}
		if i == 0 {
			tables = append(tables, []struct {
				name string
				t    *qval.Table
			}{{"daily", d.Daily}, {"refdata", d.RefData}}...)
		}
		for _, tbl := range tables {
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
	return db, b
}

// runCold translates and runs q with the named tables re-registered as
// all-stub segments, and fails the test if q faults in a column allowed does
// not accept — which boxing a table's every row would. It returns the
// faulted column names per table.
func runCold(t *testing.T, db *pgdb.DB, s *core.Session, q string, tables []string, allowed func(table, col string) bool) map[string][]string {
	t.Helper()
	faulted := map[string]func() []string{}
	for _, name := range tables {
		faulted[name] = pgdb.RelazyTable(db, name)
	}
	if _, _, err := s.Run(context.Background(), q); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	out := map[string][]string{}
	for name, cols := range faulted {
		out[name] = cols()
		for _, c := range out[name] {
			if !allowed(name, c) {
				t.Errorf("%s: faulted %s.%s, which it does not reference", q, name, c)
			}
		}
	}
	return out
}

// named reports whether q's text names column c, or c is the translator's
// order column.
func named(q, c string) bool {
	return c == xtra.OrdCol || regexp.MustCompile(`\b`+c+`\b`).MatchString(q)
}

// TestBenchShapesStayColumnar translates every benchmark shape through the
// Hyper-Q pipeline and runs it on cold (all-stub) trades and quotes tables:
// each may fault in only the columns its q text names plus the translator's
// order column, so none boxes a table's full rows. Two days
// of 3000 trades give several segments and a date predicate that prunes
// some of them.
func TestBenchShapesStayColumnar(t *testing.T) {
	db, b := benchTables(t, 2, 3000)
	s := core.NewPlatform().NewSession(b, core.Config{})
	for _, q := range benchShapes {
		faulted := runCold(t, db, s, q, []string{"trades", "quotes"}, func(_, c string) bool { return named(q, c) })
		t.Logf("%s: faulted trades %v, quotes %v", q, faulted["trades"], faulted["quotes"])
		if len(faulted["trades"])+len(faulted["quotes"]) == 0 {
			t.Errorf("%s: faulted nothing; the test tables are not cold", q)
		}
	}
}

// TestJoinShapesStayColumnar runs the Analytical Workload's join queries —
// lookups (lj) and as-of joins (aj) over trades, quotes, daily and refdata —
// through the translator on cold tables. Joins and their subquery sides pass
// columns, not rows: each query may fault in only the columns its q text
// names, the order column, the Symbol key every lj and aj joins on, and
// every column of a table it joins whole (query 19 returns all of daily).
// One day's load keeps the order column unique, as the as-of fusion needs;
// 5000 trades span two segments.
func TestJoinShapesStayColumnar(t *testing.T) {
	db, b := benchTables(t, 1, 5000)
	s := core.NewPlatform().NewSession(b, core.Config{})
	whole := map[int]string{19: "daily"}
	tables := []string{"trades", "quotes", "daily", "refdata"}
	ran := 0
	for _, wq := range workload.Queries() {
		switch wq.ID {
		case 9, 10, 13, 18, 19, 20, 25:
		default:
			continue
		}
		ran++
		faulted := runCold(t, db, s, wq.Q, tables, func(table, c string) bool {
			return named(wq.Q, c) || c == "Symbol" || whole[wq.ID] == table
		})
		t.Logf("q%d: faulted %v", wq.ID, faulted)
	}
	if ran != 7 {
		t.Fatalf("ran %d of the seven join queries", ran)
	}
}

// workloadQuery is the q text of Analytical Workload query id.
func workloadQuery(id int) string {
	for _, wq := range workload.Queries() {
		if wq.ID == id {
			return wq.Q
		}
	}
	panic(fmt.Sprintf("no workload query %d", id))
}

// TestComputedShapesStayColumnar runs the Analytical Workload's queries with
// computed aggregate arguments (5, 8, 16, 17) and computed select items (22)
// through the translator on cold tables: the value kernels fault in only the
// columns the q text names and the order column — query 22 returns trades
// whole.
func TestComputedShapesStayColumnar(t *testing.T) {
	db, b := benchTables(t, 1, 5000)
	s := core.NewPlatform().NewSession(b, core.Config{})
	for _, id := range []int{5, 8, 16, 17, 22} {
		q := workloadQuery(id)
		faulted := runCold(t, db, s, q, []string{"trades", "quotes"}, func(table, c string) bool {
			return named(q, c) || id == 22 && table == "trades"
		})
		t.Logf("q%d: faulted %v", id, faulted)
	}
}

// TestComputedAggregatesAllocsBounded holds the translated computed
// aggregates to allocations that do not grow with the table: at 40 000
// trades (80 000 quotes) each may allocate at most 10 % more than at 4000.
// Boxing each argument cell, as a per-row closure does, scales linearly.
func TestComputedAggregatesAllocsBounded(t *testing.T) {
	allocs := func(trades int) map[int]float64 {
		db, b := benchTables(t, 1, trades)
		cs := core.NewPlatform().NewSession(b, core.Config{})
		s := db.NewSession()
		out := map[int]float64{}
		for _, id := range []int{5, 8, 16, 17} {
			sql, _, err := cs.Translate(context.Background(), workloadQuery(id))
			if err != nil {
				t.Fatal(err)
			}
			out[id] = testing.AllocsPerRun(5, func() {
				if _, err := s.Exec(sql); err != nil {
					t.Fatal(err)
				}
			})
		}
		return out
	}
	small, large := allocs(4000), allocs(40000)
	for id, n := range small {
		t.Logf("q%d: %.0f allocations at 4000 trades, %.0f at 40000", id, n, large[id])
		if large[id] > 1.1*n {
			t.Errorf("q%d allocates %.0f times at 40000 trades, %.0f at 4000: allocations grow with the rows", id, large[id], n)
		}
	}
}

// TestWorkloadEqualitiesUseHashIndex runs the translated shapes whose WHERE
// is a `Symbol=` equality on trades or quotes — Analytical Workload queries
// 1, 7, 9 and 21 and ingest_mix's quotes `last` and trades bucketed-OHLC
// readers — twice over 5000 trades and 10 000 quotes at the default index
// threshold. The first such lookup on each table builds its Symbol postings,
// every later run hits them and builds nothing, no other column is indexed,
// and every result matches the interpreter's.
func TestWorkloadEqualitiesUseHashIndex(t *testing.T) {
	db, b := benchTables(t, 1, 5000)
	ctx := context.Background()
	cs := core.NewPlatform().NewSession(b, core.Config{})
	s := db.NewSession()
	stats := db.IndexStats()
	shapes := []struct{ table, q string }{
		{"trades", workloadQuery(1)}, {"trades", workloadQuery(7)}, {"trades", workloadQuery(9)},
		{"trades", workloadQuery(21)}, {"quotes", benchShapes[10]}, {"trades", benchShapes[7]},
	}
	built := map[string]bool{}
	for pass := 0; pass < 2; pass++ {
		for _, sh := range shapes {
			sql, _, err := cs.Translate(ctx, sh.q)
			if err != nil {
				t.Fatal(err)
			}
			db.SetExecMode(pgdb.ExecCompiled)
			builds, hits := stats.Builds.Load(), stats.Hits.Load()
			got, err := s.Exec(sql)
			if err != nil {
				t.Fatalf("%s: %v", sh.q, err)
			}
			switch nb := stats.Builds.Load() - builds; {
			case !built[sh.table] && nb != 1:
				t.Errorf("%s: the first lookup on %s built %d indexes, want 1", sh.q, sh.table, nb)
			case built[sh.table] && nb != 0:
				t.Errorf("pass %d, %s: built %d indexes on a warm %s", pass, sh.q, nb, sh.table)
			case built[sh.table] && stats.Hits.Load() == hits:
				t.Errorf("pass %d, %s: no index hit", pass, sh.q)
			}
			built[sh.table] = true
			db.SetExecMode(pgdb.ExecInterpreted)
			want, err := s.Exec(sql)
			if err != nil {
				t.Fatalf("%s (interpreted): %v", sh.q, err)
			}
			if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
				t.Errorf("%s: compiled and interpreted rows differ", sh.q)
			}
		}
	}
	for _, table := range []string{"trades", "quotes"} {
		cols, _ := db.TableColumns(table)
		_, indexed, _ := db.TableAccessMeta(table)
		for c, on := range indexed {
			if on != (cols[c].Name == "Symbol") {
				t.Errorf("%s.%s indexed=%v", table, cols[c].Name, on)
			}
		}
	}
}

// TestPointLookupAllocsBounded holds a one-row point lookup — the
// point_lookups workload's `daily` shape through the translator — to a
// fixed allocation count and byte budget. The budget is far below what one
// segment's capacity per column of the intermediate subquery would cost.
func TestPointLookupAllocsBounded(t *testing.T) {
	ctx := context.Background()
	db := pgdb.NewDB()
	b, err := gateway.Pipe(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := core.LoadQTable(ctx, b, "daily", taq.Generate(taq.Config{Seed: 1, Trades: 3000}).Daily); err != nil {
		t.Fatal(err)
	}
	sql, _, err := core.NewPlatform().NewSession(b, core.Config{}).Translate(ctx, "select from daily where Symbol=`GOOG, Volume<1000000000")
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	exec := func() {
		res, err := s.Exec(sql)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("point lookup: %v rows, %v", res, err)
		}
	}
	exec()
	const runs = 100
	allocs := testing.AllocsPerRun(runs, exec)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		exec()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocations, %d bytes per lookup", allocs, bytes)
	if allocs > 400 || bytes > 48<<10 {
		t.Fatalf("point lookup allocates %.0f times, %d bytes; budget 400 and 48 KiB", allocs, bytes)
	}
}

// TestFallbacksRetainNoRows runs the two statements that box a whole table —
// query 23's functional delete, translated, and a two-key self-join, which
// takes the row join — on 20 000 trades, then collects garbage: the heap
// must not have grown by the table's size. Rows a statement boxes belong to
// that statement, so nothing outlives it but the vectors.
func TestFallbacksRetainNoRows(t *testing.T) {
	db, b := benchTables(t, 1, 20000)
	translated, _, err := core.NewPlatform().NewSession(b, core.Config{}).Translate(context.Background(), workloadQuery(23))
	if err != nil {
		t.Fatal(err)
	}
	join := `SELECT count(*) FROM trades x JOIN trades y ON x."Symbol" = y."Symbol" AND x.ordcol = y.ordcol`
	var table int64
	db.Exclusive(func() { table = db.ResidentBytes()["trades"] })
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	s := db.NewSession()
	before := heap()
	for _, sql := range []string{translated, join} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	grown := heap() - before
	runtime.KeepAlive(b)
	t.Logf("heap grew %d bytes; the table holds %d", grown, table)
	if grown >= table {
		t.Fatalf("heap grew %d bytes after the statements, the table holds %d: boxed rows outlived them", grown, table)
	}
}
