package core_test

import (
	"context"
	"strings"
	"testing"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/xformer"
)

// pipe opens an in-process gateway to db, closed when the test ends.
func pipe(t testing.TB, db *pgdb.DB) core.Backend {
	t.Helper()
	b, err := gateway.Pipe(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// newStack builds a platform + session over a fresh embedded backend loaded
// with small trades/quotes tables.
func newStack(t *testing.T, cfg core.Config) (*core.Platform, *core.Session, core.Backend) {
	t.Helper()
	return newStackOn(t, pgdb.NewDB(), cfg)
}

// newStackOn is newStack over db.
func newStackOn(t *testing.T, db *pgdb.DB, cfg core.Config) (*core.Platform, *core.Session, core.Backend) {
	t.Helper()
	b := pipe(t, db)
	trades := qval.NewTable(
		[]string{"Symbol", "Time", "Price", "Size"},
		[]qval.Value{
			qval.SymbolVec{"GOOG", "IBM", "GOOG", "IBM", "GOOG"},
			qval.TemporalVec{T: qval.KTime, V: []int64{34200000, 34201000, 34202000, 34203000, 34204000}},
			qval.FloatVec{100, 150, 101, 151, 102},
			qval.LongVec{10, 20, 30, 40, 50},
		})
	quotes := qval.NewTable(
		[]string{"Symbol", "Time", "Bid", "Ask"},
		[]qval.Value{
			qval.SymbolVec{"GOOG", "GOOG", "IBM", "GOOG"},
			qval.TemporalVec{T: qval.KTime, V: []int64{34199000, 34201500, 34200500, 34203500}},
			qval.FloatVec{99.5, 100.5, 149.5, 101.5},
			qval.FloatVec{100.5, 101.5, 150.5, 102.5},
		})
	if err := core.LoadQTable(ctx, b, "trades", trades); err != nil {
		t.Fatal(err)
	}
	if err := core.LoadQTable(ctx, b, "quotes", quotes); err != nil {
		t.Fatal(err)
	}
	p := core.NewPlatform()
	s := p.NewSession(b, cfg)
	t.Cleanup(func() { s.Close() })
	return p, s, b
}

// ctx for test queries: the happy path carries no deadline.
var ctx = context.Background()

func runQ(t *testing.T, s *core.Session, q string) *qval.Table {
	t.Helper()
	v, _, err := s.Run(ctx, q)
	if err != nil {
		t.Fatalf("Run(%q): %v", q, err)
	}
	tbl, ok := v.(*qval.Table)
	if !ok {
		t.Fatalf("Run(%q) = %T, want table", q, v)
	}
	return tbl
}

func TestSelectAllThroughStack(t *testing.T) {
	_, s, _ := newStack(t, core.Config{})
	tbl := runQ(t, s, "select from trades")
	if tbl.Len() != 5 || tbl.NumCols() != 4 {
		t.Fatalf("shape %dx%d: %v", tbl.Len(), tbl.NumCols(), tbl.Cols)
	}
	// order preserved (ordcol plumbing)
	p, _ := tbl.Column("Price")
	if !qval.EqualValues(p, qval.FloatVec{100, 150, 101, 151, 102}) {
		t.Fatalf("order lost: %v", p)
	}
	// ordcol must not leak into the application result
	if _, leaked := tbl.Column("ordcol"); leaked {
		t.Fatal("ordcol leaked into Q result")
	}
}

func TestSelectWhereThroughStack(t *testing.T) {
	_, s, _ := newStack(t, core.Config{})
	tbl := runQ(t, s, "select Price from trades where Symbol=`GOOG")
	p, _ := tbl.Column("Price")
	if !qval.EqualValues(p, qval.FloatVec{100, 101, 102}) {
		t.Fatalf("prices = %v", p)
	}
}

func TestColumnExpressionAndRename(t *testing.T) {
	_, s, _ := newStack(t, core.Config{})
	tbl := runQ(t, s, "select Notional:Price*Size, Symbol from trades where Symbol=`IBM")
	n, ok := tbl.Column("Notional")
	if !ok {
		t.Fatalf("columns = %v", tbl.Cols)
	}
	if !qval.EqualValues(n, qval.FloatVec{3000, 6040}) {
		t.Fatalf("notional = %v", n)
	}
}

func TestAggregationThroughStack(t *testing.T) {
	_, s, _ := newStack(t, core.Config{})
	tbl := runQ(t, s, "select max Price from trades")
	if tbl.Len() != 1 {
		t.Fatalf("agg rows = %d", tbl.Len())
	}
	p, _ := tbl.Column("Price")
	if !qval.EqualValues(qval.Index(p, 0), qval.Float(151)) {
		t.Fatalf("max = %v", qval.Index(p, 0))
	}
}

func TestGroupByThroughStack(t *testing.T) {
	_, s, _ := newStack(t, core.Config{})
	tbl := runQ(t, s, "select mx:max Price, tot:sum Size by Symbol from trades")
	if tbl.Len() != 2 {
		t.Fatalf("groups = %d", tbl.Len())
	}
	sym, _ := tbl.Column("Symbol")
	// q group order = first appearance: GOOG then IBM
	if !qval.EqualValues(sym, qval.SymbolVec{"GOOG", "IBM"}) {
		t.Fatalf("group order = %v", sym)
	}
	mx, _ := tbl.Column("mx")
	if !qval.EqualValues(mx, qval.FloatVec{102, 151}) {
		t.Fatalf("mx = %v", mx)
	}
}

func TestPaperExample1AsOfJoin(t *testing.T) {
	// Example 1: prevailing quote as of each trade.
	_, s, _ := newStack(t, core.Config{})
	tbl := runQ(t, s, "aj[`Symbol`Time; trades; quotes]")
	if tbl.Len() != 5 {
		t.Fatalf("aj rows = %d", tbl.Len())
	}
	bid, ok := tbl.Column("Bid")
	if !ok {
		t.Fatalf("cols = %v", tbl.Cols)
	}
	// trades at 09:30:00(G),09:30:01(I),09:30:02(G),09:30:03(I),09:30:04(G)
	// GOOG quotes at 09:29:59(99.5), 09:30:01.5(100.5), 09:30:03.5(101.5)
	// IBM quote at 09:30:00.5(149.5)
	want := qval.FloatVec{99.5, 149.5, 100.5, 149.5, 101.5}
	if !qval.EqualValues(bid, want) {
		t.Fatalf("bid = %v, want %v", bid, want)
	}
}

func TestAsOfJoinUnmatchedYieldsNull(t *testing.T) {
	_, s, b := newStack(t, core.Config{})
	early := qval.NewTable(
		[]string{"Symbol", "Time"},
		[]qval.Value{
			qval.SymbolVec{"MSFT"},
			qval.TemporalVec{T: qval.KTime, V: []int64{34200000}},
		})
	if err := core.LoadQTable(ctx, b, "early", early); err != nil {
		t.Fatal(err)
	}
	tbl := runQ(t, s, "aj[`Symbol`Time; early; quotes]")
	bid, _ := tbl.Column("Bid")
	if !qval.NullAt(bid, 0) {
		t.Fatalf("unmatched bid = %v, want null", qval.Index(bid, 0))
	}
}

func TestPaperExample3FunctionUnrolling(t *testing.T) {
	// Example 3: function with a local variable, eager materialization.
	_, s, _ := newStack(t, core.Config{})
	src := "f:{[Sym] dt: select Price from trades where Symbol=Sym; :select max Price from dt;}"
	if _, _, err := s.Run(ctx, src); err != nil {
		t.Fatal(err)
	}
	tbl := runQ(t, s, "f[`GOOG]")
	p, _ := tbl.Column("Price")
	if !qval.EqualValues(qval.Index(p, 0), qval.Float(102)) {
		t.Fatalf("f[`GOOG] = %v", qval.Index(p, 0))
	}
	// and with the other symbol (fresh temp table)
	tbl = runQ(t, s, "f[`IBM]")
	p, _ = tbl.Column("Price")
	if !qval.EqualValues(qval.Index(p, 0), qval.Float(151)) {
		t.Fatalf("f[`IBM] = %v", qval.Index(p, 0))
	}
}

func TestEagerMaterializationEmitsTempTables(t *testing.T) {
	// paper §4.3: translating Example 3 produces CREATE TEMPORARY TABLE.
	_, s, _ := newStack(t, core.Config{})
	src := "f:{[Sym] dt: select Price from trades where Symbol=Sym; :select max Price from dt;}"
	if _, _, err := s.Run(ctx, src); err != nil {
		t.Fatal(err)
	}
	_, stats, err := s.Run(ctx, "f[`GOOG]")
	if err != nil {
		t.Fatal(err)
	}
	foundTemp := false
	foundINDF := false
	for _, sql := range stats.SQLs {
		if strings.Contains(sql, "CREATE TEMPORARY TABLE") {
			foundTemp = true
		}
		if strings.Contains(sql, "IS NOT DISTINCT FROM") {
			foundINDF = true
		}
	}
	if !foundTemp {
		t.Fatalf("expected temp-table materialization, SQLs: %v", stats.SQLs)
	}
	if !foundINDF {
		t.Fatalf("expected IS NOT DISTINCT FROM in generated SQL, SQLs: %v", stats.SQLs)
	}
}

func TestScalarVariableBinding(t *testing.T) {
	_, s, _ := newStack(t, core.Config{})
	tbl := runQ(t, s, "SOMEPRICE:150.5; select from trades where Price>SOMEPRICE")
	if tbl.Len() != 1 {
		t.Fatalf("rows = %d", tbl.Len())
	}
}

func TestSymbolListVariableWithIn(t *testing.T) {
	_, s, _ := newStack(t, core.Config{})
	tbl := runQ(t, s, "SYMLIST:`GOOG`MSFT; select from trades where Symbol in SYMLIST")
	if tbl.Len() != 3 {
		t.Fatalf("rows = %d", tbl.Len())
	}
}

func TestUpdateDoesNotPersistThroughStack(t *testing.T) {
	_, s, _ := newStack(t, core.Config{})
	tbl := runQ(t, s, "update Price:2*Price from trades where Symbol=`IBM")
	p, _ := tbl.Column("Price")
	if !qval.EqualValues(p, qval.FloatVec{100, 300, 101, 302, 102}) {
		t.Fatalf("update output = %v", p)
	}
	// persisted data unchanged
	tbl = runQ(t, s, "select from trades")
	p, _ = tbl.Column("Price")
	if !qval.EqualValues(p, qval.FloatVec{100, 150, 101, 151, 102}) {
		t.Fatalf("update leaked to storage: %v", p)
	}
}

func TestDeleteTemplateThroughStack(t *testing.T) {
	_, s, _ := newStack(t, core.Config{})
	tbl := runQ(t, s, "delete from trades where Symbol=`IBM")
	if tbl.Len() != 3 {
		t.Fatalf("delete rows left %d", tbl.Len())
	}
	tbl = runQ(t, s, "delete Size from trades")
	if tbl.NumCols() != 3 {
		t.Fatalf("delete col left %v", tbl.Cols)
	}
}

func TestSessionVariablePromotionOnClose(t *testing.T) {
	db := pgdb.NewDB()
	p, s, _ := newStackOn(t, db, core.Config{})
	if _, _, err := s.Run(ctx, "g:{[x] :select from trades where Symbol=x;}"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// a new session sees the promoted server variable (paper §3.2.3)
	s2 := p.NewSession(pipe(t, db), core.Config{})
	tbl := runQ(t, s2, "g[`IBM]")
	if tbl.Len() != 2 {
		t.Fatalf("promoted fn rows = %d", tbl.Len())
	}
}

func TestLocalScopeShadowsGlobal(t *testing.T) {
	_, s, _ := newStack(t, core.Config{})
	if _, _, err := s.Run(ctx, "cut:100.5"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Run(ctx, "h:{[cut] :select from trades where Price>cut;}"); err != nil {
		t.Fatal(err)
	}
	tbl := runQ(t, s, "h[150.5]")
	if tbl.Len() != 1 {
		t.Fatalf("shadowed arg rows = %d", tbl.Len())
	}
}

func TestKdbStyleErrors(t *testing.T) {
	_, s, _ := newStack(t, core.Config{})
	_, _, err := s.Run(ctx, "select from nosuchtable")
	if err == nil || !strings.Contains(err.Error(), "nosuchtable") {
		t.Fatalf("unknown table error = %v", err)
	}
	_, _, err = s.Run(ctx, "select NoCol from trades")
	if err == nil {
		t.Fatal("unknown column should fail to bind")
	}
	// Hyper-Q errors are more verbose than kdb+'s (paper §5)
	if len(err.Error()) <= len("'NoCol") {
		t.Fatalf("error should be verbose: %q", err.Error())
	}
}

func TestTranslateOnlyTimesStages(t *testing.T) {
	_, s, _ := newStack(t, core.Config{})
	sql, stats, err := s.Translate(ctx, "select mx:max Price by Symbol from trades where Size>15")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "GROUP BY") {
		t.Fatalf("sql = %s", sql)
	}
	if stats.Stages.Parse <= 0 || stats.Stages.Bind <= 0 || stats.Stages.Serialize <= 0 {
		t.Fatalf("stage timings missing: %+v", stats.Stages)
	}
	if len(stats.SQLs) != 0 {
		t.Fatalf("translate-only should not execute, ran %v", stats.SQLs)
	}
}

func TestNullSemanticsAblation(t *testing.T) {
	// with NullSemantics disabled, equality serializes as plain '='
	_, s, _ := newStack(t, core.Config{})
	sqlOn, _, err := s.Translate(ctx, "select from trades where Symbol=`GOOG")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sqlOn, "IS NOT DISTINCT FROM") {
		t.Fatalf("expected null-safe equality: %s", sqlOn)
	}
	db := pgdb.NewDB()
	b := pipe(t, db)
	trades := qval.NewTable([]string{"Symbol"}, []qval.Value{qval.SymbolVec{"A"}})
	if err := core.LoadQTable(ctx, b, "trades", trades); err != nil {
		t.Fatal(err)
	}
	p2 := core.NewPlatform()
	s2 := p2.NewSession(b, core.Config{Xformer: xformerOff()})
	defer s2.Close()
	sqlOff, _, err := s2.Translate(ctx, "select from trades where Symbol=`GOOG")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sqlOff, "IS NOT DISTINCT FROM") {
		t.Fatalf("ablated null semantics still fired: %s", sqlOff)
	}
}

func TestColumnPruningShrinksSQL(t *testing.T) {
	// in a join, each input's scan serializes its full column list unless
	// pruning trims it; a 60-column left table queried for one column
	// should not drag all 60 columns through the subquery
	db := pgdb.NewDB()
	b := pipe(t, db)
	cols := make([]string, 61)
	data := make([]qval.Value, 61)
	cols[0] = "k"
	data[0] = qval.LongVec{1, 2, 3}
	for i := 1; i < 61; i++ {
		cols[i] = "c" + string(rune('a'+(i-1)%26)) + string(rune('a'+(i-1)/26))
		data[i] = qval.LongVec{1, 2, 3}
	}
	wide := qval.NewTable(cols, data)
	if err := core.LoadQTable(ctx, b, "widet", wide); err != nil {
		t.Fatal(err)
	}
	side := qval.NewTable([]string{"k", "extra"}, []qval.Value{qval.LongVec{1, 2}, qval.LongVec{10, 20}})
	if err := core.LoadQTable(ctx, b, "sidet", side); err != nil {
		t.Fatal(err)
	}
	p := core.NewPlatform()
	s := p.NewSession(b, core.Config{})
	defer s.Close()
	sqlPruned, _, err := s.Translate(ctx, "select caa, extra from widet lj sidet")
	if err != nil {
		t.Fatal(err)
	}
	s2 := p.NewSession(pipe(t, db), core.Config{Xformer: pruneOff()})
	defer s2.Close()
	sqlFull, _, err := s2.Translate(ctx, "select caa, extra from widet lj sidet")
	if err != nil {
		t.Fatal(err)
	}
	if len(sqlPruned) >= len(sqlFull) {
		t.Fatalf("pruning did not shrink SQL:\npruned (%d): %s\nfull (%d): %s",
			len(sqlPruned), sqlPruned, len(sqlFull), sqlFull)
	}
}

func TestResultPivotRoundTrip(t *testing.T) {
	// row-oriented backend result -> column-oriented Q table (paper §4.2)
	res := &core.BackendResult{
		Cols: []core.BackendCol{
			{Name: "c1", SQLType: "bigint"},
			{Name: "c2", SQLType: "varchar"},
			{Name: "c3", SQLType: "double precision"},
		},
		Rows: [][]core.Field{
			{{Text: "1"}, {Text: "a"}, {Text: "1.5"}},
			{{Text: "2"}, {Null: true}, {Null: true}},
		},
	}
	tbl, err := core.ResultToQ(res)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := tbl.Column("c1")
	if !qval.EqualValues(c1, qval.LongVec{1, 2}) {
		t.Fatalf("c1 = %v", c1)
	}
	c2, _ := tbl.Column("c2")
	if !qval.NullAt(c2, 1) {
		t.Fatalf("null pivot lost: %v", c2)
	}
}

func TestLogicalMaterializationUsesViews(t *testing.T) {
	_, s, _ := newStack(t, core.Config{Materialization: core.Logical})
	_, stats, err := s.Run(ctx, "gg: select from trades where Symbol=`GOOG; select count Price from gg")
	if err != nil {
		t.Fatal(err)
	}
	foundView := false
	for _, sql := range stats.SQLs {
		if strings.Contains(sql, "CREATE VIEW") {
			foundView = true
		}
	}
	if !foundView {
		t.Fatalf("expected CREATE VIEW, SQLs: %v", stats.SQLs)
	}
}

func xformerOff() (c xformerConfig) {
	c.DisableNullSemantics = true
	return
}

func pruneOff() (c xformerConfig) {
	c.DisableColumnPruning = true
	return
}

// xformerConfig aliases the xformer config for test helpers.
type xformerConfig = xformer.Config

func TestUnionJoinThroughStack(t *testing.T) {
	_, s, b := newStack(t, core.Config{})
	extra := qval.NewTable(
		[]string{"Symbol", "Venue"},
		[]qval.Value{qval.SymbolVec{"MSFT"}, qval.SymbolVec{"DARK"}})
	if err := core.LoadQTable(ctx, b, "extra", extra); err != nil {
		t.Fatal(err)
	}
	tbl := runQ(t, s, "trades uj extra")
	if tbl.Len() != 6 {
		t.Fatalf("uj rows = %d", tbl.Len())
	}
	if _, ok := tbl.Column("Venue"); !ok {
		t.Fatalf("uj cols = %v", tbl.Cols)
	}
	// left rows first (order preserved), right rows after
	sym, _ := tbl.Column("Symbol")
	if !qval.EqualValues(qval.Index(sym, 0), qval.Symbol("GOOG")) ||
		!qval.EqualValues(qval.Index(sym, 5), qval.Symbol("MSFT")) {
		t.Fatalf("uj order = %v", sym)
	}
	// null padding on both sides
	venue, _ := tbl.Column("Venue")
	if !qval.NullAt(venue, 0) {
		t.Fatal("left rows should have null Venue")
	}
	price, _ := tbl.Column("Price")
	if !qval.NullAt(price, 5) {
		t.Fatal("right rows should have null Price")
	}
}

func TestSortVerbThroughStack(t *testing.T) {
	_, s, _ := newStack(t, core.Config{})
	tbl := runQ(t, s, "`Price xasc trades")
	p, _ := tbl.Column("Price")
	if !qval.EqualValues(p, qval.FloatVec{100, 101, 102, 150, 151}) {
		t.Fatalf("xasc = %v", p)
	}
	tbl = runQ(t, s, "`Price xdesc trades")
	p, _ = tbl.Column("Price")
	if !qval.EqualValues(qval.Index(p, 0), qval.Float(151)) {
		t.Fatalf("xdesc = %v", p)
	}
}

func TestTakeThroughStack(t *testing.T) {
	_, s, _ := newStack(t, core.Config{})
	tbl := runQ(t, s, "3#trades")
	if tbl.Len() != 3 {
		t.Fatalf("take rows = %d", tbl.Len())
	}
	p, _ := tbl.Column("Price")
	if !qval.EqualValues(p, qval.FloatVec{100, 150, 101}) {
		t.Fatalf("take order = %v", p)
	}
}

func TestMultiColumnGroupByThroughStack(t *testing.T) {
	_, s, _ := newStack(t, core.Config{})
	tbl := runQ(t, s, "select n:count Price by Symbol, big:Size>25 from trades")
	if tbl.Len() != 4 { // GOOG x {small,big}, IBM x {small,big}
		t.Fatalf("groups = %d\n%v", tbl.Len(), tbl)
	}
	if _, ok := tbl.Column("big"); !ok {
		t.Fatalf("cols = %v", tbl.Cols)
	}
}

func TestDistinctTableVerbThroughStack(t *testing.T) {
	_, s, _ := newStack(t, core.Config{})
	tbl := runQ(t, s, "distinct select Symbol from trades")
	if tbl.Len() != 2 {
		t.Fatalf("distinct rows = %d", tbl.Len())
	}
}

func TestCountTableVerbThroughStack(t *testing.T) {
	_, s, _ := newStack(t, core.Config{})
	tbl := runQ(t, s, "count trades")
	n, _ := tbl.Column("count")
	if !qval.EqualValues(qval.Index(n, 0), qval.Long(5)) {
		t.Fatalf("count = %v", n)
	}
}

func TestScalarExprStatementThroughStack(t *testing.T) {
	_, s, _ := newStack(t, core.Config{})
	v, stats, err := s.Run(ctx, "1+2")
	if err != nil {
		t.Fatal(err)
	}
	if !qval.EqualValues(v, qval.Long(3)) {
		t.Fatalf("1+2 = %v", v)
	}
	// executed on the backend, not folded in the middleware
	if len(stats.SQLs) != 1 || !strings.Contains(stats.SQLs[0], "SELECT") {
		t.Fatalf("SQLs = %v", stats.SQLs)
	}
}

func TestCondExpressionThroughStack(t *testing.T) {
	_, s, _ := newStack(t, core.Config{})
	tbl := runQ(t, s, "select Symbol, band:$[Price>120; `high; `low] from trades")
	b, _ := tbl.Column("band")
	if !qval.EqualValues(b, qval.SymbolVec{"low", "high", "low", "high", "low"}) {
		t.Fatalf("cond bands = %v", b)
	}
}
