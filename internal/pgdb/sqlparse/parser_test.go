package sqlparse

import "testing"

func sel(t *testing.T, src string) *SelectStmt {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	ss, ok := s.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *SelectStmt", src, s)
	}
	return ss
}

func TestSimpleSelect(t *testing.T) {
	s := sel(t, "SELECT a, b FROM t WHERE a = 1")
	if len(s.Items) != 2 || s.From == nil || s.Where == nil {
		t.Fatalf("select = %+v", s)
	}
	bt := s.From.(*BaseTable)
	if bt.Name != "t" {
		t.Fatalf("from = %+v", bt)
	}
}

func TestStarAndQualifiedStar(t *testing.T) {
	s := sel(t, "SELECT * FROM t")
	if !s.Items[0].Star {
		t.Fatal("star not detected")
	}
	s = sel(t, "SELECT t1.* FROM t t1")
	if !s.Items[0].Star || s.Items[0].StarTable != "t1" {
		t.Fatalf("qualified star = %+v", s.Items[0])
	}
}

func TestAliases(t *testing.T) {
	s := sel(t, "SELECT a AS x, b y FROM trades AS tr")
	if s.Items[0].Alias != "x" || s.Items[1].Alias != "y" {
		t.Fatalf("aliases = %+v", s.Items)
	}
	if s.From.(*BaseTable).Alias != "tr" {
		t.Fatalf("table alias = %+v", s.From)
	}
}

func TestJoins(t *testing.T) {
	s := sel(t, "SELECT * FROM a LEFT JOIN b ON a.k = b.k JOIN c ON b.j = c.j")
	j := s.From.(*JoinRef)
	if j.Type != InnerJoin {
		t.Fatalf("outer join type = %v", j.Type)
	}
	inner := j.Left.(*JoinRef)
	if inner.Type != LeftJoin {
		t.Fatalf("inner join type = %v", inner.Type)
	}
	// the other join kinds are refused; their keywords stay reserved, so
	// none reads as a table alias
	for _, src := range []string{
		"SELECT * FROM a RIGHT JOIN b ON a.k = b.k",
		"SELECT * FROM a FULL JOIN b ON a.k = b.k",
		"SELECT * FROM a CROSS JOIN b",
		"SELECT * FROM a LEFT OUTER JOIN b ON a.k = b.k",
		"SELECT * FROM a INNER JOIN b ON a.k = b.k",
		"SELECT * FROM a, b",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestGroupOrderLimit(t *testing.T) {
	s := sel(t, "SELECT sym, MAX(price) AS mx FROM t GROUP BY sym ORDER BY sym DESC NULLS FIRST, mx NULLS LAST LIMIT 5")
	if len(s.GroupBy) != 1 || len(s.OrderBy) != 2 || s.Limit == nil {
		t.Fatalf("clauses = %+v", s)
	}
	if !s.OrderBy[0].Desc || s.OrderBy[0].NullsFirst == nil || !*s.OrderBy[0].NullsFirst {
		t.Fatalf("order item = %+v", s.OrderBy[0])
	}
	if s.OrderBy[1].Desc || s.OrderBy[1].NullsFirst == nil || *s.OrderBy[1].NullsFirst {
		t.Fatalf("order item = %+v", s.OrderBy[1])
	}
	for _, src := range []string{
		"SELECT sym FROM t GROUP BY sym HAVING MAX(price) > 10",
		"SELECT sym FROM t LIMIT 5 OFFSET 2",
		"SELECT DISTINCT sym FROM t",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestIsNotDistinctFrom(t *testing.T) {
	s := sel(t, "SELECT * FROM t WHERE sym IS NOT DISTINCT FROM 'GOOG'")
	be := s.Where.(*BinaryExpr)
	if be.Op != "IS NOT DISTINCT FROM" {
		t.Fatalf("op = %q", be.Op)
	}
	s = sel(t, "SELECT * FROM t WHERE a IS DISTINCT FROM b")
	if s.Where.(*BinaryExpr).Op != "IS DISTINCT FROM" {
		t.Fatal("IS DISTINCT FROM not parsed")
	}
}

func TestIsNullInBetweenLike(t *testing.T) {
	s := sel(t, "SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL AND d BETWEEN 1 AND 5 AND e LIKE 'G%'")
	and := s.Where.(*BinaryExpr)
	if and.Op != "AND" {
		t.Fatalf("top op = %v", and.Op)
	}
	for _, src := range []string{
		"SELECT * FROM t WHERE c IN (1, 2)",
		"SELECT * FROM t WHERE c NOT IN (1, 2)",
		"SELECT * FROM t WHERE d NOT BETWEEN 1 AND 5",
		"SELECT * FROM t WHERE e NOT LIKE 'G%'",
		"SELECT * FROM t WHERE e ILIKE 'g%'",
		"SELECT * FROM t WHERE b IS TRUE",
		"SELECT * FROM t WHERE b IS NOT FALSE",
		"SELECT * FROM t WHERE a != 1",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestCaseExpr(t *testing.T) {
	s := sel(t, "SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END FROM t")
	c := s.Items[0].Expr.(*CaseExpr)
	if len(c.Whens) != 1 || c.Else == nil {
		t.Fatalf("case = %+v", c)
	}
	// only the searched form parses
	if _, err := Parse("SELECT CASE a WHEN 1 THEN 'one' END FROM t"); err == nil {
		t.Fatal("simple CASE parsed")
	}
}

func TestCastSyntaxes(t *testing.T) {
	s := sel(t, "SELECT CAST(a AS bigint), b::varchar, 1::int FROM t")
	if _, ok := s.Items[0].Expr.(*CastExpr); !ok {
		t.Fatal("CAST() not parsed")
	}
	if c, ok := s.Items[1].Expr.(*CastExpr); !ok || c.Type != "varchar" {
		t.Fatal(":: cast not parsed")
	}
}

func TestWindowFunctions(t *testing.T) {
	s := sel(t, "SELECT ROW_NUMBER() OVER (PARTITION BY sym ORDER BY ts) AS rn, SUM(size) OVER (PARTITION BY sym) FROM t")
	fc := s.Items[0].Expr.(*FuncCall)
	if fc.Over == nil || len(fc.Over.PartitionBy) != 1 || len(fc.Over.OrderBy) != 1 {
		t.Fatalf("window = %+v", fc.Over)
	}
	fc2 := s.Items[1].Expr.(*FuncCall)
	if fc2.Over == nil || fc2.Name != "sum" {
		t.Fatalf("windowed agg = %+v", fc2)
	}
}

func TestSubqueries(t *testing.T) {
	s := sel(t, "SELECT * FROM (SELECT a FROM t) sub WHERE a > 1")
	if _, ok := s.From.(*SubqueryRef); !ok {
		t.Fatal("from subquery not parsed")
	}
	// a subquery is a FROM item only, never an expression
	if _, err := Parse("SELECT * FROM t WHERE a > (SELECT AVG(a) FROM t)"); err == nil {
		t.Fatal("scalar subquery parsed")
	}
}

func TestCreateTable(t *testing.T) {
	st, err := Parse("CREATE TABLE trades (sym varchar, price double precision, size bigint)")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTableStmt)
	if ct.Temp || len(ct.Cols) != 3 || ct.Cols[1].Type != "double precision" {
		t.Fatalf("create = %+v", ct)
	}
	for _, src := range []string{
		"CREATE TABLE IF NOT EXISTS t (a bigint)",
		"CREATE TABLE t (a varchar(20))",
		"CREATE TABLE t (a bigint PRIMARY KEY)",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestCreateTempTableAs(t *testing.T) {
	st, err := Parse("CREATE TEMPORARY TABLE hq_temp_1 AS SELECT ordcol, price FROM trades ORDER BY ordcol")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTableStmt)
	if !ct.Temp || ct.AsSelect == nil || ct.Name != "hq_temp_1" {
		t.Fatalf("create temp as = %+v", ct)
	}
}

func TestCreateView(t *testing.T) {
	st, err := Parse("CREATE VIEW v AS SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*CreateViewStmt).Name != "v" {
		t.Fatal("view name")
	}
	// Source is the select as written, up to the statement's end
	st, err = Parse("create view v as /* c */ Select \"A\" -- x;\n FROM t WHERE b = ';'  \n;")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.(*CreateViewStmt).Source, "Select \"A\" -- x;\n FROM t WHERE b = ';'"; got != want {
		t.Fatalf("source %q, want %q", got, want)
	}
}

func TestInsertValuesAndSelect(t *testing.T) {
	st, err := Parse("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*InsertStmt)
	if len(ins.Rows) != 2 || len(ins.Rows[1]) != 2 {
		t.Fatalf("insert = %+v", ins)
	}
	// a row takes every column in order: no column list, no INSERT SELECT
	for _, src := range []string{
		"INSERT INTO t (a, b) VALUES (1, 'x')",
		"INSERT INTO t SELECT * FROM s",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestUpdateDeleteDrop(t *testing.T) {
	// tables are append-only: UPDATE, DELETE and TRUNCATE are refused, as
	// are the transaction statements
	for _, src := range []string{
		"UPDATE t SET a = a + 1, b = 2 WHERE a < 5",
		"DELETE FROM t WHERE a = 1",
		"TRUNCATE t",
		"BEGIN", "COMMIT", "ROLLBACK",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
	st, err := Parse("DROP TABLE IF EXISTS t")
	if err != nil {
		t.Fatal(err)
	}
	if !st.(*DropStmt).IfExists {
		t.Fatal("drop if exists")
	}
}

func TestUnion(t *testing.T) {
	s := sel(t, "SELECT a FROM t UNION ALL SELECT a FROM s")
	if s.Union == nil || s.Union.From.(*BaseTable).Name != "s" {
		t.Fatalf("union = %+v", s.Union)
	}
	if _, err := Parse("SELECT a FROM t UNION SELECT a FROM s"); err == nil {
		t.Error("UNION without ALL should fail")
	}
}

func TestQuotedIdentifiersPreserveCase(t *testing.T) {
	s := sel(t, `SELECT "Price" FROM "Trades"`)
	if s.Items[0].Expr.(*ColRef).Name != "Price" {
		t.Fatal("quoted ident case lost")
	}
	if s.From.(*BaseTable).Name != "Trades" {
		t.Fatal("quoted table case lost")
	}
}

func TestUnquotedIdentifiersFold(t *testing.T) {
	s := sel(t, "SELECT PRICE FROM Trades")
	if s.Items[0].Expr.(*ColRef).Name != "price" {
		t.Fatal("unquoted ident should fold to lowercase")
	}
}

func TestSchemaQualifiedTable(t *testing.T) {
	s := sel(t, "SELECT * FROM information_schema.columns")
	bt := s.From.(*BaseTable)
	if bt.Schema != "information_schema" || bt.Name != "columns" {
		t.Fatalf("qualified = %+v", bt)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	s := sel(t, "SELECT 1 + 2 * 3 FROM t")
	add := s.Items[0].Expr.(*BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("top = %v", add.Op)
	}
	if add.R.(*BinaryExpr).Op != "*" {
		t.Fatal("precedence broken")
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript("CREATE TABLE a (x int); INSERT INTO a VALUES (1); SELECT * FROM a;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("script stmts = %d", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "SELECT", "SELECT FROM", "SELECT * FROM", "CREATE TABLE",
		"INSERT INTO t", "SELECT * FROM t WHERE", "SELECT a FROM t GROUP",
		"SELECT 'unterminated FROM t",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestComments(t *testing.T) {
	s := sel(t, "SELECT a -- trailing\nFROM t /* block */ WHERE a = 1")
	if s.Where == nil {
		t.Fatal("comments broke parsing")
	}
}
