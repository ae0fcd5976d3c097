package serializer

import (
	"strings"
	"testing"

	"hyperq/internal/qlang/qval"
	"hyperq/internal/xtra"
)

func getNode() *xtra.Get {
	g := &xtra.Get{Table: "trades"}
	g.P.Cols = []xtra.Col{
		{Name: xtra.OrdCol, QType: qval.KLong, SQLType: "bigint"},
		{Name: "Symbol", QType: qval.KSymbol, SQLType: "varchar"},
		{Name: "Price", QType: qval.KFloat, SQLType: "double precision"},
	}
	g.P.OrderCol = xtra.OrdCol
	return g
}

func TestSerializeGet(t *testing.T) {
	sql, err := Serialize(getNode())
	if err != nil {
		t.Fatal(err)
	}
	want := `SELECT ordcol, "Symbol", "Price" FROM trades`
	if sql != want {
		t.Fatalf("sql = %q, want %q", sql, want)
	}
}

func TestSerializeFilterFusesOntoGet(t *testing.T) {
	g := getNode()
	f := &xtra.Filter{Input: g, Pred: &xtra.FnApp{Op: "indf", Typ: qval.KBool, Args: []xtra.Scalar{
		&xtra.ColRef{Name: "Symbol", Typ: qval.KSymbol},
		&xtra.ConstExpr{Val: qval.Symbol("GOOG")},
	}}}
	f.P = g.P
	sql, err := Serialize(f)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sql, "(SELECT") {
		t.Fatalf("filter over get should fuse, got %q", sql)
	}
	if !strings.Contains(sql, `WHERE ("Symbol" IS NOT DISTINCT FROM 'GOOG'::varchar)`) {
		t.Fatalf("sql = %q", sql)
	}
}

func TestSerializeGroupAgg(t *testing.T) {
	g := getNode()
	agg := &xtra.GroupAgg{Input: g}
	agg.Keys = []xtra.NamedExpr{{Name: "Symbol", Expr: &xtra.ColRef{Name: "Symbol", Typ: qval.KSymbol}}}
	agg.Aggs = []xtra.NamedExpr{
		{Name: "mx", Expr: &xtra.AggCall{Fn: "max", Arg: &xtra.ColRef{Name: "Price", Typ: qval.KFloat}, Typ: qval.KFloat}},
		{Name: "n", Expr: &xtra.AggCall{Fn: "count", Typ: qval.KLong}},
	}
	sql, err := Serialize(agg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"GROUP BY", `MAX("Price")`, "COUNT(*)", "AS mx"} {
		if !strings.Contains(sql, want) {
			t.Fatalf("sql %q missing %q", sql, want)
		}
	}
}

func TestSerializeAsOfJoinShape(t *testing.T) {
	l := getNode()
	r := &xtra.Get{Table: "quotes"}
	r.P.Cols = []xtra.Col{
		{Name: "Symbol", QType: qval.KSymbol, SQLType: "varchar"},
		{Name: "Time", QType: qval.KTime, SQLType: "time"},
		{Name: "Bid", QType: qval.KFloat, SQLType: "double precision"},
	}
	l.P.Cols = append(l.P.Cols, xtra.Col{Name: "Time", QType: qval.KTime, SQLType: "time"})
	j := &xtra.AsOfJoin{L: l, R: r, EqCols: []string{"Symbol"}, TimeCol: "Time"}
	j.P.Cols = append(j.P.Cols, l.P.Cols...)
	j.P.Cols = append(j.P.Cols, xtra.Col{Name: "Bid", QType: qval.KFloat, SQLType: "double precision"})
	j.P.OrderCol = xtra.OrdCol
	sql, err := Serialize(j)
	if err != nil {
		t.Fatal(err)
	}
	// the Figure 2 shape: left outer join + window + rank filter
	for _, want := range []string{
		"LEFT JOIN", "ROW_NUMBER() OVER (PARTITION BY", "DESC) AS hq_rn",
		"WHERE hq_rn = 1", `"Time" <= `, "IS NOT DISTINCT FROM",
	} {
		if !strings.Contains(sql, want) {
			t.Fatalf("as-of SQL missing %q:\n%s", want, sql)
		}
	}
}

func TestSerializeSortAndLimit(t *testing.T) {
	g := getNode()
	srt := &xtra.Sort{Input: g, Keys: []xtra.SortKey{{Col: xtra.OrdCol}, {Col: "Price", Desc: true}}}
	srt.P = g.P
	lim := &xtra.Limit{Input: srt, N: 10}
	lim.P = g.P
	sql, err := Serialize(lim)
	if err != nil {
		t.Fatal(err)
	}
	// q sorts nulls lowest: first ascending, last descending
	for _, want := range []string{`ORDER BY ordcol NULLS FIRST, "Price" DESC NULLS LAST`, "LIMIT 10"} {
		if !strings.Contains(sql, want) {
			t.Fatalf("sql %q missing %q", sql, want)
		}
	}
}

func TestSerializeWindow(t *testing.T) {
	g := getNode()
	g.P.OrderCol = ""
	w := &xtra.Window{Input: g, Funcs: []xtra.WindowFunc{{Name: xtra.OrdCol, Fn: "row_number"}}}
	w.P.Cols = append(w.P.Cols, g.P.Cols...)
	sql, err := Serialize(w)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "ROW_NUMBER() OVER () AS ordcol") {
		t.Fatalf("sql = %q", sql)
	}
}

func TestScalarSpellings(t *testing.T) {
	cases := []struct {
		s    xtra.Scalar
		want string
	}{
		{&xtra.ConstExpr{Val: qval.Long(5)}, "5"},
		{&xtra.ConstExpr{Val: qval.Symbol("GOOG")}, "'GOOG'::varchar"},
		{&xtra.ConstExpr{Val: qval.Float(2.5)}, "2.5"},
		{&xtra.ConstExpr{Val: qval.Bool(true)}, "TRUE"},
		{&xtra.ConstExpr{Val: qval.Null(qval.KLong)}, "NULL"},
		{&xtra.ConstExpr{Val: qval.MkDate(2016, 6, 26)}, "'2016-06-26'::date"},
		{&xtra.ConstExpr{Val: qval.MkTime(9, 30, 0, 0)}, "'09:30:00.000'::time"},
		{&xtra.FnApp{Op: "%", Typ: qval.KFloat, Args: []xtra.Scalar{
			&xtra.ColRef{Name: "a", Typ: qval.KLong}, &xtra.ConstExpr{Val: qval.Long(4)}}},
			"(CAST(a AS double precision) / 4)"},
		{&xtra.FnApp{Op: "fill", Typ: qval.KFloat, Args: []xtra.Scalar{
			&xtra.ConstExpr{Val: qval.Long(0)}, &xtra.ColRef{Name: "x", Typ: qval.KFloat}}},
			"COALESCE(x, 0)"},
		{&xtra.FnApp{Op: "in", Typ: qval.KBool, Args: []xtra.Scalar{
			&xtra.ColRef{Name: "s", Typ: qval.KSymbol},
			&xtra.ConstExpr{Val: qval.SymbolVec{"A", "B"}}}},
			"((s IS NOT DISTINCT FROM 'A'::varchar) OR (s IS NOT DISTINCT FROM 'B'::varchar))"},
		{&xtra.FnApp{Op: "within", Typ: qval.KBool, Args: []xtra.Scalar{
			&xtra.ColRef{Name: "p", Typ: qval.KFloat},
			&xtra.ConstExpr{Val: qval.LongVec{1, 9}}}},
			"((p IS NOT NULL) AND (p BETWEEN 1 AND 9))"},
		{&xtra.FnApp{Op: "cond", Typ: qval.KSymbol, Args: []xtra.Scalar{
			&xtra.ColRef{Name: "c", Typ: qval.KBool},
			&xtra.ConstExpr{Val: qval.Symbol("y")},
			&xtra.ConstExpr{Val: qval.Symbol("n")}}},
			"(CASE WHEN c THEN 'y'::varchar ELSE 'n'::varchar END)"},
	}
	for _, c := range cases {
		s := &sz{}
		got, err := s.scalar(c.s)
		if err != nil {
			t.Errorf("scalar(%v): %v", c.s.SString(), err)
			continue
		}
		if got != c.want {
			t.Errorf("scalar(%v) = %q, want %q", c.s.SString(), got, c.want)
		}
	}
}

func TestIdentifierQuoting(t *testing.T) {
	if ident("lower_case") != "lower_case" {
		t.Error("plain identifier should not be quoted")
	}
	if ident("Symbol") != `"Symbol"` {
		t.Error("mixed-case identifier must be quoted")
	}
	if ident("2col") != `"2col"` {
		t.Error("digit-leading identifier must be quoted")
	}
}

func TestWavgSerialization(t *testing.T) {
	agg := &xtra.AggCall{Fn: "wavg", Typ: qval.KFloat,
		Arg: &xtra.FnApp{Op: "pair", Typ: qval.KFloat, Args: []xtra.Scalar{
			&xtra.ColRef{Name: "Size", Typ: qval.KLong},
			&xtra.ColRef{Name: "Price", Typ: qval.KFloat}}}}
	s := &sz{}
	got, err := s.aggSQL(agg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, `SUM(NULLIF((("Size") * ("Price")), 'NaN'::double precision))`) ||
		!strings.Contains(got, `NULLIF(SUM("Size"), 0)`) {
		t.Fatalf("wavg sql = %q", got)
	}
}

func TestQPatternToSQL(t *testing.T) {
	if got := qPatternToSQL(qval.CharVec("GO*G?")); got != `'GO%G_'` {
		t.Errorf("pattern = %q", got)
	}
	// SQL wildcards in the source must be escaped
	if got := qPatternToSQL(qval.CharVec("50%_x")); got != `'50\%\_x'` {
		t.Errorf("escaped = %q", got)
	}
}

func TestSerializeScalarSelect(t *testing.T) {
	sql, err := SerializeScalarSelect(&xtra.FnApp{Op: "+", Typ: qval.KLong, Args: []xtra.Scalar{
		&xtra.ConstExpr{Val: qval.Long(1)}, &xtra.ConstExpr{Val: qval.Long(2)}}})
	if err != nil {
		t.Fatal(err)
	}
	if sql != "SELECT (1 + 2) AS value" {
		t.Fatalf("sql = %q", sql)
	}
}

func TestMoreScalarSpellings(t *testing.T) {
	long := func(n int64) xtra.Scalar { return &xtra.ConstExpr{Val: qval.Long(n)} }
	col := func(n string) xtra.Scalar { return &xtra.ColRef{Name: n, Typ: qval.KLong} }
	boolCol := func(n string) xtra.Scalar { return &xtra.ColRef{Name: n, Typ: qval.KBool} }
	cases := []struct {
		s    xtra.Scalar
		want string
	}{
		// floored modulo: the truncated remainder is corrected toward the
		// divisor's sign exactly as the kdb+ kernel does, which also covers
		// infinite divisors (-2 mod 0w is 0w)
		{&xtra.FnApp{Op: "mod", Typ: qval.KLong, Args: []xtra.Scalar{col("a"), long(3)}},
			"(CASE WHEN ((a % 3) <> 0) AND (((a % 3) < 0) <> (3 < 0)) THEN ((a % 3) + 3) ELSE (a % 3) END)"},
		{&xtra.FnApp{Op: "div", Typ: qval.KLong, Args: []xtra.Scalar{col("a"), long(3)}},
			"CAST(FLOOR(CAST(a AS double precision) / 3) AS bigint)"},
		{&xtra.FnApp{Op: "div", Typ: qval.KLong, Args: []xtra.Scalar{col("a"), col("b")}},
			"CAST(FLOOR(CAST(a AS double precision) / NULLIF(b, 0)) AS bigint)"},
		{&xtra.FnApp{Op: "and", Typ: qval.KBool, Args: []xtra.Scalar{boolCol("p"), boolCol("q")}}, "(p AND q)"},
		{&xtra.FnApp{Op: "or", Typ: qval.KBool, Args: []xtra.Scalar{boolCol("p"), boolCol("q")}}, "(p OR q)"},
		{&xtra.FnApp{Op: "not", Typ: qval.KBool, Args: []xtra.Scalar{boolCol("p")}}, "(NOT p)"},
		// neg is q's 0-x: no IEEE -0.0 for a later division to see
		{&xtra.FnApp{Op: "neg", Typ: qval.KLong, Args: []xtra.Scalar{col("a")}}, "(0 - a)"},
		{&xtra.FnApp{Op: "abs", Typ: qval.KLong, Args: []xtra.Scalar{col("a")}}, "ABS(a)"},
		// the log or root of a negative is NaN, q's null
		{&xtra.FnApp{Op: "log", Typ: qval.KFloat, Args: []xtra.Scalar{col("a")}}, "NULLIF(LN(a), 'NaN'::double precision)"},
		{&xtra.FnApp{Op: "sqrt", Typ: qval.KFloat, Args: []xtra.Scalar{col("a")}}, "NULLIF(SQRT(a), 'NaN'::double precision)"},
		{&xtra.FnApp{Op: "ceiling", Typ: qval.KLong, Args: []xtra.Scalar{col("a")}}, "CEIL(a)"},
		{&xtra.FnApp{Op: "null", Typ: qval.KBool, Args: []xtra.Scalar{col("a")}}, "(a IS NULL)"},
		{&xtra.FnApp{Op: "cast", Typ: qval.KFloat, Args: []xtra.Scalar{col("a"), &xtra.ConstExpr{Val: qval.Symbol("float")}}},
			"CAST(a AS double precision)"},
		// null-propagating min/max: LEAST/GREATEST alone would skip NULLs
		{&xtra.FnApp{Op: "&", Typ: qval.KLong, Args: []xtra.Scalar{col("a"), col("b")}},
			"(CASE WHEN (a IS NULL) OR (b IS NULL) THEN NULL ELSE LEAST(a, b) END)"},
		{&xtra.FnApp{Op: "|", Typ: qval.KLong, Args: []xtra.Scalar{col("a"), col("b")}},
			"(CASE WHEN (a IS NULL) OR (b IS NULL) THEN NULL ELSE GREATEST(a, b) END)"},
		// a NULL operand is the empty string to q's like, never unknown
		{&xtra.FnApp{Op: "like", Typ: qval.KBool, Args: []xtra.Scalar{col("s"), &xtra.ConstExpr{Val: qval.CharVec("G*")}}},
			"COALESCE((s LIKE 'G%'), FALSE)"},
		// bare ops serialize as-is; the Xformer rewrites them to indf/q* forms
		{&xtra.FnApp{Op: "=", Typ: qval.KBool, Args: []xtra.Scalar{col("a"), long(3)}}, "(a = 3)"},
		{&xtra.FnApp{Op: "indf", Typ: qval.KBool, Args: []xtra.Scalar{col("a"), long(3)}},
			"(a IS NOT DISTINCT FROM 3)"},
		{&xtra.FnApp{Op: "qlt", Typ: qval.KBool, Args: []xtra.Scalar{col("a"), long(3)}},
			"(CASE WHEN a IS NULL THEN (3 IS NOT NULL) WHEN 3 IS NULL THEN FALSE ELSE (a < 3) END)"},
		// both sides non-null literals: null-safe spelling is unnecessary
		{&xtra.FnApp{Op: "qge", Typ: qval.KBool, Args: []xtra.Scalar{long(5), long(3)}}, "(5 >= 3)"},
		// IEEE division in the backend supplies the signed infinities for
		// x%0; only NaN (0%0, 0w%0w) needs mapping back to q's null
		{&xtra.FnApp{Op: "%", Typ: qval.KFloat, Args: []xtra.Scalar{col("a"), col("b")}},
			"NULLIF((CAST(a AS double precision) / b), 'NaN'::double precision)"},
	}
	for _, c := range cases {
		z := &sz{}
		got, err := z.scalar(c.s)
		if err != nil {
			t.Errorf("scalar(%s): %v", c.s.SString(), err)
			continue
		}
		if got != c.want {
			t.Errorf("scalar(%s) = %q, want %q", c.s.SString(), got, c.want)
		}
	}
}

func TestXbarTemporalCast(t *testing.T) {
	z := &sz{}
	got, err := z.scalar(&xtra.FnApp{Op: "xbar", Typ: qval.KTime, Args: []xtra.Scalar{
		&xtra.ConstExpr{Val: qval.Long(900000)},
		&xtra.ColRef{Name: "Time", Typ: qval.KTime},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "AS time)") {
		t.Fatalf("temporal xbar should cast back to time: %q", got)
	}
}

func TestUnionSerialization(t *testing.T) {
	l := getNode()
	r := &xtra.Get{Table: "extra"}
	r.P.Cols = []xtra.Col{
		{Name: xtra.OrdCol, QType: qval.KLong, SQLType: "bigint"},
		{Name: "Symbol", QType: qval.KSymbol, SQLType: "varchar"},
		{Name: "Venue", QType: qval.KSymbol, SQLType: "varchar"},
	}
	r.P.OrderCol = xtra.OrdCol
	u := &xtra.Union{L: l, R: r}
	u.P.Cols = append(u.P.Cols, l.P.Cols...)
	u.P.Cols = append(u.P.Cols, xtra.Col{Name: "Venue", QType: qval.KSymbol, SQLType: "varchar"})
	u.P.OrderCol = xtra.OrdCol
	sql, err := Serialize(u)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"UNION ALL", "NULL AS \"Venue\"", "NULL AS \"Price\"", "+ 1000000000000"} {
		if !strings.Contains(sql, want) {
			t.Fatalf("union sql missing %q:\n%s", want, sql)
		}
	}
}
