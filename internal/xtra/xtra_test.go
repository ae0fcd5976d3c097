package xtra

import (
	"strings"
	"testing"

	"hyperq/internal/qlang/qval"
)

func sampleGet() *Get {
	g := &Get{Table: "trades", QName: "trades"}
	g.P.Cols = []Col{
		{Name: OrdCol, QType: qval.KLong, SQLType: "bigint"},
		{Name: "Symbol", QType: qval.KSymbol, SQLType: "varchar"},
		{Name: "Price", QType: qval.KFloat, SQLType: "double precision"},
	}
	g.P.OrderCol = OrdCol
	g.P.PreservesOrder = true
	return g
}

func TestPropsLookup(t *testing.T) {
	g := sampleGet()
	c, ok := g.P.Col("Price")
	if !ok || c.QType != qval.KFloat {
		t.Fatalf("Col(Price) = %v %v", c, ok)
	}
	if _, ok := g.P.Col("nope"); ok {
		t.Fatal("Col(nope) should miss")
	}
	names := g.P.ColNames()
	if len(names) != 3 || names[1] != "Symbol" {
		t.Fatalf("ColNames = %v", names)
	}
}

func TestOpNamesAndChildren(t *testing.T) {
	g := sampleGet()
	f := &Filter{Input: g, Pred: &FnApp{Op: "=", Typ: qval.KBool}}
	f.P = g.P
	p := &Project{Input: f}
	p.P.Cols = []Col{{Name: "Price", QType: qval.KFloat}}
	if g.OpName() != "xtra_get(trades)" {
		t.Errorf("get name = %q", g.OpName())
	}
	if len(f.Children()) != 1 || f.Children()[0] != Node(g) {
		t.Error("filter children wrong")
	}
	if len(g.Children()) != 0 {
		t.Error("get should be a leaf")
	}
	count := 0
	Walk(p, func(Node) bool { count++; return true })
	if count != 3 {
		t.Errorf("walk visited %d, want 3", count)
	}
}

func TestScalarTypesAndStrings(t *testing.T) {
	c := &ConstExpr{Val: qval.Long(5)}
	if c.QType() != qval.KLong {
		t.Errorf("const type = %v", c.QType())
	}
	cr := &ColRef{Name: "Price", Typ: qval.KFloat}
	if cr.QType() != qval.KFloat || cr.SString() != "Price" {
		t.Errorf("colref = %v %q", cr.QType(), cr.SString())
	}
	fn := &FnApp{Op: "+", Args: []Scalar{c, cr}, Typ: qval.KFloat}
	if fn.SString() != "+(5;Price)" {
		t.Errorf("fnapp sstring = %q", fn.SString())
	}
	agg := &AggCall{Fn: "max", Arg: cr, Typ: qval.KFloat}
	if agg.SString() != "max(Price)" {
		t.Errorf("agg sstring = %q", agg.SString())
	}
	star := &AggCall{Fn: "count", Typ: qval.KLong}
	if star.SString() != "count(*)" {
		t.Errorf("count sstring = %q", star.SString())
	}
}

func TestPlanString(t *testing.T) {
	g := sampleGet()
	srt := &Sort{Input: g, Keys: []SortKey{{Col: OrdCol}}}
	srt.P = g.P
	s := PlanString(srt)
	for _, want := range []string{"xtra_sort", "xtra_get(trades)", "ord=ordcol", "Price"} {
		if !strings.Contains(s, want) {
			t.Errorf("PlanString missing %q:\n%s", want, s)
		}
	}
}

func TestSQLTypeMappingRoundTrip(t *testing.T) {
	// paper §3.2.2: int types -> integer types, symbol -> varchar
	cases := map[qval.Type]string{
		qval.KBool:      "boolean",
		qval.KShort:     "smallint",
		qval.KInt:       "integer",
		qval.KLong:      "bigint",
		qval.KReal:      "real",
		qval.KFloat:     "double precision",
		qval.KSymbol:    "varchar",
		qval.KDate:      "date",
		qval.KTime:      "time",
		qval.KTimestamp: "timestamp",
	}
	for qt, sql := range cases {
		if got := SQLTypeFor(qt); got != sql {
			t.Errorf("SQLTypeFor(%s) = %q, want %q", qval.TypeName(qt), got, sql)
		}
	}
	// round trip through QTypeForSQL for the distinct mappings
	for _, qt := range []qval.Type{qval.KBool, qval.KShort, qval.KInt, qval.KLong,
		qval.KReal, qval.KFloat, qval.KSymbol, qval.KDate, qval.KTime, qval.KTimestamp} {
		if got := QTypeForSQL(SQLTypeFor(qt)); got != qt {
			t.Errorf("round trip %s -> %s -> %s", qval.TypeName(qt), SQLTypeFor(qt), qval.TypeName(got))
		}
	}
}

func TestJoinKindStrings(t *testing.T) {
	if InnerJoin.String() != "inner" || LeftOuterJoin.String() != "leftouter" {
		t.Error("join kind strings wrong")
	}
}
