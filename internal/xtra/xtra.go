// Package xtra implements the eXTended Relational Algebra — Hyper-Q's
// internal query representation (paper §3.2). Q queries are bound into XTRA
// trees by the binder, transformed by the Xformer, and serialized to SQL.
//
// Every relational operator derives properties (§3.2.2): its output columns
// with names and Q types, its key columns, its implicit order column, and
// whether it preserves the order of its input — the property the Xformer
// uses to elide unnecessary ORDER BY clauses (§3.3).
package xtra

import (
	"fmt"
	"strings"

	"hyperq/internal/qlang/qval"
)

// Col describes one output column of a relational operator: its Q name, its
// Q type, and the SQL type it maps to.
type Col struct {
	Name    string
	QType   qval.Type // vector type code
	SQLType string
}

// Props are the derived relational properties of an XTRA operator (paper
// §3.2.2): output columns, keys, ordering.
type Props struct {
	Cols []Col
	// Keys lists columns that uniquely identify rows (empty when unknown).
	Keys []string
	// OrderCol names the implicit order column when the operator's output
	// carries one ("" when none). Q's ordered-list semantics require every
	// table to have one; the Xformer injects it when missing (§3.3).
	OrderCol string
	// PreservesOrder indicates the operator emits rows in its input's
	// order, letting the Xformer skip explicit ordering.
	PreservesOrder bool
}

// Col returns the column with the given name and whether it exists.
func (p *Props) Col(name string) (Col, bool) {
	for _, c := range p.Cols {
		if c.Name == name {
			return c, true
		}
	}
	return Col{}, false
}

// ColNames lists the output column names in order.
func (p *Props) ColNames() []string {
	out := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		out[i] = c.Name
	}
	return out
}

// Node is a relational XTRA operator.
type Node interface {
	// Props returns the operator's derived properties.
	Props() *Props
	// Children returns the relational inputs.
	Children() []Node
	// OpName names the operator for debugging and plan display.
	OpName() string
}

// Scalar is a scalar XTRA expression.
type Scalar interface {
	// QType returns the derived Q type of the expression.
	QType() qval.Type
	// SString renders the scalar for plan display.
	SString() string
}

// ---------- Scalar operators ----------

// ConstExpr is xtra_const: a literal value (paper §3.2.2).
type ConstExpr struct {
	Val qval.Value
}

// QType implements Scalar.
func (c *ConstExpr) QType() qval.Type {
	t := c.Val.Type()
	if t < 0 {
		return -t
	}
	return t
}

// SString implements Scalar.
func (c *ConstExpr) SString() string { return c.Val.String() }

// ColRef references a column of the operator's input by name.
type ColRef struct {
	Name string
	Typ  qval.Type
}

// QType implements Scalar.
func (c *ColRef) QType() qval.Type { return c.Typ }

// SString implements Scalar.
func (c *ColRef) SString() string { return c.Name }

// FnApp applies a scalar function or operator to arguments. Op uses Q
// operator spellings ("+", "=", "in", "like", "not", ...); the serializer
// maps them to SQL.
type FnApp struct {
	Op   string
	Args []Scalar
	Typ  qval.Type
}

// QType implements Scalar.
func (f *FnApp) QType() qval.Type { return f.Typ }

// SString implements Scalar.
func (f *FnApp) SString() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.SString()
	}
	return f.Op + "(" + strings.Join(parts, ";") + ")"
}

// AggCall is an aggregate function over an input column expression.
type AggCall struct {
	Fn  string // sum, avg, min, max, count, first, last, dev, var, med
	Arg Scalar // nil for count(*)
	Typ qval.Type
}

// QType implements Scalar.
func (a *AggCall) QType() qval.Type { return a.Typ }

// SString implements Scalar.
func (a *AggCall) SString() string {
	if a.Arg == nil {
		return a.Fn + "(*)"
	}
	return a.Fn + "(" + a.Arg.SString() + ")"
}

// ListExpr is a list-valued scalar (for IN lists).
type ListExpr struct {
	Items []Scalar
}

// QType implements Scalar.
func (l *ListExpr) QType() qval.Type { return qval.KList }

// SString implements Scalar.
func (l *ListExpr) SString() string {
	parts := make([]string, len(l.Items))
	for i, x := range l.Items {
		parts[i] = x.SString()
	}
	return "(" + strings.Join(parts, ";") + ")"
}

// NamedExpr pairs an output column name with its defining scalar.
type NamedExpr struct {
	Name string
	Expr Scalar
}

// ---------- Relational operators ----------

// Get is xtra_get: a scan of a backend table resolved through metadata
// (paper §3.2.2, Figure 2).
type Get struct {
	Table string // backend (SQL) table name
	QName string // the Q variable name it was bound from
	P     Props
}

// Props implements Node.
func (g *Get) Props() *Props { return &g.P }

// Children implements Node.
func (g *Get) Children() []Node { return nil }

// OpName implements Node.
func (g *Get) OpName() string { return fmt.Sprintf("xtra_get(%s)", g.Table) }

// ConstTable is an inline table of literal rows (e.g. enlisted values).
type ConstTable struct {
	P    Props
	Rows [][]qval.Value
}

// Props implements Node.
func (c *ConstTable) Props() *Props { return &c.P }

// Children implements Node.
func (c *ConstTable) Children() []Node { return nil }

// OpName implements Node.
func (c *ConstTable) OpName() string { return "xtra_const_table" }

// Project computes named expressions over its input (select columns).
type Project struct {
	Input Node
	Exprs []NamedExpr
	P     Props
}

// Props implements Node.
func (p *Project) Props() *Props { return &p.P }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// OpName implements Node.
func (p *Project) OpName() string { return "xtra_project" }

// Filter keeps rows satisfying a predicate.
type Filter struct {
	Input Node
	Pred  Scalar
	P     Props
}

// Props implements Node.
func (f *Filter) Props() *Props { return &f.P }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Input} }

// OpName implements Node.
func (f *Filter) OpName() string { return "xtra_filter" }

// JoinKind enumerates join operators.
type JoinKind int

// Join kinds.
const (
	InnerJoin JoinKind = iota
	LeftOuterJoin
)

func (k JoinKind) String() string {
	if k == InnerJoin {
		return "inner"
	}
	return "leftouter"
}

// Join is a binary join with an optional predicate.
type Join struct {
	Kind JoinKind
	L, R Node
	// EqCols are equality join columns present on both sides.
	EqCols []string
	// Extra is an additional join predicate (may be nil).
	Extra Scalar
	P     Props
}

// Props implements Node.
func (j *Join) Props() *Props { return &j.P }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.L, j.R} }

// OpName implements Node.
func (j *Join) OpName() string { return "xtra_join(" + j.Kind.String() + ")" }

// AsOfJoin is the algebraic form of Q's aj: a left outer join whose match is
// "most recent right row with equal EqCols and TimeCol <= left TimeCol".
// The binder produces it directly from aj (paper Figure 2 binds aj to a left
// outer join computing a window function on its right input); the serializer
// expands it into exactly that SQL shape.
type AsOfJoin struct {
	L, R    Node
	EqCols  []string
	TimeCol string
	P       Props
}

// Props implements Node.
func (j *AsOfJoin) Props() *Props { return &j.P }

// Children implements Node.
func (j *AsOfJoin) Children() []Node { return []Node{j.L, j.R} }

// OpName implements Node.
func (j *AsOfJoin) OpName() string { return "xtra_asofjoin" }

// GroupAgg groups by key columns and computes aggregate expressions.
type GroupAgg struct {
	Input Node
	Keys  []NamedExpr // grouping expressions with output names
	Aggs  []NamedExpr // aggregate expressions with output names
	P     Props
}

// Props implements Node.
func (g *GroupAgg) Props() *Props { return &g.P }

// Children implements Node.
func (g *GroupAgg) Children() []Node { return []Node{g.Input} }

// OpName implements Node.
func (g *GroupAgg) OpName() string { return "xtra_groupagg" }

// WindowFunc is one windowed computation added by the Window operator: a
// function of no arguments over the whole input in its order, which
// serializes as FN() OVER ().
type WindowFunc struct {
	Name string // output column
	Fn   string // row_number
}

// Window appends window-function columns to its input — the operator the
// Xformer injects to generate implicit order columns (paper §3.3).
type Window struct {
	Input Node
	Funcs []WindowFunc
	P     Props
}

// Props implements Node.
func (w *Window) Props() *Props { return &w.P }

// Children implements Node.
func (w *Window) Children() []Node { return []Node{w.Input} }

// OpName implements Node.
func (w *Window) OpName() string { return "xtra_window" }

// SortKey is one ordering criterion.
type SortKey struct {
	Col  string
	Desc bool
}

// Sort orders rows. The Xformer adds Sort on ordcol at plan roots to
// maintain Q's ordered-list semantics, and removes it where an enclosing
// operator is order-insensitive (§3.3).
type Sort struct {
	Input Node
	Keys  []SortKey
	P     Props
}

// Props implements Node.
func (s *Sort) Props() *Props { return &s.P }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Input} }

// OpName implements Node.
func (s *Sort) OpName() string { return "xtra_sort" }

// Limit caps the row count (head/take).
type Limit struct {
	Input Node
	N     int64
	P     Props
}

// Props implements Node.
func (l *Limit) Props() *Props { return &l.P }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Input} }

// OpName implements Node.
func (l *Limit) OpName() string { return "xtra_limit" }

// Walk visits the relational tree depth-first pre-order.
func Walk(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}

// PlanString renders the operator tree with properties, for debugging and
// tests.
func PlanString(n Node) string {
	var b strings.Builder
	var rec func(n Node, depth int)
	rec = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.OpName())
		p := n.Props()
		b.WriteString(" [")
		for i, c := range p.Cols {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.Name)
		}
		b.WriteString("]")
		if p.OrderCol != "" {
			b.WriteString(" ord=" + p.OrderCol)
		}
		b.WriteString("\n")
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}

// SQLTypeFor maps a Q type to its backend SQL type (paper §3.2.2: int types
// map to integer types, symbol to varchar, strings to text).
func SQLTypeFor(t qval.Type) string {
	if t < 0 {
		t = -t
	}
	switch t {
	case qval.KBool:
		return "boolean"
	case qval.KByte, qval.KShort:
		return "smallint"
	case qval.KInt:
		return "integer"
	case qval.KLong:
		return "bigint"
	case qval.KReal:
		return "real"
	case qval.KFloat:
		return "double precision"
	case qval.KChar:
		return "varchar"
	case qval.KSymbol:
		return "varchar"
	case qval.KTimestamp, qval.KDatetime:
		return "timestamp"
	case qval.KMonth:
		return "integer"
	case qval.KDate:
		return "date"
	case qval.KTimespan:
		return "bigint"
	case qval.KMinute, qval.KSecond:
		return "integer"
	case qval.KTime:
		return "time"
	default:
		return "text"
	}
}

// QTypeForSQL maps a backend SQL type back to a Q type.
func QTypeForSQL(t string) qval.Type {
	switch t {
	case "boolean", "bool":
		return qval.KBool
	case "smallint", "int2":
		return qval.KShort
	case "integer", "int", "int4":
		return qval.KInt
	case "bigint", "int8", "interval":
		return qval.KLong
	case "real", "float4":
		return qval.KReal
	case "double precision", "float8", "numeric", "decimal":
		return qval.KFloat
	case "date":
		return qval.KDate
	case "time":
		return qval.KTime
	case "timestamp", "timestamptz":
		return qval.KTimestamp
	default:
		return qval.KSymbol
	}
}

// OrdCol is the reserved name of the implicit order column Hyper-Q plumbs
// through generated SQL (paper §4.3 shows it as "ordcol").
const OrdCol = "ordcol"

// Union is a bag union of two inputs over the union of their columns;
// columns missing on one side are null-padded. It serializes to UNION ALL
// and implements Q's uj (union join).
type Union struct {
	L, R Node
	P    Props
}

// Props implements Node.
func (u *Union) Props() *Props { return &u.P }

// Children implements Node.
func (u *Union) Children() []Node { return []Node{u.L, u.R} }

// OpName implements Node.
func (u *Union) OpName() string { return "xtra_union" }
