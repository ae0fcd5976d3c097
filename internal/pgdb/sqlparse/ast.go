package sqlparse

// Stmt is any SQL statement.
type Stmt interface{ stmt() }

// Expr is any SQL scalar expression.
type Expr interface{ expr() }

// SelectStmt is a SELECT query, possibly with a UNION ALL chained via
// Union.
type SelectStmt struct {
	Items   []SelectItem
	From    TableRef // nil: SELECT without FROM
	Where   Expr
	GroupBy []Expr
	OrderBy []OrderItem
	Limit   Expr
	Union   *SelectStmt // the right side of UNION ALL
}

func (*SelectStmt) stmt() {}

// SelectItem is one output column: expression plus optional alias; a Star
// item expands to all columns (optionally qualified).
type SelectItem struct {
	Star      bool
	StarTable string // "t".* when set
	Expr      Expr
	Alias     string
}

// TableRef is an entry of the FROM clause: a base table, a subquery, or a
// join tree.
type TableRef interface{ tableRef() }

// BaseTable references a named table or view, with an optional alias.
type BaseTable struct {
	Schema string
	Name   string
	Alias  string
}

func (*BaseTable) tableRef() {}

// SubqueryRef is a parenthesized SELECT used as a table, with an alias.
type SubqueryRef struct {
	Query *SelectStmt
	Alias string
}

func (*SubqueryRef) tableRef() {}

// JoinType enumerates join kinds.
type JoinType int

// Join kinds.
const (
	InnerJoin JoinType = iota
	LeftJoin
)

// JoinRef is a binary join between two table refs with an ON condition.
type JoinRef struct {
	Type  JoinType
	Left  TableRef
	Right TableRef
	On    Expr
}

func (*JoinRef) tableRef() {}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr       Expr
	Desc       bool
	NullsFirst *bool // nil means dialect default (nulls last asc / first desc)
}

// CreateTableStmt covers CREATE [TEMPORARY] TABLE name (cols) and
// CREATE [TEMPORARY] TABLE name AS SELECT.
type CreateTableStmt struct {
	Temp     bool
	Name     string
	Cols     []ColumnDef
	AsSelect *SelectStmt
}

func (*CreateTableStmt) stmt() {}

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name string
	Type string // normalized lowercase type name
}

// CreateViewStmt is CREATE VIEW name AS SELECT. Source is the SELECT's
// text as written (parsed once here, so a malformed view is rejected at
// creation), which the engine stores and re-parses on every reference.
type CreateViewStmt struct {
	Name   string
	Source string
}

func (*CreateViewStmt) stmt() {}

// DropStmt is DROP TABLE/VIEW [IF EXISTS] name.
type DropStmt struct {
	View     bool
	IfExists bool
	Name     string
}

func (*DropStmt) stmt() {}

// InsertStmt is INSERT INTO name VALUES (...),(...): one value per table
// column, in column order. Tables are append-only; no statement updates or
// deletes a row.
type InsertStmt struct {
	Table string
	Rows  [][]Expr
}

func (*InsertStmt) stmt() {}

// Expressions

// NumberLit is a numeric literal kept as text until typing.
type NumberLit struct {
	Text string
}

func (*NumberLit) expr() {}

// StringLit is a string literal.
type StringLit struct {
	V string
}

func (*StringLit) expr() {}

// BoolLit is TRUE/FALSE.
type BoolLit struct {
	V bool
}

func (*BoolLit) expr() {}

// NullLit is NULL.
type NullLit struct{}

func (*NullLit) expr() {}

// ColRef references a column, optionally qualified with a table alias.
type ColRef struct {
	Table string
	Name  string
}

func (*ColRef) expr() {}

// ParamRef is a $n placeholder.
type ParamRef struct {
	N int
}

func (*ParamRef) expr() {}

// BinaryExpr applies a binary operator: arithmetic, comparison, AND/OR,
// string concatenation, LIKE, and IS [NOT] DISTINCT FROM.
type BinaryExpr struct {
	Op   string // "+", "-", "*", "/", "%", "||", "=", "<>", "<", ">", "<=", ">=", "AND", "OR", "LIKE", "IS DISTINCT FROM", "IS NOT DISTINCT FROM"
	L, R Expr
}

func (*BinaryExpr) expr() {}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op string // "NOT", "-"
	X  Expr
}

func (*UnaryExpr) expr() {}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (*IsNullExpr) expr() {}

// BetweenExpr is x BETWEEN lo AND hi.
type BetweenExpr struct {
	X      Expr
	Lo, Hi Expr
}

func (*BetweenExpr) expr() {}

// CaseExpr is a searched CASE WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr
}

func (*CaseExpr) expr() {}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

// FuncCall is a function invocation, possibly an aggregate (COUNT/SUM/...)
// or, when Over is non-nil, a window function.
type FuncCall struct {
	Name string // lowercased
	Star bool   // COUNT(*)
	Args []Expr
	Over *WindowSpec
}

func (*FuncCall) expr() {}

// WindowSpec is the OVER (...) clause of a window function.
type WindowSpec struct {
	PartitionBy []Expr
	OrderBy     []OrderItem
}

// CastExpr is CAST(x AS type) or x::type.
type CastExpr struct {
	X    Expr
	Type string // normalized lowercase
}

func (*CastExpr) expr() {}
