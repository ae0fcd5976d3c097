// Package qgen generates random typed tables and random q-sql queries for
// differential testing (qdiff). The side-by-side framework (paper §5) runs
// each generated query through both the kdb+ substrate and the Hyper-Q →
// SQL pipeline; qgen's job is to cover the semantic corners where the two
// dialects disagree — nulls, infinities, empty inputs, duplicates — while
// staying inside the grammar both engines implement.
package qgen

import (
	"fmt"
	"strings"
)

// Kind is the coarse type of a generated expression, enough to keep the
// grammar well-typed without re-implementing the binder.
type Kind int

const (
	Num  Kind = iota // long or float
	Sym              // symbol
	Time             // time-of-day
	Bool             // comparison result
)

// Expr is a generated scalar expression.
type Expr interface {
	// Q renders the expression as q source, fully parenthesized so q's
	// right-to-left evaluation cannot regroup it.
	Q() string
	Kind() Kind
	// Children returns direct sub-expressions (for shrinking).
	Children() []Expr
}

// Col references a column of the query's input table.
type Col struct {
	Name string
	T    Kind
}

func (c *Col) Q() string        { return c.Name }
func (c *Col) Kind() Kind       { return c.T }
func (c *Col) Children() []Expr { return nil }

// ConstInt is an integer literal.
type ConstInt struct{ V int64 }

func (c *ConstInt) Q() string        { return fmt.Sprint(c.V) }
func (c *ConstInt) Kind() Kind       { return Num }
func (c *ConstInt) Children() []Expr { return nil }

// ConstFloat is a finite float literal.
type ConstFloat struct{ V float64 }

func (c *ConstFloat) Q() string {
	s := fmt.Sprint(c.V)
	if !strings.ContainsAny(s, ".e") {
		s += "f" // keep the literal a float even when integral
	}
	return s
}
func (c *ConstFloat) Kind() Kind       { return Num }
func (c *ConstFloat) Children() []Expr { return nil }

// ConstSym is a symbol literal.
type ConstSym struct{ V string }

func (c *ConstSym) Q() string        { return "`" + c.V }
func (c *ConstSym) Kind() Kind       { return Sym }
func (c *ConstSym) Children() []Expr { return nil }

// ConstTime is a time-of-day literal (milliseconds since midnight).
type ConstTime struct{ Ms int64 }

func (c *ConstTime) Q() string {
	ms := c.Ms
	return fmt.Sprintf("%02d:%02d:%02d.%03d", ms/3600000, ms/60000%60, ms/1000%60, ms%1000)
}
func (c *ConstTime) Kind() Kind       { return Time }
func (c *ConstTime) Children() []Expr { return nil }

// Bin applies a dyadic operator: arithmetic (+ - * % mod div xbar & |) on
// Num operands, comparisons (= <> < > <= >=) yielding Bool.
type Bin struct {
	Op   string
	L, R Expr
	T    Kind
}

func (b *Bin) Q() string        { return "(" + b.L.Q() + " " + b.Op + " " + b.R.Q() + ")" }
func (b *Bin) Kind() Kind       { return b.T }
func (b *Bin) Children() []Expr { return []Expr{b.L, b.R} }

// Un applies a monadic verb: abs, neg, sqrt, exp, log, floor, ceiling and
// signum to a Num operand, lower and upper to a Sym one.
type Un struct {
	Fn string
	X  Expr
}

func (u *Un) Q() string        { return "(" + u.Fn + " " + u.X.Q() + ")" }
func (u *Un) Kind() Kind       { return u.X.Kind() }
func (u *Un) Children() []Expr { return []Expr{u.X} }

// Agg applies an aggregate verb. W is non-nil only for the dyadic wavg/wsum.
type Agg struct {
	Fn string
	X  Expr
	W  Expr
}

func (a *Agg) Q() string {
	if a.W != nil {
		return "(" + a.W.Q() + " " + a.Fn + " " + a.X.Q() + ")"
	}
	return "(" + a.Fn + " " + a.X.Q() + ")"
}
func (a *Agg) Kind() Kind { return Num }
func (a *Agg) Children() []Expr {
	if a.W != nil {
		return []Expr{a.X, a.W}
	}
	return []Expr{a.X}
}

// In tests membership against a literal list.
type In struct {
	X     Expr
	Items []Expr
}

func (n *In) Q() string {
	parts := make([]string, len(n.Items))
	for i, it := range n.Items {
		parts[i] = it.Q()
	}
	if n.X.Kind() == Sym {
		// symbol lists juxtapose: `a`b`c
		return "(" + n.X.Q() + " in " + strings.Join(parts, "") + ")"
	}
	return "(" + n.X.Q() + " in (" + strings.Join(parts, ";") + "))"
}
func (n *In) Kind() Kind       { return Bool }
func (n *In) Children() []Expr { return append([]Expr{n.X}, n.Items...) }

// Within tests inclusion in a closed interval.
type Within struct {
	X      Expr
	Lo, Hi Expr
}

func (w *Within) Q() string {
	return "(" + w.X.Q() + " within (" + w.Lo.Q() + ";" + w.Hi.Q() + "))"
}
func (w *Within) Kind() Kind       { return Bool }
func (w *Within) Children() []Expr { return []Expr{w.X, w.Lo, w.Hi} }

// Like glob-matches a symbol column against a constant pattern.
type Like struct {
	X   Expr
	Pat string
}

func (l *Like) Q() string        { return "(" + l.X.Q() + " like \"" + l.Pat + "\")" }
func (l *Like) Kind() Kind       { return Bool }
func (l *Like) Children() []Expr { return []Expr{l.X} }

// refsColumn reports whether e references at least one column; q collapses a
// select whose expressions are all atoms to a single row, so the generator
// requires every non-aggregate select column to pass this.
func refsColumn(e Expr) bool {
	if _, ok := e.(*Col); ok {
		return true
	}
	for _, c := range e.Children() {
		if refsColumn(c) {
			return true
		}
	}
	return false
}
