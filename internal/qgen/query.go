package qgen

import "strings"

// SelCol is one select or by column: Name is empty for bare expressions
// (exec columns and wildcard selects).
type SelCol struct {
	Name string
	Expr Expr
}

// Query is a structured q-sql query. Keeping the structure (rather than
// generating text directly) is what makes shrinking possible: the shrinker
// deletes where-conjuncts, select columns, the by clause or the join and
// re-renders.
type Query struct {
	Kind  string // "select", "exec", "delete" (no columns) or "update" (one new column); the last two from "t"
	Cols  []SelCol
	By    []SelCol
	From  string // "t", "t lj d" or "aj[`s`tm; t; qts]"
	Where []Expr // conjuncts
}

// Q renders the query as q source.
func (q *Query) Q() string {
	var b strings.Builder
	b.WriteString(q.Kind)
	for i, c := range q.Cols {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(" ")
		if c.Name != "" {
			b.WriteString(c.Name)
			b.WriteString(":")
		}
		b.WriteString(c.Expr.Q())
	}
	if len(q.By) > 0 {
		b.WriteString(" by ")
		for i, c := range q.By {
			if i > 0 {
				b.WriteString(", ")
			}
			if c.Name != "" {
				b.WriteString(c.Name)
				b.WriteString(":")
			}
			b.WriteString(c.Expr.Q())
		}
	}
	b.WriteString(" from ")
	b.WriteString(q.From)
	for i, w := range q.Where {
		if i == 0 {
			b.WriteString(" where ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(w.Q())
	}
	return b.String()
}

// Clone deep-copies the query structure (expressions are immutable once
// generated, so sharing them is safe).
func (q *Query) Clone() *Query {
	c := &Query{Kind: q.Kind, From: q.From}
	c.Cols = append([]SelCol(nil), q.Cols...)
	c.By = append([]SelCol(nil), q.By...)
	c.Where = append([]Expr(nil), q.Where...)
	return c
}

// Shrinks proposes structurally smaller variants of the query, most
// aggressive first. The caller keeps a variant if it still reproduces the
// divergence.
func (q *Query) Shrinks() []*Query {
	var out []*Query
	// drop the whole where clause, then individual conjuncts
	if len(q.Where) > 0 {
		c := q.Clone()
		c.Where = nil
		out = append(out, c)
		if len(q.Where) > 1 {
			for i := range q.Where {
				c := q.Clone()
				c.Where = append(append([]Expr(nil), q.Where[:i]...), q.Where[i+1:]...)
				out = append(out, c)
			}
		}
	}
	// drop the by clause (global aggregate keeps the same column exprs)
	if len(q.By) > 0 {
		c := q.Clone()
		c.By = nil
		out = append(out, c)
	}
	// drop select columns one at a time (keep at least one)
	if len(q.Cols) > 1 {
		for i := range q.Cols {
			c := q.Clone()
			c.Cols = append(append([]SelCol(nil), q.Cols[:i]...), q.Cols[i+1:]...)
			out = append(out, c)
		}
	}
	// simplify the from clause to the bare fact table
	if q.From != "t" {
		c := q.Clone()
		c.From = "t"
		out = append(out, c)
	}
	// replace each column expression by a child subtree that still
	// references a column (keeps the query valid under q's shape rules)
	for i, sc := range q.Cols {
		for _, sub := range subExprs(sc.Expr) {
			if !refsColumn(sub) {
				continue
			}
			if _, isAgg := sc.Expr.(*Agg); isAgg {
				// aggregate columns must stay aggregates under a by clause
				if _, subAgg := sub.(*Agg); !subAgg && len(q.By) > 0 {
					continue
				}
			}
			c := q.Clone()
			c.Cols = append([]SelCol(nil), q.Cols...)
			c.Cols[i] = SelCol{Name: sc.Name, Expr: sub}
			out = append(out, c)
		}
	}
	// simplify where conjuncts to child predicates
	for i, w := range q.Where {
		for _, sub := range subExprs(w) {
			if sub.Kind() != Bool {
				continue
			}
			c := q.Clone()
			c.Where = append([]Expr(nil), q.Where...)
			c.Where[i] = sub
			out = append(out, c)
		}
	}
	return out
}

// subExprs lists all proper sub-expressions of e.
func subExprs(e Expr) []Expr {
	var out []Expr
	for _, c := range e.Children() {
		out = append(out, c)
		out = append(out, subExprs(c)...)
	}
	return out
}
