package qgen

import (
	"cmp"
	"math"
	"slices"
	"strings"
)

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
	// Sort, "xasc" or "xdesc", sorts the result on the output columns
	// SortBy: `a`b xasc select ...
	Sort   string
	SortBy []string
}

// Q renders the query as q source.
func (q *Query) Q() string {
	var b strings.Builder
	if q.Sort != "" {
		for _, c := range q.SortBy {
			b.WriteString("`" + c)
		}
		b.WriteString(" " + q.Sort + " ")
	}
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
	c := &Query{Kind: q.Kind, From: q.From, Sort: q.Sort, SortBy: q.SortBy}
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
	// drop the sort, then a second sort key
	if q.Sort != "" {
		c := q.Clone()
		c.Sort, c.SortBy = "", nil
		out = append(out, c)
		if len(q.SortBy) > 1 {
			c := q.Clone()
			c.SortBy = q.SortBy[:1]
			out = append(out, c)
		}
	}
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
	// drop select columns one at a time (keep at least one and the sort keys)
	if len(q.Cols) > 1 {
		for i := range q.Cols {
			if slices.Contains(q.SortBy, q.Cols[i].Name) {
				continue
			}
			c := q.Clone()
			c.Cols = append(append([]SelCol(nil), q.Cols[:i]...), q.Cols[i+1:]...)
			out = append(out, c)
		}
	}
	// simplify the from clause to the bare fact table (its columns must
	// still hold the sort keys)
	if q.From != "t" && (len(q.Cols) > 0 || sortKeysIn(q.SortBy, fromVariants[0].cols)) {
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

// Perturbed returns the query with each literal a translation cache may lift
// changed within its class: integers move 3 away from zero, floats scale by
// 1.5 (by 2 where 1.5 would change their spelling), symbols step to the next
// one of the dataset and times move by 7 ms. Zeros, empty symbols and like
// patterns stay, as they stay in the cache key.
func (q *Query) Perturbed() *Query {
	c := q.Clone()
	for _, cols := range [][]SelCol{c.Cols, c.By} {
		for i := range cols {
			cols[i].Expr = perturb(cols[i].Expr)
		}
	}
	for i := range c.Where {
		c.Where[i] = perturb(c.Where[i])
	}
	return c
}

func perturb(e Expr) Expr {
	switch x := e.(type) {
	case *ConstInt:
		return &ConstInt{V: x.V + 3*int64(cmp.Compare(x.V, 0))}
	case *ConstFloat:
		if v := x.V * 1.5; (v == math.Trunc(v)) == (x.V == math.Trunc(x.V)) {
			return &ConstFloat{V: v}
		}
		return &ConstFloat{V: x.V * 2}
	case *ConstSym:
		// symDomain lists its three non-empty symbols first
		if i := slices.Index(symDomain[:3], x.V); i >= 0 {
			return &ConstSym{V: symDomain[(i+1)%3]}
		}
	case *ConstTime:
		if x.Ms != 0 && x.Ms+7 < 86_400_000 {
			return &ConstTime{Ms: x.Ms + 7}
		}
	case *Bin:
		return &Bin{Op: x.Op, L: perturb(x.L), R: perturb(x.R), T: x.T}
	case *Un:
		return &Un{Fn: x.Fn, X: perturb(x.X)}
	case *Agg:
		return &Agg{Fn: x.Fn, X: perturb(x.X), W: perturb(x.W)} // a nil W stays nil
	case *In:
		in := &In{X: perturb(x.X)}
		for _, it := range x.Items {
			in.Items = append(in.Items, perturb(it))
		}
		return in
	case *Within:
		return &Within{X: perturb(x.X), Lo: perturb(x.Lo), Hi: perturb(x.Hi)}
	}
	return e
}

// sortKeysIn reports whether every sort key names one of cols.
func sortKeysIn(keys []string, cols []*Col) bool {
	for _, k := range keys {
		if !slices.ContainsFunc(cols, func(c *Col) bool { return c.Name == k }) {
			return false
		}
	}
	return true
}
