package binder

import (
	"context"

	"hyperq/internal/qlang/ast"
	"hyperq/internal/qlang/parse"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/xtra"
)

// bindTemplate binds the q-sql templates into XTRA (paper §3.2.2). The
// general shape is Filter over the bound From input, then Project or
// GroupAgg depending on aggregation, mirroring Figure 2's algebrization of
// nested select templates.
func (b *Binder) bindTemplate(ctx context.Context, t *ast.SQLTemplate) (xtra.Node, error) {
	input, err := b.BindRel(ctx, t.From)
	if err != nil {
		return nil, err
	}
	// Where: q applies conditions sequentially; without aggregates in the
	// conditions this is equivalent to a conjunction, which is what SQL's
	// WHERE expresses.
	var pred xtra.Scalar
	if len(t.Where) > 0 {
		for _, w := range t.Where {
			s, err := b.bindScalar(ctx, w, input.Props())
			if err != nil {
				return nil, err
			}
			if s.QType() != qval.KBool {
				return nil, berr("type", "where condition %s is not boolean", w.QString())
			}
			if pred == nil {
				pred = s
			} else {
				pred = &xtra.FnApp{Op: "and", Args: []xtra.Scalar{pred, s}, Typ: qval.KBool}
			}
		}
	}
	// update keeps every row and applies new values only where the
	// predicate holds (q semantics), so its predicate folds into CASE
	// expressions instead of a Filter
	if t.Kind == ast.Update {
		return b.bindUpdateCols(ctx, t, input, pred)
	}
	if pred != nil {
		f := &xtra.Filter{Input: input, Pred: pred}
		f.P = *input.Props()
		f.P.PreservesOrder = true
		input = f
	}
	switch t.Kind {
	case ast.Select, ast.Exec:
		return b.bindSelectCols(ctx, t, input)
	case ast.Delete:
		return b.bindDeleteCols(t, input)
	}
	return nil, berr("nyi", "template %v", t.Kind)
}

func (b *Binder) bindSelectCols(ctx context.Context, t *ast.SQLTemplate, input xtra.Node) (xtra.Node, error) {
	inProps := input.Props()
	// select from t — all columns, order preserved
	if len(t.Cols) == 0 && len(t.By) == 0 {
		p := &xtra.Project{Input: input}
		for _, c := range inProps.Cols {
			p.Exprs = append(p.Exprs, xtra.NamedExpr{Name: c.Name, Expr: &xtra.ColRef{Name: c.Name, Typ: c.QType}})
			p.P.Cols = append(p.P.Cols, c)
		}
		p.P.OrderCol = inProps.OrderCol
		p.P.PreservesOrder = true
		return p, nil
	}
	// bind the column expressions
	type boundCol struct {
		name string
		expr xtra.Scalar
	}
	var cols []boundCol
	agg := len(t.By) > 0
	for _, spec := range t.Cols {
		s, err := b.bindScalar(ctx, spec.Expr, inProps)
		if err != nil {
			return nil, err
		}
		name := spec.Name
		if name == "" {
			name = parse.InferColName(spec.Expr)
		}
		cols = append(cols, boundCol{name: name, expr: s})
		if scalarHasAgg(s) {
			agg = true
		}
	}
	if !agg {
		p := &xtra.Project{Input: input}
		for _, c := range cols {
			p.Exprs = append(p.Exprs, xtra.NamedExpr{Name: c.name, Expr: c.expr})
			p.P.Cols = append(p.P.Cols, xtra.Col{Name: c.name, QType: c.expr.QType(), SQLType: xtra.SQLTypeFor(c.expr.QType())})
		}
		// keep the implicit order column flowing through projections
		if oc := inProps.OrderCol; oc != "" {
			if _, exists := p.P.Col(oc); !exists {
				if c, ok := inProps.Col(oc); ok {
					p.Exprs = append(p.Exprs, xtra.NamedExpr{Name: oc, Expr: &xtra.ColRef{Name: oc, Typ: c.QType}})
					p.P.Cols = append(p.P.Cols, c)
				}
			}
			p.P.OrderCol = oc
		}
		p.P.PreservesOrder = true
		return p, nil
	}
	// grouped or scalar aggregation
	g := &xtra.GroupAgg{Input: input}
	for _, spec := range t.By {
		s, err := b.bindScalar(ctx, spec.Expr, inProps)
		if err != nil {
			return nil, err
		}
		name := spec.Name
		if name == "" {
			name = parse.InferColName(spec.Expr)
		}
		g.Keys = append(g.Keys, xtra.NamedExpr{Name: name, Expr: s})
		g.P.Cols = append(g.P.Cols, xtra.Col{Name: name, QType: s.QType(), SQLType: xtra.SQLTypeFor(s.QType())})
	}
	for _, c := range cols {
		if !scalarHasAgg(c.expr) {
			// q keeps a column without an aggregate whole: a per-group list
			// under by, and beside an aggregate it broadcasts the aggregate
			// atom to every row. Neither is one SQL aggregate row.
			if col := firstColRef(c.expr); col != "" {
				return nil, berr("nyi", "column %s beside an aggregate or by needs an aggregate", col)
			}
			// a constant is the same in every group
			c.expr = &xtra.AggCall{Fn: "last", Arg: c.expr, Typ: c.expr.QType()}
		}
		g.Aggs = append(g.Aggs, xtra.NamedExpr{Name: c.name, Expr: c.expr})
		g.P.Cols = append(g.P.Cols, xtra.Col{Name: c.name, QType: c.expr.QType(), SQLType: xtra.SQLTypeFor(c.expr.QType())})
	}
	// grouping destroys the input order; by-groups are ordered by first
	// appearance in q, which the serializer expresses by ordering on the
	// minimum input order column when available
	if oc := inProps.OrderCol; oc != "" && len(g.Keys) > 0 {
		g.P.OrderCol = ""
	}
	return g, nil
}

func (b *Binder) bindUpdateCols(ctx context.Context, t *ast.SQLTemplate, input xtra.Node, pred xtra.Scalar) (xtra.Node, error) {
	if len(t.By) > 0 {
		return nil, berr("nyi", "update ... by is not supported")
	}
	inProps := input.Props()
	p := &xtra.Project{Input: input}
	replaced := map[string]xtra.Scalar{}
	var added []xtra.NamedExpr
	for _, spec := range t.Cols {
		s, err := b.bindScalar(ctx, spec.Expr, inProps)
		if err != nil {
			return nil, err
		}
		name := spec.Name
		if name == "" {
			name = parse.InferColName(spec.Expr)
		}
		if old, ok := inProps.Col(name); ok {
			if pred != nil {
				// conditional update: CASE WHEN pred THEN new ELSE old END
				s = &xtra.FnApp{Op: "cond", Typ: s.QType(), Args: []xtra.Scalar{
					pred, s, &xtra.ColRef{Name: name, Typ: old.QType},
				}}
			}
			replaced[name] = s
		} else {
			if pred != nil {
				s = &xtra.FnApp{Op: "cond", Typ: s.QType(), Args: []xtra.Scalar{
					pred, s, &xtra.ConstExpr{Val: qval.Null(s.QType())},
				}}
			}
			added = append(added, xtra.NamedExpr{Name: name, Expr: s})
		}
	}
	for _, c := range inProps.Cols {
		if s, ok := replaced[c.Name]; ok {
			p.Exprs = append(p.Exprs, xtra.NamedExpr{Name: c.Name, Expr: s})
			p.P.Cols = append(p.P.Cols, xtra.Col{Name: c.Name, QType: s.QType(), SQLType: xtra.SQLTypeFor(s.QType())})
		} else {
			p.Exprs = append(p.Exprs, xtra.NamedExpr{Name: c.Name, Expr: &xtra.ColRef{Name: c.Name, Typ: c.QType}})
			p.P.Cols = append(p.P.Cols, c)
		}
	}
	for _, a := range added {
		p.Exprs = append(p.Exprs, a)
		p.P.Cols = append(p.P.Cols, xtra.Col{Name: a.Name, QType: a.Expr.QType(), SQLType: xtra.SQLTypeFor(a.Expr.QType())})
	}
	p.P.OrderCol = inProps.OrderCol
	p.P.PreservesOrder = true
	return p, nil
}

// bindDeleteCols handles delete: with a where clause the Filter bound by
// bindTemplate has already been applied — but deletion keeps the complement,
// so we rebuild with a negated predicate; with column names it projects the
// remaining columns.
func (b *Binder) bindDeleteCols(t *ast.SQLTemplate, input xtra.Node) (xtra.Node, error) {
	if len(t.Cols) > 0 && len(t.Where) == 0 {
		drop := map[string]bool{}
		for _, spec := range t.Cols {
			v, ok := spec.Expr.(*ast.Var)
			if !ok {
				return nil, berr("type", "delete expects column names")
			}
			if _, exists := input.Props().Col(v.Name); !exists {
				return nil, berr(v.Name, "delete of unknown column")
			}
			drop[v.Name] = true
		}
		p := &xtra.Project{Input: input}
		for _, c := range input.Props().Cols {
			if drop[c.Name] {
				continue
			}
			p.Exprs = append(p.Exprs, xtra.NamedExpr{Name: c.Name, Expr: &xtra.ColRef{Name: c.Name, Typ: c.QType}})
			p.P.Cols = append(p.P.Cols, c)
		}
		p.P.OrderCol = input.Props().OrderCol
		p.P.PreservesOrder = true
		return p, nil
	}
	// delete rows: input is Filter(pred); deletion = Filter(not pred)
	f, ok := input.(*xtra.Filter)
	if !ok {
		// delete from t with no where: empty result
		lim := &xtra.Limit{Input: input, N: 0}
		lim.P = *input.Props()
		return lim, nil
	}
	neg := &xtra.Filter{
		Input: f.Input,
		Pred:  &xtra.FnApp{Op: "not", Args: []xtra.Scalar{f.Pred}, Typ: qval.KBool},
	}
	neg.P = f.P
	return neg, nil
}

func scalarHasAgg(s xtra.Scalar) bool {
	switch x := s.(type) {
	case *xtra.AggCall:
		return true
	case *xtra.FnApp:
		for _, a := range x.Args {
			if scalarHasAgg(a) {
				return true
			}
		}
	case *xtra.ListExpr:
		for _, a := range x.Items {
			if scalarHasAgg(a) {
				return true
			}
		}
	}
	return false
}

// firstColRef names the first column s references, or "" for a constant.
func firstColRef(s xtra.Scalar) string {
	var args []xtra.Scalar
	switch x := s.(type) {
	case *xtra.ColRef:
		return x.Name
	case *xtra.FnApp:
		args = x.Args
	case *xtra.ListExpr:
		args = x.Items
	}
	for _, a := range args {
		if col := firstColRef(a); col != "" {
			return col
		}
	}
	return ""
}
