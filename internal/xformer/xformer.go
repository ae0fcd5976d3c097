// Package xformer applies transformations to XTRA expressions before SQL
// serialization (paper §3.3). Rules fall into the paper's three categories:
//
//   - Correctness: NullSemantics replaces strict equality with IS NOT
//     DISTINCT FROM so SQL's three-valued logic reproduces Q's two-valued
//     null comparisons.
//   - Performance: ColumnPruning keeps only the columns each node actually
//     needs, preventing the serialized SQL from dragging unused columns of
//     wide tables through every subquery.
//   - Transparency: OrderEnforcement maintains Q's ordered-list semantics —
//     injecting implicit order columns via window functions where missing,
//     propagating min(ordcol) through grouping, adding a final Sort, and
//     removing ordering requirements under scalar aggregation.
//
// Rules can be toggled individually, which the ablation benchmarks use.
package xformer

import (
	"hyperq/internal/qlang/qval"
	"hyperq/internal/xtra"
)

// Rule is one transformation.
type Rule interface {
	// Name identifies the rule in stats and configuration.
	Name() string
	// Apply rewrites the tree, returning the (possibly new) root and
	// whether anything changed.
	Apply(root xtra.Node) (xtra.Node, bool)
}

// Stats counts rule firings.
type Stats struct {
	Fired map[string]int
}

// Xformer runs an ordered list of rules.
type Xformer struct {
	rules []Rule
	stats Stats
}

// Config toggles individual rules; the zero value enables everything.
type Config struct {
	DisableNullSemantics bool
	DisableColumnPruning bool
	DisableOrdering      bool
}

// New builds an Xformer with the standard rule set.
func New(cfg Config) *Xformer {
	x := &Xformer{stats: Stats{Fired: map[string]int{}}}
	if !cfg.DisableNullSemantics {
		x.rules = append(x.rules, &nullSemantics{})
	}
	if !cfg.DisableOrdering {
		x.rules = append(x.rules, &orderEnforcement{})
	}
	if !cfg.DisableColumnPruning {
		x.rules = append(x.rules, &columnPruning{})
	}
	return x
}

// Apply runs all rules in order and returns the transformed tree.
func (x *Xformer) Apply(root xtra.Node) xtra.Node {
	for _, r := range x.rules {
		var fired bool
		root, fired = r.Apply(root)
		if fired {
			x.stats.Fired[r.Name()]++
		}
	}
	return root
}

// Stats returns firing counts per rule.
func (x *Xformer) Stats() Stats { return x.stats }

// ---------- Correctness: 2-valued null semantics ----------

type nullSemantics struct{}

func (*nullSemantics) Name() string { return "NullSemantics" }

// Apply rewrites every strict equality (and Q's type-strict match ~) in
// scalar expressions to the null-safe IS [NOT] DISTINCT FROM form.
func (r *nullSemantics) Apply(root xtra.Node) (xtra.Node, bool) {
	fired := false
	xtra.Walk(root, func(n xtra.Node) bool {
		switch op := n.(type) {
		case *xtra.Filter:
			op.Pred = rewriteNullSafe(op.Pred, &fired)
		case *xtra.Project:
			for i := range op.Exprs {
				op.Exprs[i].Expr = rewriteNullSafe(op.Exprs[i].Expr, &fired)
			}
		case *xtra.GroupAgg:
			for i := range op.Keys {
				op.Keys[i].Expr = rewriteNullSafe(op.Keys[i].Expr, &fired)
			}
			for i := range op.Aggs {
				op.Aggs[i].Expr = rewriteNullSafe(op.Aggs[i].Expr, &fired)
			}
		case *xtra.Join:
			if op.Extra != nil {
				op.Extra = rewriteNullSafe(op.Extra, &fired)
			}
		}
		return true
	})
	return root, fired
}

func rewriteNullSafe(s xtra.Scalar, fired *bool) xtra.Scalar {
	switch x := s.(type) {
	case *xtra.FnApp:
		for i := range x.Args {
			x.Args[i] = rewriteNullSafe(x.Args[i], fired)
		}
		switch x.Op {
		case "=", "~":
			*fired = true
			return &xtra.FnApp{Op: "indf", Args: x.Args, Typ: qval.KBool}
		case "<>":
			*fired = true
			return &xtra.FnApp{Op: "idf", Args: x.Args, Typ: qval.KBool}
		case "<", ">", "<=", ">=":
			// Q's ordered comparisons are also two-valued: nulls sort below
			// every value of their type, so 0N<5 is 1b where SQL goes unknown
			*fired = true
			qop := map[string]string{"<": "qlt", ">": "qgt", "<=": "qle", ">=": "qge"}[x.Op]
			return &xtra.FnApp{Op: qop, Args: x.Args, Typ: qval.KBool}
		}
		return x
	case *xtra.AggCall:
		if x.Arg != nil {
			x.Arg = rewriteNullSafe(x.Arg, fired)
		}
		return x
	case *xtra.ListExpr:
		for i := range x.Items {
			x.Items[i] = rewriteNullSafe(x.Items[i], fired)
		}
		return x
	default:
		return s
	}
}

// ---------- Transparency: order enforcement ----------

type orderEnforcement struct{}

func (*orderEnforcement) Name() string { return "OrderEnforcement" }

// Apply maintains Q ordered-list semantics:
//
//  1. Inputs that lack an implicit order column get one injected via a
//     window function (ROW_NUMBER() OVER ()).
//  2. GroupAgg nodes propagate the group's first-appearance position as
//     min(ordcol), giving grouped results q's by-group ordering.
//  3. The plan root gets an explicit Sort on its order column — unless the
//     root is a scalar aggregation, where the Xformer removes the ordering
//     requirement (paper §3.3's example).
func (r *orderEnforcement) Apply(root xtra.Node) (xtra.Node, bool) {
	fired := false
	root = injectOrder(root, &fired)
	// root ordering requirement
	if g, ok := root.(*xtra.GroupAgg); ok && len(g.Keys) == 0 {
		// scalar aggregation: order of the (single-row) result is moot;
		// also remove ordering below it (handled by not adding Sort)
		return root, fired
	}
	if oc := root.Props().OrderCol; oc != "" {
		if _, already := root.(*xtra.Sort); !already {
			srt := &xtra.Sort{Input: root, Keys: []xtra.SortKey{{Col: oc}}}
			srt.P = *root.Props()
			fired = true
			return srt, fired
		}
	}
	return root, fired
}

// injectOrder rewrites bottom-up ensuring ordered inputs where q requires
// them.
func injectOrder(n xtra.Node, fired *bool) xtra.Node {
	switch op := n.(type) {
	case *xtra.Get:
		if op.P.OrderCol == "" {
			*fired = true
			return wrapWithRowNumber(op)
		}
		return op
	case *xtra.Filter:
		op.Input = injectOrder(op.Input, fired)
		op.P.OrderCol = op.Input.Props().OrderCol
		if oc := op.P.OrderCol; oc != "" {
			ensureCol(&op.P, op.Input.Props(), oc)
		}
		return op
	case *xtra.Project:
		op.Input = injectOrder(op.Input, fired)
		if oc := op.Input.Props().OrderCol; oc != "" {
			if _, ok := op.P.Col(oc); !ok {
				if c, exists := op.Input.Props().Col(oc); exists {
					op.Exprs = append(op.Exprs, xtra.NamedExpr{Name: oc, Expr: &xtra.ColRef{Name: oc, Typ: c.QType}})
					op.P.Cols = append(op.P.Cols, c)
					*fired = true
				}
			}
			op.P.OrderCol = oc
		}
		return op
	case *xtra.GroupAgg:
		op.Input = injectOrder(op.Input, fired)
		if len(op.Keys) > 0 {
			if ic := op.Input.Props().OrderCol; ic != "" {
				if _, ok := op.P.Col(xtra.OrdCol); !ok {
					inCol, _ := op.Input.Props().Col(ic)
					op.Aggs = append(op.Aggs, xtra.NamedExpr{
						Name: xtra.OrdCol,
						Expr: &xtra.AggCall{Fn: "min", Arg: &xtra.ColRef{Name: ic, Typ: inCol.QType}, Typ: inCol.QType},
					})
					op.P.Cols = append(op.P.Cols, xtra.Col{Name: xtra.OrdCol, QType: inCol.QType, SQLType: xtra.SQLTypeFor(inCol.QType)})
					op.P.OrderCol = xtra.OrdCol
					*fired = true
				}
			}
		}
		return op
	case *xtra.AsOfJoin:
		op.L = injectOrder(op.L, fired)
		op.R = injectOrder(op.R, fired)
		if op.L.Props().OrderCol == "" {
			op.L = wrapWithRowNumber(op.L)
			*fired = true
		}
		op.P.OrderCol = op.L.Props().OrderCol
		if oc := op.P.OrderCol; oc != "" {
			ensureCol(&op.P, op.L.Props(), oc)
		}
		return op
	case *xtra.Join:
		op.L = injectOrder(op.L, fired)
		op.R = injectOrder(op.R, fired)
		op.P.OrderCol = op.L.Props().OrderCol
		if oc := op.P.OrderCol; oc != "" {
			ensureCol(&op.P, op.L.Props(), oc)
		}
		return op
	case *xtra.Union:
		op.L = injectOrder(op.L, fired)
		op.R = injectOrder(op.R, fired)
		lo, ro := op.L.Props().OrderCol, op.R.Props().OrderCol
		if lo != "" && ro != "" {
			op.P.OrderCol = lo
			ensureCol(&op.P, op.L.Props(), lo)
		}
		return op
	case *xtra.Sort:
		op.Input = injectOrder(op.Input, fired)
		return op
	case *xtra.Limit:
		op.Input = injectOrder(op.Input, fired)
		op.P.OrderCol = op.Input.Props().OrderCol
		return op
	case *xtra.Window:
		op.Input = injectOrder(op.Input, fired)
		return op
	default:
		return n
	}
}

func ensureCol(p *xtra.Props, from *xtra.Props, name string) {
	if _, ok := p.Col(name); ok {
		return
	}
	if c, ok := from.Col(name); ok {
		p.Cols = append(p.Cols, c)
	}
}

// wrapWithRowNumber injects the implicit order column via a window function
// (paper §3.3: "The Xformer may also generate implicit order columns by
// injecting window functions").
func wrapWithRowNumber(input xtra.Node) xtra.Node {
	w := &xtra.Window{
		Input: input,
		Funcs: []xtra.WindowFunc{{Name: xtra.OrdCol, Fn: "row_number"}},
	}
	w.P.Cols = append(w.P.Cols, input.Props().Cols...)
	w.P.Cols = append(w.P.Cols, xtra.Col{Name: xtra.OrdCol, QType: qval.KLong, SQLType: "bigint"})
	w.P.OrderCol = xtra.OrdCol
	w.P.PreservesOrder = true
	return w
}

// ---------- Performance: column pruning ----------

type columnPruning struct{}

func (*columnPruning) Name() string { return "ColumnPruning" }

// Apply performs top-down required-column analysis and prunes the column
// lists of Get and Project nodes, so the serialized SQL carries only needed
// columns — the optimization §3.3 describes for wide tables.
func (r *columnPruning) Apply(root xtra.Node) (xtra.Node, bool) {
	fired := false
	// the root needs all of its output columns
	need := map[string]bool{}
	for _, c := range root.Props().Cols {
		need[c.Name] = true
	}
	prune(root, need, &fired)
	return root, fired
}

func prune(n xtra.Node, need map[string]bool, fired *bool) {
	switch op := n.(type) {
	case *xtra.Get:
		var kept []xtra.Col
		for _, c := range op.P.Cols {
			if need[c.Name] {
				kept = append(kept, c)
			}
		}
		if len(kept) < len(op.P.Cols) && len(kept) > 0 {
			op.P.Cols = kept
			*fired = true
		}
	case *xtra.Window:
		childNeed := copyNeed(need)
		for _, f := range op.Funcs {
			delete(childNeed, f.Name)
		}
		prune(op.Input, childNeed, fired)
	case *xtra.Filter:
		childNeed := copyNeed(need)
		addScalarCols(op.Pred, childNeed)
		if op.P.OrderCol != "" {
			childNeed[op.P.OrderCol] = true
		}
		// filter passes through its input columns; keep only needed
		var kept []xtra.Col
		for _, c := range op.P.Cols {
			if childNeed[c.Name] {
				kept = append(kept, c)
			}
		}
		if len(kept) > 0 && len(kept) < len(op.P.Cols) {
			op.P.Cols = kept
			*fired = true
		}
		prune(op.Input, childNeed, fired)
	case *xtra.Project:
		childNeed := map[string]bool{}
		var keptExprs []xtra.NamedExpr
		var keptCols []xtra.Col
		for i, e := range op.Exprs {
			if need[e.Name] || e.Name == op.P.OrderCol {
				keptExprs = append(keptExprs, e)
				keptCols = append(keptCols, op.P.Cols[i])
				addScalarCols(e.Expr, childNeed)
			}
		}
		if len(keptExprs) > 0 && len(keptExprs) < len(op.Exprs) {
			op.Exprs = keptExprs
			op.P.Cols = keptCols
			*fired = true
		} else {
			for _, e := range op.Exprs {
				addScalarCols(e.Expr, childNeed)
			}
		}
		if ic := op.Input.Props().OrderCol; ic != "" {
			childNeed[ic] = true
		}
		prune(op.Input, childNeed, fired)
	case *xtra.GroupAgg:
		childNeed := map[string]bool{}
		for _, k := range op.Keys {
			addScalarCols(k.Expr, childNeed)
		}
		for _, a := range op.Aggs {
			addScalarCols(a.Expr, childNeed)
		}
		if ic := op.Input.Props().OrderCol; ic != "" {
			childNeed[ic] = true
		}
		prune(op.Input, childNeed, fired)
	case *xtra.Join:
		lNeed, rNeed := map[string]bool{}, map[string]bool{}
		for _, c := range op.L.Props().Cols {
			if need[c.Name] {
				lNeed[c.Name] = true
			}
		}
		for _, c := range op.R.Props().Cols {
			if need[c.Name] {
				rNeed[c.Name] = true
			}
		}
		for _, c := range op.EqCols {
			lNeed[c] = true
			rNeed[c] = true
		}
		if op.Extra != nil {
			addScalarCols(op.Extra, lNeed)
			addScalarCols(op.Extra, rNeed)
		}
		if oc := op.L.Props().OrderCol; oc != "" {
			lNeed[oc] = true
		}
		shrinkProps(&op.P, func(name string) bool { return need[name] || lNeed[name] || rNeed[name] }, fired)
		prune(op.L, lNeed, fired)
		prune(op.R, rNeed, fired)
	case *xtra.AsOfJoin:
		lNeed, rNeed := map[string]bool{}, map[string]bool{}
		for _, c := range op.L.Props().Cols {
			if need[c.Name] {
				lNeed[c.Name] = true
			}
		}
		for _, c := range op.R.Props().Cols {
			if need[c.Name] {
				rNeed[c.Name] = true
			}
		}
		for _, c := range op.EqCols {
			lNeed[c] = true
			rNeed[c] = true
		}
		lNeed[op.TimeCol] = true
		rNeed[op.TimeCol] = true
		if oc := op.L.Props().OrderCol; oc != "" {
			lNeed[oc] = true
		}
		shrinkProps(&op.P, func(name string) bool { return need[name] || lNeed[name] || rNeed[name] }, fired)
		prune(op.L, lNeed, fired)
		prune(op.R, rNeed, fired)
	case *xtra.Union:
		lNeed, rNeed := map[string]bool{}, map[string]bool{}
		for _, c := range op.L.Props().Cols {
			if need[c.Name] || c.Name == op.L.Props().OrderCol {
				lNeed[c.Name] = true
			}
		}
		for _, c := range op.R.Props().Cols {
			if need[c.Name] || c.Name == op.R.Props().OrderCol {
				rNeed[c.Name] = true
			}
		}
		prune(op.L, lNeed, fired)
		prune(op.R, rNeed, fired)
	case *xtra.Sort:
		childNeed := copyNeed(need)
		for _, k := range op.Keys {
			childNeed[k.Col] = true
		}
		prune(op.Input, childNeed, fired)
	case *xtra.Limit:
		prune(op.Input, copyNeed(need), fired)
	}
}

func copyNeed(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func addScalarCols(s xtra.Scalar, need map[string]bool) {
	switch x := s.(type) {
	case *xtra.ColRef:
		need[x.Name] = true
	case *xtra.FnApp:
		for _, a := range x.Args {
			addScalarCols(a, need)
		}
	case *xtra.AggCall:
		if x.Arg != nil {
			addScalarCols(x.Arg, need)
		}
	case *xtra.ListExpr:
		for _, a := range x.Items {
			addScalarCols(a, need)
		}
	}
}

// shrinkProps drops output columns that fail keep, recording a firing.
func shrinkProps(p *xtra.Props, keep func(string) bool, fired *bool) {
	var kept []xtra.Col
	for _, c := range p.Cols {
		if keep(c.Name) || c.Name == p.OrderCol {
			kept = append(kept, c)
		}
	}
	if len(kept) > 0 && len(kept) < len(p.Cols) {
		p.Cols = kept
		*fired = true
	}
}
