package pgdb

import (
	"math"
	"sort"

	"hyperq/internal/pgdb/sqlparse"
)

// aggregateNames are the aggregates the translator writes: q's sum, avg,
// min, max, count (always COUNT(*)), dev and var.
var aggregateNames = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
	"stddev_pop": true, "var_pop": true,
	// Hyper-Q toolbox extensions (paper §5: a "toolbox" of user-defined
	// functions covers kdb+ capabilities PostgreSQL lacks): positional
	// first/last over the input order, and median.
	"first": true, "last": true, "median": true,
}

// selectHasAggregate reports whether any select item contains a
// non-windowed aggregate call.
func selectHasAggregate(sel *sqlparse.SelectStmt) bool {
	for _, item := range sel.Items {
		if item.Expr != nil && exprHasAggregate(item.Expr) {
			return true
		}
	}
	return false
}

func exprHasAggregate(e sqlparse.Expr) bool {
	found := false
	walkExpr(e, func(x sqlparse.Expr) {
		if fc, ok := x.(*sqlparse.FuncCall); ok && fc.Over == nil && aggregateNames[fc.Name] {
			found = true
		}
	})
	return found
}

// walkExpr visits every sub-expression.
func walkExpr(e sqlparse.Expr, fn func(sqlparse.Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *sqlparse.BinaryExpr:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *sqlparse.UnaryExpr:
		walkExpr(x.X, fn)
	case *sqlparse.IsNullExpr:
		walkExpr(x.X, fn)
	case *sqlparse.BetweenExpr:
		walkExpr(x.X, fn)
		walkExpr(x.Lo, fn)
		walkExpr(x.Hi, fn)
	case *sqlparse.CaseExpr:
		walkExpr(x.Operand, fn)
		for _, w := range x.Whens {
			walkExpr(w.Cond, fn)
			walkExpr(w.Then, fn)
		}
		walkExpr(x.Else, fn)
	case *sqlparse.CastExpr:
		walkExpr(x.X, fn)
	case *sqlparse.FuncCall:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
		if x.Over != nil {
			for _, p := range x.Over.PartitionBy {
				walkExpr(p, fn)
			}
			for _, o := range x.Over.OrderBy {
				walkExpr(o.Expr, fn)
			}
		}
	}
}

// execGrouped runs the GROUP BY / aggregate path: group rows by the GROUP BY
// expressions (one global group when absent) and evaluate each select item
// per group with aggregate calls bound to the group's rows.
func (s *Session) execGrouped(sel *sqlparse.SelectStmt, rel *relation) (*Result, error) {
	rel.rowsView() // row-at-a-time grouping
	items, err := expandStars(sel.Items, rel.schema)
	if err != nil {
		return nil, err
	}
	type group struct {
		keyVals []any
		rows    [][]any
	}
	var order []string
	groups := map[string]*group{}
	if len(sel.GroupBy) == 0 {
		g := &group{rows: rel.rows}
		groups[""] = g
		order = append(order, "")
	} else {
		for _, row := range rel.rows {
			keyVals := make([]any, len(sel.GroupBy))
			for i, ge := range sel.GroupBy {
				v, err := s.evalExpr(ge, rel.schema, row)
				if err != nil {
					return nil, err
				}
				keyVals[i] = v
			}
			k := keyString(keyVals)
			g, ok := groups[k]
			if !ok {
				g = &group{keyVals: keyVals}
				groups[k] = g
				order = append(order, k)
			}
			g.rows = append(g.rows, row)
		}
	}
	res := &Result{}
	for _, item := range items {
		res.Cols = append(res.Cols, Column{
			Name: itemName(item, rel.schema),
			Type: s.inferType(item.Expr, rel.schema),
		})
	}
	for _, k := range order {
		g := groups[k]
		if len(sel.GroupBy) == 0 && len(g.rows) == 0 {
			// global aggregate over empty input still yields one row
			g.rows = nil
		}
		out := make([]any, len(items))
		for i, item := range items {
			v, err := s.evalAggExpr(item.Expr, rel.schema, g.rows)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		res.Rows = append(res.Rows, out)
	}
	refineTypes(res)
	return res, nil
}

// evalAggExpr evaluates an expression in group context: aggregate calls
// consume the group's rows; everything else evaluates against the group's
// first row (the PostgreSQL requirement that non-aggregated columns be
// grouping columns makes this well-defined for valid queries).
func (s *Session) evalAggExpr(e sqlparse.Expr, schema []colBinding, rows [][]any) (any, error) {
	switch x := e.(type) {
	case *sqlparse.FuncCall:
		if x.Over == nil && aggregateNames[x.Name] {
			return s.computeAggregate(x, schema, rows)
		}
		// scalar function over aggregate results, e.g. COALESCE(SUM(x), 0)
		// or NULLIF(SUM(w), 0) — the shapes Hyper-Q emits to impose Q's
		// aggregate identities
		if exprHasAggregate(x) {
			lits := make([]sqlparse.Expr, len(x.Args))
			for i, a := range x.Args {
				v, err := s.evalAggExpr(a, schema, rows)
				if err != nil {
					return nil, err
				}
				lits[i] = litFor(v)
			}
			return s.evalScalarFunc(&sqlparse.FuncCall{Name: x.Name, Args: lits}, nil, nil, -1, nil)
		}
	case *sqlparse.CaseExpr:
		if exprHasAggregate(x) {
			for _, w := range x.Whens {
				var hit bool
				if x.Operand != nil {
					ov, err := s.evalAggExpr(x.Operand, schema, rows)
					if err != nil {
						return nil, err
					}
					cv, err := s.evalAggExpr(w.Cond, schema, rows)
					if err != nil {
						return nil, err
					}
					hit = ov != nil && cv != nil && equalVals(ov, cv)
				} else {
					cv, err := s.evalAggExpr(w.Cond, schema, rows)
					if err != nil {
						return nil, err
					}
					b, ok := cv.(bool)
					hit = ok && b
				}
				if hit {
					return s.evalAggExpr(w.Then, schema, rows)
				}
			}
			if x.Else != nil {
				return s.evalAggExpr(x.Else, schema, rows)
			}
			return nil, nil
		}
	case *sqlparse.IsNullExpr:
		if exprHasAggregate(x) {
			v, err := s.evalAggExpr(x.X, schema, rows)
			if err != nil {
				return nil, err
			}
			if x.Not {
				return v != nil, nil
			}
			return v == nil, nil
		}
	case *sqlparse.BinaryExpr:
		if exprHasAggregate(x) {
			l, err := s.evalAggExpr(x.L, schema, rows)
			if err != nil {
				return nil, err
			}
			r, err := s.evalAggExpr(x.R, schema, rows)
			if err != nil {
				return nil, err
			}
			return s.evalBinary(&sqlparse.BinaryExpr{Op: x.Op, L: litFor(l), R: litFor(r)}, nil, nil, -1, nil)
		}
	case *sqlparse.CastExpr:
		if exprHasAggregate(x) {
			v, err := s.evalAggExpr(x.X, schema, rows)
			if err != nil {
				return nil, err
			}
			return castValue(v, normalizeType(x.Type))
		}
	case *sqlparse.UnaryExpr:
		if exprHasAggregate(x) {
			v, err := s.evalAggExpr(x.X, schema, rows)
			if err != nil {
				return nil, err
			}
			return s.evalExpr(&sqlparse.UnaryExpr{Op: x.Op, X: litFor(v)}, nil, nil)
		}
	}
	if len(rows) == 0 {
		// row-independent expressions (literals, arithmetic on literals)
		// still have a value over an empty group — COALESCE(SUM(x), 0)
		// relies on the 0 surviving
		if exprHasColRef(e) {
			return nil, nil
		}
		return s.evalExpr(e, schema, nil)
	}
	return s.evalExpr(e, schema, rows[0])
}

func exprHasColRef(e sqlparse.Expr) bool {
	found := false
	walkExpr(e, func(x sqlparse.Expr) {
		if _, ok := x.(*sqlparse.ColRef); ok {
			found = true
		}
	})
	return found
}

// litFor wraps a computed value as a literal for re-evaluation.
func litFor(v any) sqlparse.Expr {
	switch x := v.(type) {
	case nil:
		return &sqlparse.NullLit{}
	case bool:
		return &sqlparse.BoolLit{V: x}
	case int64:
		return &sqlparse.NumberLit{Text: FormatValue(x, "bigint")}
	case float64:
		return &sqlparse.ValueLit{V: x}
	case string:
		return &sqlparse.StringLit{V: x}
	default:
		return &sqlparse.ValueLit{V: v}
	}
}

// computeAggregate evaluates one aggregate call over the group's rows,
// skipping NULL inputs per SQL.
func (s *Session) computeAggregate(fc *sqlparse.FuncCall, schema []colBinding, rows [][]any) (any, error) {
	if fc.Star { // COUNT(*)
		return int64(len(rows)), nil
	}
	if len(fc.Args) == 0 {
		return nil, errf("42883", "%s requires an argument", fc.Name)
	}
	// first/last are positional over the group's input order and do not
	// skip NULLs, matching q's first/last.
	if fc.Name == "first" || fc.Name == "last" {
		if len(rows) == 0 {
			return nil, nil
		}
		row := rows[0]
		if fc.Name == "last" {
			row = rows[len(rows)-1]
		}
		return s.evalExpr(fc.Args[0], schema, row)
	}
	var vals []any
	for _, row := range rows {
		v, err := s.evalExpr(fc.Args[0], schema, row)
		if err != nil {
			return nil, err
		}
		if v != nil {
			vals = append(vals, v)
		}
	}
	return finalizeAggregate(fc, vals)
}

// finalizeAggregate computes an aggregate from its collected non-null input
// values. Shared by the interpreter and the compiled engine (compileagg.go)
// so numeric results are bit-identical between the two.
func finalizeAggregate(fc *sqlparse.FuncCall, vals []any) (any, error) {
	switch fc.Name {
	case "count":
		return int64(len(vals)), nil
	case "sum":
		if len(vals) == 0 {
			return nil, nil
		}
		allInt := true
		var fsum float64
		var isum int64
		for _, v := range vals {
			if n, ok := v.(int64); ok {
				isum += n
				fsum += float64(n)
				continue
			}
			allInt = false
			f, ok := toFloat(v)
			if !ok {
				return nil, errf("42804", "sum of non-number")
			}
			fsum += f
		}
		if allInt {
			return isum, nil
		}
		return fsum, nil
	case "avg":
		if len(vals) == 0 {
			return nil, nil
		}
		var sum float64
		for _, v := range vals {
			f, ok := toFloat(v)
			if !ok {
				return nil, errf("42804", "avg of non-number")
			}
			sum += f
		}
		return sum / float64(len(vals)), nil
	case "min", "max":
		if len(vals) == 0 {
			return nil, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := compareVals(v, best)
			if (fc.Name == "min" && c < 0) || (fc.Name == "max" && c > 0) {
				best = v
			}
		}
		return best, nil
	case "stddev_pop", "var_pop":
		if len(vals) == 0 {
			return nil, nil
		}
		var sum float64
		fs := make([]float64, len(vals))
		for i, v := range vals {
			f, ok := toFloat(v)
			if !ok {
				return nil, errf("42804", "%s of non-number", fc.Name)
			}
			fs[i] = f
			sum += f
		}
		mean := sum / float64(len(fs))
		var ss float64
		for _, f := range fs {
			ss += (f - mean) * (f - mean)
		}
		v := ss / float64(len(fs))
		if fc.Name == "stddev_pop" {
			return math.Sqrt(v), nil
		}
		return v, nil
	case "median":
		if len(vals) == 0 {
			return nil, nil
		}
		fs := make([]float64, len(vals))
		for i, v := range vals {
			f, ok := toFloat(v)
			if !ok {
				return nil, errf("42804", "median of non-number")
			}
			fs[i] = f
		}
		sort.Float64s(fs)
		m := len(fs) / 2
		if len(fs)%2 == 1 {
			return fs[m], nil
		}
		return (fs[m-1] + fs[m]) / 2, nil
	default:
		return nil, errf("42883", "aggregate %s does not exist", fc.Name)
	}
}

// computeWindows precomputes the values of every window function the select
// items reference, keyed by the FuncCall node. The only window is
// ROW_NUMBER(): the xformer's implicit order column (ROW_NUMBER() OVER ())
// and the translated as-of join's rank (PARTITION BY the left order column,
// ORDER BY the right time DESC) when the fused path declines. Within a
// partition, ORDER BY puts NULLs last ascending and first descending.
func (s *Session) computeWindows(items []sqlparse.SelectItem, rel *relation) (map[*sqlparse.FuncCall][]any, error) {
	var calls []*sqlparse.FuncCall
	for _, item := range items {
		walkExpr(item.Expr, func(e sqlparse.Expr) {
			if fc, ok := e.(*sqlparse.FuncCall); ok && fc.Over != nil {
				calls = append(calls, fc)
			}
		})
	}
	if len(calls) == 0 {
		return nil, nil
	}
	out := make(map[*sqlparse.FuncCall][]any, len(calls))
	n := len(rel.rows)
	for _, fc := range calls {
		if fc.Name != "row_number" {
			return nil, errf("42883", "window function %s does not exist", fc.Name)
		}
		// each row's partition and order keys
		pkeys := make([]string, n)
		okeys := make([][]any, n)
		for i, row := range rel.rows {
			kv := make([]any, len(fc.Over.PartitionBy))
			for k, pe := range fc.Over.PartitionBy {
				v, err := s.evalExpr(pe, rel.schema, row)
				if err != nil {
					return nil, err
				}
				kv[k] = v
			}
			pkeys[i] = keyString(kv)
			okeys[i] = make([]any, len(fc.Over.OrderBy))
			for j, ob := range fc.Over.OrderBy {
				v, err := s.evalExpr(ob.Expr, rel.schema, row)
				if err != nil {
					return nil, err
				}
				okeys[i][j] = v
			}
		}
		// visit rows in order-key order, ties in input order; each row's
		// number counts the rows of its partition visited so far
		perm := seq(0, n)
		sort.SliceStable(perm, func(a, b int) bool {
			for j, ob := range fc.Over.OrderBy {
				av, bv := okeys[perm[a]][j], okeys[perm[b]][j]
				if av == nil && bv == nil {
					continue
				}
				if av == nil {
					return ob.Desc
				}
				if bv == nil {
					return !ob.Desc
				}
				c := compareVals(av, bv)
				if c == 0 {
					continue
				}
				if ob.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		vals := make([]any, n)
		counts := map[string]int64{}
		for _, ri := range perm {
			counts[pkeys[ri]]++
			vals[ri] = counts[pkeys[ri]]
		}
		out[fc] = vals
	}
	return out, nil
}
