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
	var order []string
	groups := map[string][][]any{}
	if len(sel.GroupBy) == 0 {
		groups[""] = rel.rows
		order = append(order, "")
	} else {
		keyVals := make([]any, len(sel.GroupBy))
		for _, row := range rel.rows {
			if err := s.tick(); err != nil {
				return nil, err
			}
			for i, ge := range sel.GroupBy {
				v, err := evalExpr(ge, rel.schema, row)
				if err != nil {
					return nil, err
				}
				keyVals[i] = v
			}
			k := keyString(keyVals)
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], row)
		}
	}
	res := s.groupedResult(items, rel.schema, len(order))
	for _, k := range order {
		rows := groups[k]
		var rep []any // an empty global group has no representative row
		if len(rows) > 0 {
			rep = rows[0]
		}
		err := res.appendGroup(items, rel.schema, rep, func(fc *sqlparse.FuncCall) (any, error) {
			return computeAggregate(fc, rel.schema, rows)
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// groupedResult is the empty result of a grouped select with room for n
// groups: the items' names and inferred types.
func (s *Session) groupedResult(items []sqlparse.SelectItem, schema []colBinding, n int) *Result {
	res := &Result{Rows: make([][]any, 0, n)}
	for _, item := range items {
		res.Cols = append(res.Cols, Column{
			Name: itemName(item, schema),
			Type: s.inferType(item.Expr, schema),
		})
	}
	return res
}

// appendGroup evaluates the items over one group and appends its row.
func (res *Result) appendGroup(items []sqlparse.SelectItem, schema []colBinding, rep []any, agg aggValue) error {
	out := make([]any, len(items))
	for i, item := range items {
		v, err := evalAggExpr(item.Expr, schema, rep, agg)
		if err != nil {
			return err
		}
		out[i] = v
	}
	res.Rows = append(res.Rows, out)
	return nil
}

// aggValue is the value of one aggregate call over the group being
// evaluated: computed from the group's rows (execGrouped) or looked up among
// the finished slots of the vector path (execGroupedVec).
type aggValue func(fc *sqlparse.FuncCall) (any, error)

// evalAggExpr evaluates an expression in group context. An aggregate call
// takes its value from agg, which is asked only for the calls evaluation
// reaches: one under a CASE arm not taken never runs, so its error never
// surfaces. The scalar structure above an aggregate (a function, CASE, IS
// NULL, an operator, CAST) applies to the values below it, both operands of
// AND/OR evaluated. Any other subtree evaluates against rep, the group's
// first row: PostgreSQL's requirement that non-aggregated columns be
// grouping columns makes that well-defined for valid queries. rep is nil
// for an empty group, where a subtree that references a column is NULL and
// a row-independent one still has its value — COALESCE(SUM(x), 0) relies on
// the 0 surviving.
func evalAggExpr(e sqlparse.Expr, schema []colBinding, rep []any, agg aggValue) (any, error) {
	if exprHasAggregate(e) {
		sub := func(x sqlparse.Expr) (any, error) { return evalAggExpr(x, schema, rep, agg) }
		switch x := e.(type) {
		case *sqlparse.FuncCall:
			if x.Over == nil && aggregateNames[x.Name] {
				return agg(x)
			}
			// scalar function over aggregate results, e.g. COALESCE(SUM(x), 0)
			// or NULLIF(SUM(w), 0) — the shapes Hyper-Q emits to impose Q's
			// aggregate identities
			args := make([]any, len(x.Args))
			for i, a := range x.Args {
				v, err := sub(a)
				if err != nil {
					return nil, err
				}
				args[i] = v
			}
			return applyScalarFunc(x.Name, args)
		case *sqlparse.CaseExpr:
			for _, w := range x.Whens {
				cv, err := sub(w.Cond)
				if err != nil {
					return nil, err
				}
				if b, ok := cv.(bool); ok && b {
					return sub(w.Then)
				}
			}
			if x.Else != nil {
				return sub(x.Else)
			}
			return nil, nil
		case *sqlparse.IsNullExpr:
			v, err := sub(x.X)
			if err != nil {
				return nil, err
			}
			return (v == nil) != x.Not, nil
		case *sqlparse.BinaryExpr:
			l, err := sub(x.L)
			if err != nil {
				return nil, err
			}
			r, err := sub(x.R)
			if err != nil {
				return nil, err
			}
			return applyOp(x.Op, l, r)
		case *sqlparse.CastExpr:
			v, err := sub(x.X)
			if err != nil {
				return nil, err
			}
			return castValue(v, normalizeType(x.Type))
		case *sqlparse.UnaryExpr:
			v, err := sub(x.X)
			if err != nil {
				return nil, err
			}
			return applyUnary(x.Op, v)
		}
	}
	if rep == nil && exprHasColRef(e) {
		return nil, nil
	}
	return evalExpr(e, schema, rep)
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

// computeAggregate evaluates one aggregate call over the group's rows,
// skipping NULL inputs per SQL.
func computeAggregate(fc *sqlparse.FuncCall, schema []colBinding, rows [][]any) (any, error) {
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
		return evalExpr(fc.Args[0], schema, row)
	}
	var vals []any
	for _, row := range rows {
		v, err := evalExpr(fc.Args[0], schema, row)
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
// values.
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
	case "stddev_pop", "var_pop", "median":
		fs := make([]float64, len(vals))
		for i, v := range vals {
			f, ok := toFloat(v)
			if !ok {
				return nil, errf("42804", "%s of non-number", fc.Name)
			}
			fs[i] = f
		}
		return finishFloats(fc.Name, fs), nil
	default:
		return nil, errf("42883", "aggregate %s does not exist", fc.Name)
	}
}

// finishFloats computes stddev_pop, var_pop or median from a group's
// non-null input values in row order; median sorts fs. The vector path's
// collecting slots finish through it too, so both engines agree bit for bit.
func finishFloats(name string, fs []float64) any {
	if len(fs) == 0 {
		return nil
	}
	if name == "median" {
		sort.Float64s(fs)
		m := len(fs) / 2
		if len(fs)%2 == 1 {
			return fs[m]
		}
		return (fs[m-1] + fs[m]) / 2
	}
	var sum float64
	for _, f := range fs {
		sum += f
	}
	mean := sum / float64(len(fs))
	var ss float64
	for _, f := range fs {
		ss += (f - mean) * (f - mean)
	}
	v := ss / float64(len(fs))
	if name == "stddev_pop" {
		return math.Sqrt(v)
	}
	return v
}

// computeWindows computes the values of each select item that is a window
// call, by item index (nil for the other items). A window is written only
// as a whole select item, and the only one is ROW_NUMBER(): the xformer's
// implicit order column (ROW_NUMBER() OVER ()) and the translated as-of
// join's rank (PARTITION BY the left order column, ORDER BY the right time
// DESC) when the fused path declines. Within a partition, ORDER BY puts
// NULLs last ascending and first descending.
func computeWindows(items []sqlparse.SelectItem, rel *relation) ([][]any, error) {
	out := make([][]any, len(items))
	n := len(rel.rows)
	for i, item := range items {
		fc, ok := item.Expr.(*sqlparse.FuncCall)
		if !ok || fc.Over == nil {
			continue
		}
		if fc.Name != "row_number" {
			return nil, errf("42883", "window function %s does not exist", fc.Name)
		}
		// each row's partition and order keys
		pkeys := make([]string, n)
		okeys := make([][]any, n)
		for r, row := range rel.rows {
			kv := make([]any, len(fc.Over.PartitionBy))
			for k, pe := range fc.Over.PartitionBy {
				v, err := evalExpr(pe, rel.schema, row)
				if err != nil {
					return nil, err
				}
				kv[k] = v
			}
			pkeys[r] = keyString(kv)
			okeys[r] = make([]any, len(fc.Over.OrderBy))
			for j, ob := range fc.Over.OrderBy {
				v, err := evalExpr(ob.Expr, rel.schema, row)
				if err != nil {
					return nil, err
				}
				okeys[r][j] = v
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
		out[i] = vals
	}
	return out, nil
}
