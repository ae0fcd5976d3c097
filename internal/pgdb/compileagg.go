package pgdb

import (
	"hyperq/internal/pgdb/sqlparse"
)

// Aggregate-mode compilation: select items of a grouped query are lowered
// once, with each distinct aggregate call bound to a slot of a per-group
// lazy accumulator. Laziness mirrors the interpreter exactly — an aggregate
// inside a CASE arm that is never taken is never computed, so its errors
// never surface; and a slot that is referenced twice is computed once and
// memoized, which is where hash aggregation beats the interpreter's
// re-scan-per-reference strategy.

// aggSlot is one distinct aggregate call of a grouped select, with its
// argument compiled against the input schema.
type aggSlot struct {
	fc  *sqlparse.FuncCall
	arg exprFn // nil when the call has no arguments (or is COUNT(*))
}

// groupAgg lazily computes aggregate values for one group.
type groupAgg struct {
	slots []aggSlot
	rows  [][]any
	vals  []any
	errs  []error
	done  []bool
}

func newGroupAgg(slots []aggSlot, rows [][]any) *groupAgg {
	return &groupAgg{
		slots: slots,
		rows:  rows,
		vals:  make([]any, len(slots)),
		errs:  make([]error, len(slots)),
		done:  make([]bool, len(slots)),
	}
}

func (g *groupAgg) value(ec *evalCtx, i int) (any, error) {
	if !g.done[i] {
		g.done[i] = true
		g.vals[i], g.errs[i] = computeAggSlot(ec, g.slots[i], g.rows)
	}
	return g.vals[i], g.errs[i]
}

// computeAggSlot evaluates one aggregate over the group's rows. The hot
// aggregates fold incrementally in a single pass; the long tail collects
// values and shares the interpreter's finalizer so numeric results are
// bit-identical between engines.
func computeAggSlot(ec *evalCtx, slot aggSlot, rows [][]any) (any, error) {
	fc := slot.fc
	if fc.Star { // COUNT(*)
		return int64(len(rows)), nil
	}
	if slot.arg == nil {
		return nil, errf("42883", "%s requires an argument", fc.Name)
	}
	// first/last are positional over the group's input order and do not
	// skip NULLs, matching q's first/last — the argument is evaluated only
	// on the chosen row, like the interpreter.
	if fc.Name == "first" || fc.Name == "last" {
		if len(rows) == 0 {
			return nil, nil
		}
		row := rows[0]
		if fc.Name == "last" {
			row = rows[len(rows)-1]
		}
		return slot.arg(ec, row)
	}
	// each yields the non-null argument values in row order — the same
	// stream computeAggregate collects.
	each := func(f func(v any) error) error {
		for _, row := range rows {
			v, err := slot.arg(ec, row)
			if err != nil {
				return err
			}
			if v == nil {
				continue
			}
			if err := f(v); err != nil {
				return err
			}
		}
		return nil
	}
	switch fc.Name {
	case "count":
		var n int64
		if err := each(func(any) error { n++; return nil }); err != nil {
			return nil, err
		}
		return n, nil
	case "sum":
		// identical accumulation order to the interpreter: isum and fsum
		// advance together so the all-int and mixed cases agree exactly
		var isum int64
		var fsum float64
		allInt := true
		n := 0
		if err := each(func(v any) error {
			n++
			if x, ok := v.(int64); ok {
				isum += x
				fsum += float64(x)
				return nil
			}
			allInt = false
			f, ok := toFloat(v)
			if !ok {
				return errf("42804", "sum of non-number")
			}
			fsum += f
			return nil
		}); err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, nil
		}
		if allInt {
			return isum, nil
		}
		return fsum, nil
	case "avg":
		var sum float64
		n := 0
		if err := each(func(v any) error {
			f, ok := toFloat(v)
			if !ok {
				return errf("42804", "avg of non-number")
			}
			sum += f
			n++
			return nil
		}); err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, nil
		}
		return sum / float64(n), nil
	case "min", "max":
		isMin := fc.Name == "min"
		var best any
		if err := each(func(v any) error {
			if best == nil {
				best = v
				return nil
			}
			c := compareVals(v, best)
			if (isMin && c < 0) || (!isMin && c > 0) {
				best = v
			}
			return nil
		}); err != nil {
			return nil, err
		}
		return best, nil
	default:
		// stddev_pop, var_pop, median: collect then share the
		// interpreter's finalizer
		var vals []any
		if err := each(func(v any) error { vals = append(vals, v); return nil }); err != nil {
			return nil, err
		}
		return finalizeAggregate(fc, vals)
	}
}

// collectAggSlots walks the select items in evaluation order and assigns
// each distinct aggregate call a slot, compiling its argument once.
func collectAggSlots(items []sqlparse.SelectItem, schema []colBinding) ([]aggSlot, map[*sqlparse.FuncCall]int) {
	var slots []aggSlot
	index := map[*sqlparse.FuncCall]int{}
	add := func(e sqlparse.Expr) {
		walkExpr(e, func(x sqlparse.Expr) {
			fc, ok := x.(*sqlparse.FuncCall)
			if !ok || fc.Over != nil || !aggregateNames[fc.Name] {
				return
			}
			if _, dup := index[fc]; dup {
				return
			}
			slot := aggSlot{fc: fc}
			if len(fc.Args) > 0 {
				slot.arg = compileExpr(fc.Args[0], schema).fn
			}
			index[fc] = len(slots)
			slots = append(slots, slot)
		})
	}
	for _, item := range items {
		add(item.Expr)
	}
	return slots, index
}

// compileAggExpr lowers an expression in group context: aggregate calls read
// their lazily computed slot, scalar structure above them applies to those
// values, and aggregate-free subtrees evaluate against the group's
// representative row — over an empty group, column-referencing subtrees
// yield NULL while row-independent ones still evaluate, exactly as the
// interpreter's evalAggExpr. The representative row is passed as row (nil
// for an empty group).
func compileAggExpr(e sqlparse.Expr, schema []colBinding, index map[*sqlparse.FuncCall]int) exprFn {
	if fc, ok := e.(*sqlparse.FuncCall); ok && fc.Over == nil && aggregateNames[fc.Name] {
		slot := index[fc]
		return func(ec *evalCtx, row []any) (any, error) {
			return ec.agg.value(ec, slot)
		}
	}
	if !exprHasAggregate(e) {
		return repRowFn(e, schema)
	}
	switch x := e.(type) {
	case *sqlparse.FuncCall:
		// scalar function over aggregate results, e.g. COALESCE(SUM(x), 0)
		args := make([]exprFn, len(x.Args))
		for i, a := range x.Args {
			args[i] = compileAggExpr(a, schema, index)
		}
		name := x.Name
		return func(ec *evalCtx, row []any) (any, error) {
			vals := make([]any, len(args))
			for i, fn := range args {
				v, err := fn(ec, row)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			return applyScalarFunc(name, vals)
		}
	case *sqlparse.CaseExpr:
		var operandFn exprFn
		if x.Operand != nil {
			operandFn = compileAggExpr(x.Operand, schema, index)
		}
		conds := make([]exprFn, len(x.Whens))
		thens := make([]exprFn, len(x.Whens))
		for i, w := range x.Whens {
			conds[i] = compileAggExpr(w.Cond, schema, index)
			thens[i] = compileAggExpr(w.Then, schema, index)
		}
		var elseFn exprFn
		if x.Else != nil {
			elseFn = compileAggExpr(x.Else, schema, index)
		}
		return func(ec *evalCtx, row []any) (any, error) {
			for i := range conds {
				var hit bool
				if operandFn != nil {
					ov, err := operandFn(ec, row)
					if err != nil {
						return nil, err
					}
					cv, err := conds[i](ec, row)
					if err != nil {
						return nil, err
					}
					hit = ov != nil && cv != nil && equalVals(ov, cv)
				} else {
					cv, err := conds[i](ec, row)
					if err != nil {
						return nil, err
					}
					b, ok := cv.(bool)
					hit = ok && b
				}
				if hit {
					return thens[i](ec, row)
				}
			}
			if elseFn != nil {
				return elseFn(ec, row)
			}
			return nil, nil
		}
	case *sqlparse.IsNullExpr:
		inner := compileAggExpr(x.X, schema, index)
		not := x.Not
		return func(ec *evalCtx, row []any) (any, error) {
			v, err := inner(ec, row)
			if err != nil {
				return nil, err
			}
			if not {
				return v != nil, nil
			}
			return v == nil, nil
		}
	case *sqlparse.BinaryExpr:
		cl := compileAggExpr(x.L, schema, index)
		cr := compileAggExpr(x.R, schema, index)
		op := x.Op
		return func(ec *evalCtx, row []any) (any, error) {
			// the interpreter evaluates both sides before applying AND/OR
			// in group context (no short circuit); preserved here
			l, err := cl(ec, row)
			if err != nil {
				return nil, err
			}
			r, err := cr(ec, row)
			if err != nil {
				return nil, err
			}
			if op == "AND" || op == "OR" {
				return applyAndOr(op, l, r), nil
			}
			return applyBinary(op, l, r)
		}
	case *sqlparse.CastExpr:
		inner := compileAggExpr(x.X, schema, index)
		typ := normalizeType(x.Type)
		return func(ec *evalCtx, row []any) (any, error) {
			v, err := inner(ec, row)
			if err != nil {
				return nil, err
			}
			return castValue(v, typ)
		}
	case *sqlparse.UnaryExpr:
		inner := compileAggExpr(x.X, schema, index)
		op := x.Op
		return func(ec *evalCtx, row []any) (any, error) {
			v, err := inner(ec, row)
			if err != nil {
				return nil, err
			}
			switch op {
			case "NOT":
				if v == nil {
					return nil, nil
				}
				b, ok := v.(bool)
				if !ok {
					return nil, errf("42804", "argument of NOT must be boolean")
				}
				return !b, nil
			case "-":
				switch n := v.(type) {
				case nil:
					return nil, nil
				case int64:
					return -n, nil
				case float64:
					return -n, nil
				default:
					return nil, errf("42804", "cannot negate %T", v)
				}
			}
			return nil, errf("0A000", "unsupported unary %s", op)
		}
	default:
		// shapes evalAggExpr does not descend into (IN, BETWEEN, scalar
		// subqueries, ...) evaluate against the representative row
		return repRowFn(e, schema)
	}
}

// repRowFn evaluates an aggregate-free expression against the group's
// representative row, with the interpreter's empty-group rule: column
// references yield NULL, row-independent expressions still have a value
// (COALESCE(SUM(x), 0) relies on the 0 surviving an empty input).
func repRowFn(e sqlparse.Expr, schema []colBinding) exprFn {
	inner := compileExpr(e, schema)
	hasCol := exprHasColRef(e)
	return func(ec *evalCtx, row []any) (any, error) {
		if row == nil && hasCol {
			return nil, nil
		}
		return inner.fn(ec, row)
	}
}

// execGroupedCompiled is the compiled GROUP BY / aggregate path: group rows
// by compiled key extractors in one hash pass, then evaluate the compiled
// items per group against the lazy aggregate slots.
func (s *Session) execGroupedCompiled(sel *sqlparse.SelectStmt, rel *relation) (*Result, error) {
	rel.rowsView() // row-at-a-time grouping
	items, err := expandStars(sel.Items, rel.schema)
	if err != nil {
		return nil, err
	}
	ec := &evalCtx{s: s, rowIdx: -1}
	type group struct {
		rows [][]any
	}
	var order []string
	groups := map[string]*group{}
	if len(sel.GroupBy) == 0 {
		rows := rel.rows
		if len(rows) == 0 {
			rows = nil // global aggregate over empty input still yields one row
		}
		groups[""] = &group{rows: rows}
		order = append(order, "")
	} else {
		keyFns := make([]exprFn, len(sel.GroupBy))
		for i, ge := range sel.GroupBy {
			keyFns[i] = compileExpr(ge, rel.schema).fn
		}
		keyVals := make([]any, len(keyFns))
		for _, row := range rel.rows {
			if err := s.tick(); err != nil {
				return nil, err
			}
			for i, fn := range keyFns {
				v, err := fn(ec, row)
				if err != nil {
					return nil, err
				}
				keyVals[i] = v
			}
			k := keyString(keyVals)
			g, ok := groups[k]
			if !ok {
				g = &group{}
				groups[k] = g
				order = append(order, k)
			}
			g.rows = append(g.rows, row)
		}
	}
	slots, index := collectAggSlots(items, rel.schema)
	itemFns := make([]exprFn, len(items))
	for i := range items {
		itemFns[i] = compileAggExpr(items[i].Expr, rel.schema, index)
	}
	res := &Result{}
	for _, item := range items {
		res.Cols = append(res.Cols, Column{
			Name: itemName(item, rel.schema),
			Type: s.inferType(item.Expr, rel.schema),
		})
	}
	res.Rows = make([][]any, 0, len(order))
	for _, k := range order {
		g := groups[k]
		gec := &evalCtx{s: s, rowIdx: -1, agg: newGroupAgg(slots, g.rows)}
		var rep []any
		if len(g.rows) > 0 {
			rep = g.rows[0]
		}
		out := make([]any, len(items))
		for i, fn := range itemFns {
			v, err := fn(gec, rep)
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
