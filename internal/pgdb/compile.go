package pgdb

import (
	"strconv"
	"strings"

	"hyperq/internal/pgdb/sqlparse"
)

// This file is the expression compiler of the compiled execution engine: it
// lowers a sqlparse.Expr bound to a schema into a chain of Go closures once
// per query, so the per-row work is only the data-dependent part. Literal
// decoding, column resolution, operator dispatch and null-safe comparison
// selection all happen at compile time. The compiled engine must be
// semantically indistinguishable from the retained interpreter (eval.go) —
// both share applyBinary/applyAndOr/applyScalarFunc for value-level
// semantics, and the qdiff corpus is replayed through both (see
// internal/sidebyside).

// evalCtx carries the per-statement state a compiled expression may need at
// run time: the session (for subqueries and interpreter fallbacks), the
// current row index plus window values (projection only), and the lazy
// aggregate accumulator of the group being evaluated (grouped execution
// only). Pure closures never touch it, so the planner may call them with a
// nil context.
type evalCtx struct {
	s       *Session
	rowIdx  int
	winVals map[*sqlparse.FuncCall][]any
	agg     *groupAgg
}

// exprFn is a compiled expression, evaluated against one row.
type exprFn func(ec *evalCtx, row []any) (any, error)

// lowerExpr lowers e once for the session's engine: compiled to a closure,
// or for the interpreter a closure that walks the AST on every row — the
// reference the compiled engine is checked against.
func (s *Session) lowerExpr(e sqlparse.Expr, schema []colBinding) exprFn {
	if s.interpretedMode() {
		return func(ec *evalCtx, row []any) (any, error) {
			return s.evalExprWin(e, schema, row, ec.rowIdx, ec.winVals)
		}
	}
	return compileExpr(e, schema).fn
}

// compiled pairs an exprFn with the static properties the planner uses.
type compiled struct {
	fn exprFn
	// pure: the closure touches neither the evalCtx nor any session state,
	// so the planner may evaluate it with a nil context (vecConstOf).
	pure bool
	// konst: the value is row-independent, so a successful evaluation may
	// be folded to a constant at compile time.
	konst bool
}

func constExpr(v any) compiled {
	return compiled{fn: func(*evalCtx, []any) (any, error) { return v, nil }, pure: true, konst: true}
}

// errExpr lowers to a closure that fails at run time. Errors stay lazy so a
// query over zero rows behaves exactly like the interpreter, which only
// raises evaluation errors when a row loop actually runs.
func errExpr(err error) compiled {
	return compiled{fn: func(*evalCtx, []any) (any, error) { return nil, err }, pure: true}
}

// fold evaluates a row-independent pure expression once at compile time and
// replaces it with its constant. Evaluation errors keep the lazy closure:
// SELECT 1/0 over an empty table must not raise.
func fold(c compiled) compiled {
	if !c.konst || !c.pure {
		return c
	}
	v, err := c.fn(nil, nil)
	if err != nil {
		return c
	}
	return constExpr(v)
}

// compileExpr lowers an expression bound to a schema into a closure chain.
// Compilation never fails: unresolvable columns and unsupported shapes lower
// to lazy errors (or interpreter fallbacks), surfacing exactly the
// interpreter's behavior at exactly the interpreter's time.
func compileExpr(e sqlparse.Expr, schema []colBinding) compiled {
	switch x := e.(type) {
	case *sqlparse.NumberLit:
		// decoded once here — never again inside a row loop
		if strings.ContainsAny(x.Text, ".eE") {
			f, err := strconv.ParseFloat(x.Text, 64)
			if err != nil {
				return errExpr(errf("22P02", "bad number %q", x.Text))
			}
			return constExpr(f)
		}
		n, err := strconv.ParseInt(x.Text, 10, 64)
		if err != nil {
			return errExpr(errf("22P02", "bad number %q", x.Text))
		}
		return constExpr(n)
	case *sqlparse.StringLit:
		return constExpr(x.V)
	case *sqlparse.BoolLit:
		return constExpr(x.V)
	case *sqlparse.NullLit:
		return constExpr(nil)
	case *sqlparse.ValueLit:
		return constExpr(x.V)
	case *sqlparse.ParamRef:
		return errExpr(errf("0A000", "parameters are not supported in direct execution"))
	case *sqlparse.ColRef:
		i, err := findCol(schema, x)
		if err != nil {
			return errExpr(err)
		}
		return compiled{fn: func(_ *evalCtx, row []any) (any, error) { return row[i], nil }, pure: true}
	case *sqlparse.UnaryExpr:
		cx := compileExpr(x.X, schema)
		switch x.Op {
		case "NOT":
			return fold(compiled{fn: func(ec *evalCtx, row []any) (any, error) {
				v, err := cx.fn(ec, row)
				if err != nil || v == nil {
					return nil, err
				}
				b, ok := v.(bool)
				if !ok {
					return nil, errf("42804", "argument of NOT must be boolean")
				}
				return !b, nil
			}, pure: cx.pure, konst: cx.konst})
		case "-":
			return fold(compiled{fn: func(ec *evalCtx, row []any) (any, error) {
				v, err := cx.fn(ec, row)
				if err != nil {
					return nil, err
				}
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
			}, pure: cx.pure, konst: cx.konst})
		}
		return errExpr(errf("0A000", "unsupported unary %s", x.Op))
	case *sqlparse.BinaryExpr:
		return compileBinary(x, schema)
	case *sqlparse.IsNullExpr:
		cx := compileExpr(x.X, schema)
		not := x.Not
		return fold(compiled{fn: func(ec *evalCtx, row []any) (any, error) {
			v, err := cx.fn(ec, row)
			if err != nil {
				return nil, err
			}
			isNull := v == nil
			if not {
				return !isNull, nil
			}
			return isNull, nil
		}, pure: cx.pure, konst: cx.konst})
	case *sqlparse.BetweenExpr:
		cx := compileExpr(x.X, schema)
		clo := compileExpr(x.Lo, schema)
		chi := compileExpr(x.Hi, schema)
		return fold(compiled{fn: func(ec *evalCtx, row []any) (any, error) {
			v, err := cx.fn(ec, row)
			if err != nil {
				return nil, err
			}
			lo, err := clo.fn(ec, row)
			if err != nil {
				return nil, err
			}
			hi, err := chi.fn(ec, row)
			if err != nil {
				return nil, err
			}
			if v == nil || lo == nil || hi == nil {
				return nil, nil
			}
			return compareVals(v, lo) >= 0 && compareVals(v, hi) <= 0, nil
		}, pure: cx.pure && clo.pure && chi.pure, konst: cx.konst && clo.konst && chi.konst})
	case *sqlparse.CaseExpr:
		return compileCase(x, schema)
	case *sqlparse.CastExpr:
		cx := compileExpr(x.X, schema)
		typ := normalizeType(x.Type)
		return fold(compiled{fn: func(ec *evalCtx, row []any) (any, error) {
			v, err := cx.fn(ec, row)
			if err != nil {
				return nil, err
			}
			return castValue(v, typ)
		}, pure: cx.pure, konst: cx.konst})
	case *sqlparse.FuncCall:
		if x.Over != nil {
			fc := x
			// window values are precomputed per statement (computeWindows)
			// and looked up by node identity and row index
			return compiled{fn: func(ec *evalCtx, row []any) (any, error) {
				if ec == nil || ec.winVals == nil || ec.rowIdx < 0 {
					return nil, errf("42P20", "window function %s outside projection", fc.Name)
				}
				vals, ok := ec.winVals[fc]
				if !ok {
					return nil, errf("XX000", "window values missing for %s", fc.Name)
				}
				return vals[ec.rowIdx], nil
			}}
		}
		args := make([]exprFn, len(x.Args))
		pure, konst := true, true
		for i, a := range x.Args {
			c := compileExpr(a, schema)
			args[i] = c.fn
			pure, konst = pure && c.pure, konst && c.konst
		}
		name := x.Name
		return fold(compiled{fn: func(ec *evalCtx, row []any) (any, error) {
			vals := make([]any, len(args))
			for i, fn := range args {
				v, err := fn(ec, row)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			return applyScalarFunc(name, vals)
		}, pure: pure, konst: konst})
	case *sqlparse.SubqueryExpr:
		q := x.Query
		// executed per evaluation, like the interpreter: no memoization
		return compiled{fn: func(ec *evalCtx, row []any) (any, error) {
			res, err := ec.s.execSelect(q, formRows)
			if err != nil {
				return nil, err
			}
			if len(res.Rows) == 0 {
				return nil, nil
			}
			if len(res.Rows) > 1 {
				return nil, errf("21000", "scalar subquery returned more than one row")
			}
			return res.Rows[0][0], nil
		}}
	default:
		// unknown node: defer to the interpreter so both engines share the
		// same error surface
		expr := e
		sch := schema
		return compiled{fn: func(ec *evalCtx, row []any) (any, error) {
			return ec.s.evalExprWin(expr, sch, row, ec.rowIdx, ec.winVals)
		}}
	}
}

func compileBinary(x *sqlparse.BinaryExpr, schema []colBinding) compiled {
	cl := compileExpr(x.L, schema)
	cr := compileExpr(x.R, schema)
	pure, konst := cl.pure && cr.pure, cl.konst && cr.konst
	op := x.Op
	if op == "AND" || op == "OR" {
		return fold(compiled{fn: func(ec *evalCtx, row []any) (any, error) {
			l, err := cl.fn(ec, row)
			if err != nil {
				return nil, err
			}
			if v, done := andOrShortCircuit(op, l); done {
				return v, nil
			}
			r, err := cr.fn(ec, row)
			if err != nil {
				return nil, err
			}
			return applyAndOr(op, l, r), nil
		}, pure: pure, konst: konst})
	}
	// comparisons specialize the operator dispatch away from the row loop
	switch op {
	case "=", "<>", "<", ">", "<=", ">=":
		var test func(int) bool
		switch op {
		case "=":
			test = func(c int) bool { return c == 0 }
		case "<>":
			test = func(c int) bool { return c != 0 }
		case "<":
			test = func(c int) bool { return c < 0 }
		case ">":
			test = func(c int) bool { return c > 0 }
		case "<=":
			test = func(c int) bool { return c <= 0 }
		default:
			test = func(c int) bool { return c >= 0 }
		}
		return fold(compiled{fn: func(ec *evalCtx, row []any) (any, error) {
			l, err := cl.fn(ec, row)
			if err != nil {
				return nil, err
			}
			r, err := cr.fn(ec, row)
			if err != nil {
				return nil, err
			}
			if l == nil || r == nil {
				return nil, nil
			}
			return test(compareVals(l, r)), nil
		}, pure: pure, konst: konst})
	}
	return fold(compiled{fn: func(ec *evalCtx, row []any) (any, error) {
		l, err := cl.fn(ec, row)
		if err != nil {
			return nil, err
		}
		r, err := cr.fn(ec, row)
		if err != nil {
			return nil, err
		}
		return applyBinary(op, l, r)
	}, pure: pure, konst: konst})
}

func compileCase(x *sqlparse.CaseExpr, schema []colBinding) compiled {
	pure, konst := true, true
	var operand *compiled
	if x.Operand != nil {
		c := compileExpr(x.Operand, schema)
		operand = &c
		pure, konst = pure && c.pure, konst && c.konst
	}
	conds := make([]exprFn, len(x.Whens))
	thens := make([]exprFn, len(x.Whens))
	for i, w := range x.Whens {
		cc := compileExpr(w.Cond, schema)
		ct := compileExpr(w.Then, schema)
		conds[i], thens[i] = cc.fn, ct.fn
		pure = pure && cc.pure && ct.pure
		konst = konst && cc.konst && ct.konst
	}
	var elseFn exprFn
	if x.Else != nil {
		c := compileExpr(x.Else, schema)
		elseFn = c.fn
		pure, konst = pure && c.pure, konst && c.konst
	}
	return fold(compiled{fn: func(ec *evalCtx, row []any) (any, error) {
		for i := range conds {
			var hit bool
			if operand != nil {
				// the interpreter evaluates the operand once per arm;
				// preserved so error ordering is identical
				ov, err := operand.fn(ec, row)
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
	}, pure: pure, konst: konst})
}
