package pgdb

import (
	"math"
	"strconv"
	"strings"

	"hyperq/internal/pgdb/sqlparse"
)

// evalExpr is the reference walker: it evaluates a scalar expression over
// one row with SQL three-valued logic: any comparison with NULL yields NULL
// (Go nil), except IS NULL and IS [NOT] DISTINCT FROM, which are null-safe —
// the construct Hyper-Q's Xformer emits to impose Q's two-valued semantics
// (paper §3.3). A window call reaches it only nested in an expression, where
// the function lookup refuses it: project computes a window select item
// whole.
func evalExpr(e sqlparse.Expr, schema []colBinding, row []any) (any, error) {
	switch x := e.(type) {
	case *sqlparse.NumberLit:
		if strings.ContainsAny(x.Text, ".eE") {
			f, err := strconv.ParseFloat(x.Text, 64)
			if err != nil {
				return nil, errf("22P02", "bad number %q", x.Text)
			}
			return f, nil
		}
		n, err := strconv.ParseInt(x.Text, 10, 64)
		if err != nil {
			return nil, errf("22P02", "bad number %q", x.Text)
		}
		return n, nil
	case *sqlparse.StringLit:
		return x.V, nil
	case *sqlparse.BoolLit:
		return x.V, nil
	case *sqlparse.NullLit:
		return nil, nil
	case *sqlparse.ParamRef:
		return nil, errf("0A000", "parameters are not supported in direct execution")
	case *sqlparse.ColRef:
		i, err := findCol(schema, x)
		if err != nil {
			return nil, err
		}
		return row[i], nil
	case *sqlparse.UnaryExpr:
		v, err := evalExpr(x.X, schema, row)
		if err != nil {
			return nil, err
		}
		return applyUnary(x.Op, v)
	case *sqlparse.BinaryExpr:
		// AND/OR have their own 3VL truth tables with short circuits
		l, err := evalExpr(x.L, schema, row)
		if err != nil {
			return nil, err
		}
		if x.Op == "AND" || x.Op == "OR" {
			if v, done := andOrShortCircuit(x.Op, l); done {
				return v, nil
			}
		}
		r, err := evalExpr(x.R, schema, row)
		if err != nil {
			return nil, err
		}
		return applyOp(x.Op, l, r)
	case *sqlparse.IsNullExpr:
		v, err := evalExpr(x.X, schema, row)
		if err != nil {
			return nil, err
		}
		return (v == nil) != x.Not, nil
	case *sqlparse.BetweenExpr:
		v, err := evalExpr(x.X, schema, row)
		if err != nil {
			return nil, err
		}
		lo, err := evalExpr(x.Lo, schema, row)
		if err != nil {
			return nil, err
		}
		hi, err := evalExpr(x.Hi, schema, row)
		if err != nil {
			return nil, err
		}
		if v == nil || lo == nil || hi == nil {
			return nil, nil
		}
		return compareVals(v, lo) >= 0 && compareVals(v, hi) <= 0, nil
	case *sqlparse.CaseExpr:
		for _, w := range x.Whens {
			cv, err := evalExpr(w.Cond, schema, row)
			if err != nil {
				return nil, err
			}
			if b, ok := cv.(bool); ok && b {
				return evalExpr(w.Then, schema, row)
			}
		}
		if x.Else != nil {
			return evalExpr(x.Else, schema, row)
		}
		return nil, nil
	case *sqlparse.CastExpr:
		v, err := evalExpr(x.X, schema, row)
		if err != nil {
			return nil, err
		}
		return castValue(v, normalizeType(x.Type))
	case *sqlparse.FuncCall:
		args := make([]any, len(x.Args))
		for i, a := range x.Args {
			v, err := evalExpr(a, schema, row)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return applyScalarFunc(x.Name, args)
	default:
		return nil, errf("0A000", "unsupported expression %T", e)
	}
}

// applyUnary applies NOT or unary minus to an evaluated operand.
func applyUnary(op string, v any) (any, error) {
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

// applyOp applies a binary operator, AND and OR included, to two evaluated
// operands.
func applyOp(op string, l, r any) (any, error) {
	if op == "AND" || op == "OR" {
		return applyAndOr(op, l, r), nil
	}
	return applyBinary(op, l, r)
}

// andOrShortCircuit reports whether the left operand alone decides an
// AND/OR: FALSE AND x is FALSE, TRUE OR x is TRUE, regardless of x.
func andOrShortCircuit(op string, l any) (any, bool) {
	lb, lok := l.(bool)
	if op == "AND" && lok && !lb {
		return false, true
	}
	if op == "OR" && lok && lb {
		return true, true
	}
	return nil, false
}

// applyAndOr applies the full 3VL AND/OR truth table to two already
// evaluated operands (non-bool operands behave as UNKNOWN).
func applyAndOr(op string, l, r any) any {
	if v, done := andOrShortCircuit(op, l); done {
		return v
	}
	lb, lok := l.(bool)
	rb, rok := r.(bool)
	if op == "AND" {
		if rok && !rb {
			return false
		}
		if !lok || !rok {
			return nil
		}
		return lb && rb
	}
	if rok && rb {
		return true
	}
	if !lok || !rok {
		return nil
	}
	return lb || rb
}

// applyBinary applies a non-AND/OR binary operator to two evaluated
// operands.
func applyBinary(op string, l, r any) (any, error) {
	switch op {
	case "IS DISTINCT FROM", "IS NOT DISTINCT FROM":
		// null-safe equality: NULL IS NOT DISTINCT FROM NULL is TRUE —
		// exactly Q's two-valued null equality (paper §3.3)
		var equal bool
		switch {
		case l == nil && r == nil:
			equal = true
		case l == nil || r == nil:
			equal = false
		default:
			equal = equalVals(l, r)
		}
		if op == "IS DISTINCT FROM" {
			return !equal, nil
		}
		return equal, nil
	}
	if l == nil || r == nil {
		return nil, nil // 3VL: everything else is unknown with a null
	}
	switch op {
	case "=", "<>", "<", ">", "<=", ">=":
		return cmpHolds(op, compareVals(l, r)), nil
	case "+", "-", "*", "/", "%":
		return arithSQL(op, l, r)
	case "||":
		return FormatValue(l, "varchar") + FormatValue(r, "varchar"), nil
	case "LIKE":
		ls, lok := l.(string)
		rs, rok := r.(string)
		if !lok || !rok {
			return nil, errf("42804", "LIKE requires strings")
		}
		return likeMatch(rs, ls), nil
	default:
		return nil, errf("0A000", "unsupported operator %q", op)
	}
}

func arithSQL(op string, l, r any) (any, error) {
	li, lIsInt := l.(int64)
	ri, rIsInt := r.(int64)
	if lIsInt && rIsInt && op != "/" {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "%":
			if ri == 0 {
				return nil, divByZero()
			}
			return li % ri, nil
		}
	}
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if !lok || !rok {
		return nil, errf("42804", "non-numeric operand to %q", op)
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if lIsInt && rIsInt {
			if rf == 0 {
				return nil, divByZero()
			}
			return int64(lf / rf), nil // integer division
		}
		// float division follows IEEE 754: ±Infinity for x/0 (honoring the
		// sign of a zero divisor), NaN for 0/0 — the q dialect depends on
		// these values surviving rather than raising 22012
		return lf / rf, nil
	case "%":
		// math.Mod(x, 0) is NaN, the IEEE answer for a float modulus
		return math.Mod(lf, rf), nil
	}
	return nil, errf("0A000", "unsupported arithmetic %q", op)
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(pat, s string) bool {
	var pi, si, star, mark int
	star = -1
	for si < len(s) {
		if pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]) {
			pi++
			si++
			continue
		}
		if pi < len(pat) && pat[pi] == '%' {
			star = pi
			mark = si
			pi++
			continue
		}
		if star >= 0 {
			pi = star + 1
			mark++
			si = mark
			continue
		}
		return false
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

func castValue(v any, typ string) (any, error) {
	if v == nil {
		return nil, nil
	}
	switch typ {
	case "smallint", "integer", "bigint":
		switch x := v.(type) {
		case int64:
			return x, nil
		case float64:
			return int64(x), nil
		case string:
			n, err := strconv.ParseInt(strings.TrimSpace(x), 10, 64)
			if err != nil {
				return nil, errf("22P02", "invalid integer %q", x)
			}
			return n, nil
		case bool:
			if x {
				return int64(1), nil
			}
			return int64(0), nil
		}
	case "real", "double precision", "numeric":
		switch x := v.(type) {
		case int64:
			return float64(x), nil
		case float64:
			return x, nil
		case string:
			f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
			if err != nil {
				return nil, errf("22P02", "invalid number %q", x)
			}
			return f, nil
		}
	case "boolean":
		switch x := v.(type) {
		case bool:
			return x, nil
		case int64:
			return x != 0, nil
		case string:
			return ParseValue(x, "boolean")
		}
	case "varchar", "text":
		return FormatValue(v, "varchar"), nil
	case "date", "time", "timestamp", "interval":
		switch x := v.(type) {
		case int64:
			return x, nil
		case float64:
			return int64(x), nil
		case string:
			return ParseValue(x, typ)
		}
	}
	return nil, errf("42846", "cannot cast %T to %s", v, typ)
}

// applyScalarFunc applies a scalar function to already evaluated arguments.
func applyScalarFunc(name string, args []any) (any, error) {
	switch name {
	case "coalesce":
		for _, a := range args {
			if a != nil {
				return a, nil
			}
		}
		return nil, nil
	case "nullif":
		if len(args) == 2 && args[0] != nil && args[1] != nil && equalVals(args[0], args[1]) {
			return nil, nil
		}
		return args[0], nil
	case "abs":
		if len(args) != 1 {
			return nil, errf("42883", "abs takes 1 argument")
		}
		switch n := args[0].(type) {
		case nil:
			return nil, nil
		case int64:
			if n < 0 {
				return -n, nil
			}
			return n, nil
		case float64:
			return math.Abs(n), nil
		}
		return nil, errf("42804", "abs of non-number")
	case "floor", "ceil", "sqrt", "exp", "ln":
		if len(args) != 1 || args[0] == nil {
			if len(args) == 1 {
				return nil, nil
			}
			return nil, errf("42883", "%s takes 1 argument", name)
		}
		f, ok := toFloat(args[0])
		if !ok {
			return nil, errf("42804", "%s of non-number", name)
		}
		switch name {
		case "floor":
			return math.Floor(f), nil
		case "ceil":
			return math.Ceil(f), nil
		case "sqrt":
			return math.Sqrt(f), nil
		case "exp":
			return math.Exp(f), nil
		default:
			return math.Log(f), nil
		}
	case "upper", "lower":
		if len(args) != 1 {
			return nil, errf("42883", "%s takes 1 argument", name)
		}
		if args[0] == nil {
			return nil, nil
		}
		str, ok := args[0].(string)
		if !ok {
			return nil, errf("42804", "%s of non-string", name)
		}
		if name == "upper" {
			return strings.ToUpper(str), nil
		}
		return strings.ToLower(str), nil
	case "greatest", "least":
		// the translator's min (&) and max (|) of two atoms
		var best any
		for _, a := range args {
			if a == nil {
				continue
			}
			if best == nil {
				best = a
				continue
			}
			c := compareVals(a, best)
			if (name == "greatest" && c > 0) || (name == "least" && c < 0) {
				best = a
			}
		}
		return best, nil
	case "count", "sum", "avg", "min", "max", "stddev_pop", "var_pop":
		return nil, errf("42803", "aggregate function %s called in non-aggregate context", name)
	default:
		return nil, errf("42883", "function %s does not exist", name)
	}
}
