// Package serializer turns transformed XTRA expressions into PostgreSQL SQL
// text (paper §3.3/§3.4). Analytical plans routinely serialize to multi-
// level subqueries — exactly the effect the paper measures in Figure 7,
// where serialization is one of the two dominant translation stages.
package serializer

import (
	"fmt"
	"math"
	"strings"

	"hyperq/internal/qlang/qval"
	"hyperq/internal/xtra"
)

// SerializeScalarSelect renders a scalar expression as a single-row SELECT,
// used for stand-alone scalar Q statements such as "1+2".
func SerializeScalarSelect(e xtra.Scalar) (string, error) {
	s := &sz{}
	sql, err := s.scalar(e)
	if err != nil {
		return "", err
	}
	return "SELECT " + sql + " AS value", nil
}

// Serialize renders an XTRA tree as one SQL SELECT statement.
func Serialize(n xtra.Node) (string, error) {
	s := &sz{}
	sql, err := s.rel(n)
	if err != nil {
		return "", err
	}
	return sql, nil
}

type sz struct {
	aliasN int
}

func (s *sz) alias() string {
	s.aliasN++
	return fmt.Sprintf("hq_t%d", s.aliasN)
}

// rel renders a relational operator as a complete SELECT.
func (s *sz) rel(n xtra.Node) (string, error) {
	switch op := n.(type) {
	case *xtra.Get:
		return "SELECT " + colList(op.P.Cols, "") + " FROM " + ident(op.Table), nil
	case *xtra.ConstTable:
		return s.constTable(op)
	case *xtra.Filter:
		pred, err := s.scalar(op.Pred)
		if err != nil {
			return "", err
		}
		// fuse onto a bare Get to avoid gratuitous nesting
		if g, ok := op.Input.(*xtra.Get); ok {
			return "SELECT " + colList(op.P.Cols, "") + " FROM " + ident(g.Table) + " WHERE " + pred, nil
		}
		sub, err := s.rel(op.Input)
		if err != nil {
			return "", err
		}
		a := s.alias()
		return "SELECT " + colList(op.P.Cols, "") + " FROM (" + sub + ") " + a + " WHERE " + pred, nil
	case *xtra.Project:
		items, err := s.namedExprs(op.Exprs)
		if err != nil {
			return "", err
		}
		switch in := op.Input.(type) {
		case *xtra.Get:
			return "SELECT " + items + " FROM " + ident(in.Table), nil
		case *xtra.Filter:
			if g, ok := in.Input.(*xtra.Get); ok {
				pred, err := s.scalar(in.Pred)
				if err != nil {
					return "", err
				}
				return "SELECT " + items + " FROM " + ident(g.Table) + " WHERE " + pred, nil
			}
		}
		sub, err := s.rel(op.Input)
		if err != nil {
			return "", err
		}
		a := s.alias()
		return "SELECT " + items + " FROM (" + sub + ") " + a, nil
	case *xtra.GroupAgg:
		return s.groupAgg(op)
	case *xtra.Join:
		return s.join(op)
	case *xtra.AsOfJoin:
		return s.asofJoin(op)
	case *xtra.Window:
		sub, err := s.rel(op.Input)
		if err != nil {
			return "", err
		}
		a := s.alias()
		var items []string
		items = append(items, a+".*")
		for _, f := range op.Funcs {
			items = append(items, strings.ToUpper(f.Fn)+"() OVER () AS "+ident(f.Name))
		}
		return "SELECT " + strings.Join(items, ", ") + " FROM (" + sub + ") " + a, nil
	case *xtra.Union:
		return s.union(op)
	case *xtra.Sort:
		sub, err := s.rel(op.Input)
		if err != nil {
			return "", err
		}
		// q sorts nulls lowest: first ascending, last descending
		var keys []string
		for _, k := range op.Keys {
			dir := " NULLS FIRST"
			if k.Desc {
				dir = " DESC NULLS LAST"
			}
			keys = append(keys, ident(k.Col)+dir)
		}
		a := s.alias()
		return "SELECT " + colList(op.P.Cols, "") + " FROM (" + sub + ") " + a + " ORDER BY " + strings.Join(keys, ", "), nil
	case *xtra.Limit:
		sub, err := s.rel(op.Input)
		if err != nil {
			return "", err
		}
		a := s.alias()
		return "SELECT " + colList(op.P.Cols, "") + " FROM (" + sub + ") " + a + " LIMIT " + fmt.Sprint(op.N), nil
	default:
		return "", fmt.Errorf("serializer: unsupported operator %s", n.OpName())
	}
}

func (s *sz) constTable(op *xtra.ConstTable) (string, error) {
	var selects []string
	for _, row := range op.Rows {
		var items []string
		for i, v := range row {
			lit, err := ConstSQL(v)
			if err != nil {
				return "", err
			}
			items = append(items, lit+" AS "+ident(op.P.Cols[i].Name))
		}
		selects = append(selects, "SELECT "+strings.Join(items, ", "))
	}
	return strings.Join(selects, " UNION ALL "), nil
}

func (s *sz) groupAgg(op *xtra.GroupAgg) (string, error) {
	var items, groupBy []string
	for _, k := range op.Keys {
		e, err := s.scalar(k.Expr)
		if err != nil {
			return "", err
		}
		items = append(items, e+" AS "+ident(k.Name))
		groupBy = append(groupBy, e)
	}
	for _, a := range op.Aggs {
		e, err := s.scalar(a.Expr)
		if err != nil {
			return "", err
		}
		items = append(items, e+" AS "+ident(a.Name))
	}
	var from string
	switch in := op.Input.(type) {
	case *xtra.Get:
		from = ident(in.Table)
	case *xtra.Filter:
		if g, ok := in.Input.(*xtra.Get); ok {
			pred, err := s.scalar(in.Pred)
			if err != nil {
				return "", err
			}
			from = ident(g.Table) + " WHERE " + pred
		}
	}
	if from == "" {
		sub, err := s.rel(op.Input)
		if err != nil {
			return "", err
		}
		from = "(" + sub + ") " + s.alias()
	}
	sql := "SELECT " + strings.Join(items, ", ") + " FROM " + from
	if len(groupBy) > 0 {
		sql += " GROUP BY " + strings.Join(groupBy, ", ")
	}
	return sql, nil
}

func (s *sz) join(op *xtra.Join) (string, error) {
	lsub, err := s.rel(op.L)
	if err != nil {
		return "", err
	}
	rsub, err := s.rel(op.R)
	if err != nil {
		return "", err
	}
	la, ra := s.alias(), s.alias()
	kw := "JOIN"
	if op.Kind == xtra.LeftOuterJoin {
		kw = "LEFT JOIN"
	}
	var conds []string
	for _, c := range op.EqCols {
		// null-safe equality: Q's lj matches nulls as equal keys
		conds = append(conds, la+"."+ident(c)+" IS NOT DISTINCT FROM "+ra+"."+ident(c))
	}
	if op.Extra != nil {
		e, err := s.scalar(op.Extra)
		if err != nil {
			return "", err
		}
		conds = append(conds, e)
	}
	// output columns: left side columns from la, right-only from ra
	var items []string
	leftCols := map[string]bool{}
	for _, c := range op.L.Props().Cols {
		leftCols[c.Name] = true
	}
	for _, c := range op.P.Cols {
		if leftCols[c.Name] {
			items = append(items, la+"."+ident(c.Name))
		} else {
			items = append(items, ra+"."+ident(c.Name))
		}
	}
	sql := "SELECT " + strings.Join(items, ", ") +
		" FROM (" + lsub + ") " + la + " " + kw + " (" + rsub + ") " + ra
	if len(conds) > 0 {
		sql += " ON " + strings.Join(conds, " AND ")
	}
	return sql, nil
}

// asofJoin serializes the as-of join into the left-outer-join-plus-window
// shape of the paper's Figure 2: join right rows at-or-before the left time,
// then keep the most recent via ROW_NUMBER() ... ORDER BY time DESC.
func (s *sz) asofJoin(op *xtra.AsOfJoin) (string, error) {
	lsub, err := s.rel(op.L)
	if err != nil {
		return "", err
	}
	rsub, err := s.rel(op.R)
	if err != nil {
		return "", err
	}
	la, ra := s.alias(), s.alias()
	ord := op.L.Props().OrderCol
	if ord == "" {
		return "", fmt.Errorf("serializer: as-of join requires an ordered left input")
	}
	var conds []string
	for _, c := range op.EqCols {
		conds = append(conds, la+"."+ident(c)+" IS NOT DISTINCT FROM "+ra+"."+ident(c))
	}
	conds = append(conds, ra+"."+ident(op.TimeCol)+" <= "+la+"."+ident(op.TimeCol))

	leftCols := map[string]bool{}
	var inner []string
	for _, c := range op.L.Props().Cols {
		leftCols[c.Name] = true
		inner = append(inner, la+"."+ident(c.Name))
	}
	var outCols []string
	for _, c := range op.P.Cols {
		outCols = append(outCols, ident(c.Name))
		if !leftCols[c.Name] {
			inner = append(inner, ra+"."+ident(c.Name))
		}
	}
	inner = append(inner,
		"ROW_NUMBER() OVER (PARTITION BY "+la+"."+ident(ord)+
			" ORDER BY "+ra+"."+ident(op.TimeCol)+" DESC) AS hq_rn")
	innerSQL := "SELECT " + strings.Join(inner, ", ") +
		" FROM (" + lsub + ") " + la +
		" LEFT JOIN (" + rsub + ") " + ra +
		" ON " + strings.Join(conds, " AND ")
	outer := s.alias()
	return "SELECT " + strings.Join(outCols, ", ") +
		" FROM (" + innerSQL + ") " + outer + " WHERE hq_rn = 1", nil
}

func (s *sz) namedExprs(exprs []xtra.NamedExpr) (string, error) {
	items := make([]string, len(exprs))
	for i, e := range exprs {
		sql, err := s.scalar(e.Expr)
		if err != nil {
			return "", err
		}
		items[i] = sql + " AS " + ident(e.Name)
	}
	return strings.Join(items, ", "), nil
}

// scalar renders a scalar XTRA expression as SQL.
func (s *sz) scalar(e xtra.Scalar) (string, error) {
	switch x := e.(type) {
	case *xtra.ConstExpr:
		return ConstSQL(x.Val)
	case *xtra.ColRef:
		return ident(x.Name), nil
	case *xtra.AggCall:
		return s.aggSQL(x)
	case *xtra.ListExpr:
		items := make([]string, len(x.Items))
		for i, it := range x.Items {
			sql, err := s.scalar(it)
			if err != nil {
				return "", err
			}
			items[i] = sql
		}
		return "(" + strings.Join(items, ", ") + ")", nil
	case *xtra.FnApp:
		return s.fnSQL(x)
	default:
		return "", fmt.Errorf("serializer: unsupported scalar %T", e)
	}
}

func (s *sz) aggSQL(a *xtra.AggCall) (string, error) {
	switch a.Fn {
	case "count":
		// Q's count is the group size: unlike SQL's COUNT(col) it does NOT
		// skip nulls, so the argument (if any) is ignored.
		return "COUNT(*)", nil
	case "sum":
		// Q's sum over an empty or all-null input is a typed zero, never
		// null; SQL's SUM yields NULL there.
		arg, err := s.scalar(a.Arg)
		if err != nil {
			return "", err
		}
		return "COALESCE(SUM(" + arg + "), 0)", nil
	case "wavg", "wsum":
		pair, ok := a.Arg.(*xtra.FnApp)
		if !ok || pair.Op != "pair" || len(pair.Args) != 2 {
			return "", fmt.Errorf("serializer: malformed %s", a.Fn)
		}
		w, err := s.scalar(pair.Args[0])
		if err != nil {
			return "", err
		}
		v, err := s.scalar(pair.Args[1])
		if err != nil {
			return "", err
		}
		// a NaN product (0 * 0w) is q's null and must not poison the sum
		prod := nanNull("((" + w + ") * (" + v + "))")
		if a.Fn == "wsum" {
			// wsum is sum of products: typed zero over empty input
			return "COALESCE(SUM(" + prod + "), 0)", nil
		}
		// zero total weight yields 0n in Q, not a division-by-zero error;
		// the numerator casts to float so integer weights do not truncate,
		// and an all-null product sum counts as 0 as q's sum does
		return "(CAST(COALESCE(SUM(" + prod + "), 0) AS double precision) / NULLIF(SUM(" + w + "), 0))", nil
	default:
		arg, err := s.scalar(a.Arg)
		if err != nil {
			return "", err
		}
		return strings.ToUpper(a.Fn) + "(" + arg + ")", nil
	}
}

// nonNullConst reports whether e is a non-null atom literal, letting the
// null-safe spellings below fall back to plain SQL operators.
func nonNullConst(e xtra.Scalar) bool {
	c, ok := e.(*xtra.ConstExpr)
	return ok && c.Val.Len() < 0 && !qval.IsNull(c.Val)
}

// nonZeroConst reports whether e is a non-null numeric literal other than 0,
// in which case division guards are unnecessary.
func nonZeroConst(e xtra.Scalar) bool {
	c, ok := e.(*xtra.ConstExpr)
	if !ok || qval.IsNull(c.Val) {
		return false
	}
	f, isNum := qval.AsFloat(c.Val)
	return isNum && f != 0
}

// nanNull maps a float NaN back to SQL NULL. In q the float null 0n IS NaN,
// so any expression that can produce NaN (0%0, 0w%0w, 0w+-0w, 0*0w, ...)
// must yield NULL on the SQL side or aggregates diverge: q's avg skips 0n
// while SQL's AVG would let a NaN value poison the whole group.
func nanNull(expr string) string {
	return "NULLIF(" + expr + ", 'NaN'::double precision)"
}

// integralType reports whether t (a vector code or its negation) denotes an
// integral numeric type, whose values have no signed zero.
func integralType(t qval.Type) bool {
	if t < 0 {
		t = -t
	}
	switch t {
	case qval.KBool, qval.KByte, qval.KShort, qval.KInt, qval.KLong:
		return true
	}
	return false
}

// floatDivide renders Q's float division. The backend divides floats by
// IEEE 754 rules (x%0 is 0w, -x%0 is -0w, division by -0.0 flips the sign),
// so the only correction needed is NaN -> NULL for the 0%0 and 0w%0w cases.
func floatDivide(l, r string) string {
	return nanNull("(CAST(" + l + " AS double precision) / " + r + ")")
}

func (s *sz) fnSQL(f *xtra.FnApp) (string, error) {
	bin := func(op string) (string, error) {
		l, err := s.scalar(f.Args[0])
		if err != nil {
			return "", err
		}
		r, err := s.scalar(f.Args[1])
		if err != nil {
			return "", err
		}
		return "(" + l + " " + op + " " + r + ")", nil
	}
	switch f.Op {
	case "+", "-", "*":
		out, err := bin(f.Op)
		if err != nil {
			return "", err
		}
		// float sums and products can produce NaN (0w + -0w, 0 * 0w) which
		// q treats as the null 0n
		if f.Typ == qval.KFloat || f.Typ == qval.KReal {
			return nanNull(out), nil
		}
		return out, nil
	case "%":
		l, err := s.scalar(f.Args[0])
		if err != nil {
			return "", err
		}
		r, err := s.scalar(f.Args[1])
		if err != nil {
			return "", err
		}
		// q divide is float division; x%0 yields signed infinity / 0n
		if nonZeroConst(f.Args[1]) {
			return "(CAST(" + l + " AS double precision) / " + r + ")", nil
		}
		return floatDivide(l, r), nil
	case "mod":
		l, err := s.scalar(f.Args[0])
		if err != nil {
			return "", err
		}
		r, err := s.scalar(f.Args[1])
		if err != nil {
			return "", err
		}
		// q mod is floored — the result takes the divisor's sign — while
		// SQL % truncates toward zero. Spell out the same correction the
		// kdb+ kernel applies (add the divisor when the signs disagree) so
		// infinite divisors agree too: -2 mod 0w is 0w, -2 mod -0w is -2.
		// Mod-by-zero is a typed null, not an error.
		rg := r
		if !nonZeroConst(f.Args[1]) {
			rg = "NULLIF(" + r + ", 0)"
		}
		m := "(" + l + " % " + rg + ")"
		expr := "(CASE WHEN (" + m + " <> 0) AND ((" + m + " < 0) <> (" + rg + " < 0))" +
			" THEN (" + m + " + " + rg + ") ELSE " + m + " END)"
		if f.Typ == qval.KFloat || f.Typ == qval.KReal {
			return nanNull(expr), nil
		}
		return expr, nil
	case "div":
		l, err := s.scalar(f.Args[0])
		if err != nil {
			return "", err
		}
		r, err := s.scalar(f.Args[1])
		if err != nil {
			return "", err
		}
		if nonZeroConst(f.Args[1]) {
			expr := "FLOOR(CAST(" + l + " AS double precision) / " + r + ")"
			if f.Typ == qval.KFloat || f.Typ == qval.KReal {
				return expr, nil
			}
			// integral results must repack like the kdb+ kernel does: FLOOR
			// can yield IEEE -0.0 (e.g. 0 div -1), and a downstream division
			// by that float would flip the infinity sign q produces
			return "CAST(" + expr + " AS bigint)", nil
		}
		if f.Typ == qval.KFloat || f.Typ == qval.KReal {
			// float div keeps the signed infinity of the divide; the inner
			// NULLIF already turned any NaN into NULL, which FLOOR keeps
			return "FLOOR(" + floatDivide(l, r) + ")", nil
		}
		// integral div by zero is a typed null (infinity has no integral
		// representation); the CAST back to bigint collapses IEEE -0.0 to 0
		// the way the kdb+ kernel's integral repack does, so a downstream
		// division by this result keeps the infinity sign q produces
		return "CAST(FLOOR(CAST(" + l + " AS double precision) / NULLIF(" + r + ", 0)) AS bigint)", nil
	case "xbar":
		b, err := s.scalar(f.Args[0])
		if err != nil {
			return "", err
		}
		x, err := s.scalar(f.Args[1])
		if err != nil {
			return "", err
		}
		expr := "((" + b + ") * FLOOR(CAST(" + x + " AS double precision) / (" + b + ")))"
		if f.Typ == qval.KFloat || f.Typ == qval.KReal {
			// an infinite bucket makes 0w * 0 = NaN, q's null
			expr = nanNull(expr)
		}
		if !nonZeroConst(f.Args[0]) {
			// q: 0 xbar x is x, not a division error
			expr = "(CASE WHEN " + b + " = 0 THEN " + x + " ELSE " + expr + " END)"
		}
		// bucketing a temporal column keeps the temporal type
		if qval.IsTemporal(f.Typ) {
			return "CAST(" + expr + " AS " + xtra.SQLTypeFor(f.Typ) + ")", nil
		}
		if integralType(f.Typ) {
			// the bucket multiply runs in double and -2 * 0.0 is IEEE -0.0;
			// q types this node long and its repack collapses the signed
			// zero, so cast back to bigint for divisor-sign parity
			return "CAST(" + expr + " AS bigint)", nil
		}
		return expr, nil
	case "&":
		l, _ := s.scalar(f.Args[0])
		r, _ := s.scalar(f.Args[1])
		if f.Typ == qval.KBool {
			return "(" + l + " AND " + r + ")", nil
		}
		// q propagates nulls through min/max; LEAST/GREATEST skip them
		return "(CASE WHEN (" + l + " IS NULL) OR (" + r + " IS NULL) THEN NULL ELSE LEAST(" + l + ", " + r + ") END)", nil
	case "|":
		l, _ := s.scalar(f.Args[0])
		r, _ := s.scalar(f.Args[1])
		if f.Typ == qval.KBool {
			return "(" + l + " OR " + r + ")", nil
		}
		return "(CASE WHEN (" + l + " IS NULL) OR (" + r + " IS NULL) THEN NULL ELSE GREATEST(" + l + ", " + r + ") END)", nil
	case "=", "<>", "<", ">", "<=", ">=":
		// bare SQL operators; the Xformer's NullSemantics rule rewrites
		// these to the null-safe q* forms unless ablated
		return bin(f.Op)
	case "qlt", "qgt", "qle", "qge":
		return s.cmpSQL(f)
	case "indf", "~":
		return bin("IS NOT DISTINCT FROM")
	case "idf":
		return bin("IS DISTINCT FROM")
	case "and":
		return bin("AND")
	case "or":
		return bin("OR")
	case "not":
		a, err := s.scalar(f.Args[0])
		if err != nil {
			return "", err
		}
		return "(NOT " + a + ")", nil
	case "neg":
		a, err := s.scalar(f.Args[0])
		if err != nil {
			return "", err
		}
		// q's neg is 0-x, which never yields IEEE -0.0: a later division
		// by it keeps the sign q gives the infinity
		return "(0 - " + a + ")", nil
	case "in":
		l, err := s.scalar(f.Args[0])
		if err != nil {
			return "", err
		}
		items, err := s.inItems(f.Args[1])
		if err != nil {
			return "", err
		}
		if len(items) == 0 {
			return "FALSE", nil
		}
		// null-safe membership: Q's in matches nulls as equal values, where
		// SQL's IN turns unknown as soon as a NULL is involved
		parts := make([]string, len(items))
		for i, it := range items {
			parts[i] = "(" + l + " IS NOT DISTINCT FROM " + it + ")"
		}
		return "(" + strings.Join(parts, " OR ") + ")", nil
	case "within":
		x, err := s.scalar(f.Args[0])
		if err != nil {
			return "", err
		}
		bounds, ok := f.Args[1].(*xtra.ListExpr)
		var lo, hi string
		loNN, hiNN := false, false
		if ok && len(bounds.Items) == 2 {
			lo, err = s.scalar(bounds.Items[0])
			if err != nil {
				return "", err
			}
			hi, err = s.scalar(bounds.Items[1])
			if err != nil {
				return "", err
			}
			loNN, hiNN = nonNullConst(bounds.Items[0]), nonNullConst(bounds.Items[1])
		} else if c, isConst := f.Args[1].(*xtra.ConstExpr); isConst && c.Val.Len() == 2 {
			loV, hiV := qval.Index(c.Val, 0), qval.Index(c.Val, 1)
			lo, err = ConstSQL(loV)
			if err != nil {
				return "", err
			}
			hi, err = ConstSQL(hiV)
			if err != nil {
				return "", err
			}
			loNN, hiNN = !qval.IsNull(loV), !qval.IsNull(hiV)
		} else {
			return "", fmt.Errorf("serializer: within requires a 2-element bound")
		}
		if loNN && hiNN {
			// non-null bounds: only a null operand diverges from BETWEEN,
			// and under Q's null-smallest order it falls below lo
			return "((" + x + " IS NOT NULL) AND (" + x + " BETWEEN " + lo + " AND " + hi + "))", nil
		}
		ge := "(CASE WHEN " + lo + " IS NULL THEN TRUE WHEN " + x + " IS NULL THEN FALSE ELSE (" + lo + " <= " + x + ") END)"
		le := "(CASE WHEN " + x + " IS NULL THEN TRUE WHEN " + hi + " IS NULL THEN FALSE ELSE (" + x + " <= " + hi + ") END)"
		return "(" + ge + " AND " + le + ")", nil
	case "like":
		l, err := s.scalar(f.Args[0])
		if err != nil {
			return "", err
		}
		pat, ok := f.Args[1].(*xtra.ConstExpr)
		if !ok {
			return "", fmt.Errorf("serializer: like requires a constant pattern")
		}
		// a null symbol is the empty string to Q's like, not an unknown:
		// resolve the NULL case to whether the pattern matches ""
		fallback := "FALSE"
		if patternMatchesEmpty(pat.Val) {
			fallback = "TRUE"
		}
		return "COALESCE((" + l + " LIKE " + qPatternToSQL(pat.Val) + "), " + fallback + ")", nil
	case "cond":
		c, err := s.scalar(f.Args[0])
		if err != nil {
			return "", err
		}
		t, err := s.scalar(f.Args[1])
		if err != nil {
			return "", err
		}
		el, err := s.scalar(f.Args[2])
		if err != nil {
			return "", err
		}
		return "(CASE WHEN " + c + " THEN " + t + " ELSE " + el + " END)", nil
	case "fill":
		a, err := s.scalar(f.Args[0])
		if err != nil {
			return "", err
		}
		b, err := s.scalar(f.Args[1])
		if err != nil {
			return "", err
		}
		return "COALESCE(" + b + ", " + a + ")", nil
	case "cast":
		a, err := s.scalar(f.Args[0])
		if err != nil {
			return "", err
		}
		return "CAST(" + a + " AS " + xtra.SQLTypeFor(f.Typ) + ")", nil
	case "abs", "exp", "floor", "upper", "lower":
		a, err := s.scalar(f.Args[0])
		if err != nil {
			return "", err
		}
		return strings.ToUpper(f.Op) + "(" + a + ")", nil
	case "sqrt", "log":
		a, err := s.scalar(f.Args[0])
		if err != nil {
			return "", err
		}
		// the root or log of a negative number is NaN, q's null 0n
		return nanNull(map[string]string{"sqrt": "SQRT(", "log": "LN("}[f.Op] + a + ")"), nil
	case "ceiling":
		a, err := s.scalar(f.Args[0])
		if err != nil {
			return "", err
		}
		return "CEIL(" + a + ")", nil
	case "signum":
		a, err := s.scalar(f.Args[0])
		if err != nil {
			return "", err
		}
		return "(CASE WHEN " + a + " IS NULL THEN NULL WHEN " + a + " > 0 THEN 1 WHEN " + a + " < 0 THEN -1 ELSE 0 END)", nil
	case "null":
		a, err := s.scalar(f.Args[0])
		if err != nil {
			return "", err
		}
		return "(" + a + " IS NULL)", nil
	default:
		return "", fmt.Errorf("serializer: no SQL spelling for %q", f.Op)
	}
}

// cmpSQL renders a Q comparison under two-valued logic: nulls compare as the
// smallest value of their type and null = null is true (paper §2.2/§3.3),
// where the bare SQL operators would go unknown and silently drop rows.
func (s *sz) cmpSQL(f *xtra.FnApp) (string, error) {
	l, err := s.scalar(f.Args[0])
	if err != nil {
		return "", err
	}
	r, err := s.scalar(f.Args[1])
	if err != nil {
		return "", err
	}
	op := map[string]string{"qlt": "<", "qgt": ">", "qle": "<=", "qge": ">="}[f.Op]
	if nonNullConst(f.Args[0]) && nonNullConst(f.Args[1]) {
		return "(" + l + " " + op + " " + r + ")", nil
	}
	switch f.Op {
	case "qlt":
		return "(CASE WHEN " + l + " IS NULL THEN (" + r + " IS NOT NULL) WHEN " + r + " IS NULL THEN FALSE ELSE (" + l + " < " + r + ") END)", nil
	case "qgt":
		return "(CASE WHEN " + r + " IS NULL THEN (" + l + " IS NOT NULL) WHEN " + l + " IS NULL THEN FALSE ELSE (" + l + " > " + r + ") END)", nil
	case "qle":
		return "(CASE WHEN " + l + " IS NULL THEN TRUE WHEN " + r + " IS NULL THEN FALSE ELSE (" + l + " <= " + r + ") END)", nil
	default: // qge
		return "(CASE WHEN " + r + " IS NULL THEN TRUE WHEN " + l + " IS NULL THEN FALSE ELSE (" + l + " >= " + r + ") END)", nil
	}
}

// inItems renders the right operand of Q's in as a slice of SQL literals.
func (s *sz) inItems(e xtra.Scalar) ([]string, error) {
	switch x := e.(type) {
	case *xtra.ListExpr:
		items := make([]string, len(x.Items))
		for i, it := range x.Items {
			sql, err := s.scalar(it)
			if err != nil {
				return nil, err
			}
			items[i] = sql
		}
		return items, nil
	case *xtra.ConstExpr:
		n := x.Val.Len()
		if n < 0 {
			lit, err := ConstSQL(x.Val)
			if err != nil {
				return nil, err
			}
			return []string{lit}, nil
		}
		items := make([]string, n)
		for i := 0; i < n; i++ {
			lit, err := ConstSQL(qval.Index(x.Val, i))
			if err != nil {
				return nil, err
			}
			items[i] = lit
		}
		return items, nil
	default:
		return nil, fmt.Errorf("serializer: IN requires a list")
	}
}

// patternMatchesEmpty reports whether a Q glob pattern matches the empty
// string (i.e. consists only of '*' wildcards).
func patternMatchesEmpty(v qval.Value) bool {
	var src string
	switch x := v.(type) {
	case qval.CharVec:
		src = string(x)
	case qval.Symbol:
		src = string(x)
	}
	for i := 0; i < len(src); i++ {
		if src[i] != '*' {
			return false
		}
	}
	return true
}

// qPatternToSQL converts a Q glob pattern (*, ?) to a SQL LIKE pattern.
func qPatternToSQL(v qval.Value) string {
	var src string
	switch x := v.(type) {
	case qval.CharVec:
		src = string(x)
	case qval.Symbol:
		src = string(x)
	}
	src = strings.ReplaceAll(src, "%", `\%`)
	src = strings.ReplaceAll(src, "_", `\_`)
	src = strings.ReplaceAll(src, "*", "%")
	src = strings.ReplaceAll(src, "?", "_")
	return "'" + strings.ReplaceAll(src, "'", "''") + "'"
}

// ConstSQL renders a Q literal as a typed SQL literal (paper §3.2.2: symbol
// maps to varchar, ints to integer types, strings to text); the translation
// cache splices its renderings into cached SQL templates.
func ConstSQL(v qval.Value) (string, error) {
	if qval.IsNull(v) {
		return "NULL", nil
	}
	switch x := v.(type) {
	case qval.Bool:
		if x {
			return "TRUE", nil
		}
		return "FALSE", nil
	case qval.Byte:
		return fmt.Sprint(byte(x)), nil
	case qval.Short:
		return fmt.Sprint(int16(x)), nil
	case qval.Int:
		return fmt.Sprint(int32(x)), nil
	case qval.Long:
		return fmt.Sprint(int64(x)), nil
	case qval.Real:
		return floatLit(float64(x)), nil
	case qval.Float:
		return floatLit(float64(x)), nil
	case qval.Symbol:
		return "'" + strings.ReplaceAll(string(x), "'", "''") + "'::varchar", nil
	case qval.CharVec:
		return "'" + strings.ReplaceAll(string(x), "'", "''") + "'", nil
	case qval.Char:
		return "'" + string(rune(x)) + "'", nil
	case qval.Temporal:
		return temporalSQL(x)
	case qval.Datetime:
		t := qval.TimeFromTimestamp(int64(float64(x) * 24 * 3600 * 1e9))
		return "'" + t.Format("2006-01-02 15:04:05.999999999") + "'::timestamp", nil
	default:
		return "", fmt.Errorf("serializer: cannot render %s literal", qval.TypeName(v.Type()))
	}
}

// floatLit renders a float literal; Q's ±0w infinities need PostgreSQL's
// quoted spelling ('Infinity'), bare tokens are a syntax error.
func floatLit(f float64) string {
	if math.IsInf(f, 1) {
		return "'Infinity'::double precision"
	}
	if math.IsInf(f, -1) {
		return "'-Infinity'::double precision"
	}
	s := fmt.Sprint(f)
	// keep the literal float-typed: a bare "0" would make i*0f integer
	// arithmetic, losing IEEE signed zeros (-1*0.0 is -0.0, -1*0 is 0)
	if !strings.ContainsAny(s, ".eE") && !math.IsNaN(f) {
		s += ".0"
	}
	return s
}

func temporalSQL(t qval.Temporal) (string, error) {
	switch t.T {
	case qval.KDate:
		d := qval.TimeFromDate(t.V)
		return "'" + d.Format("2006-01-02") + "'::date", nil
	case qval.KTime:
		ms := t.V
		return fmt.Sprintf("'%02d:%02d:%02d.%03d'::time", ms/3600000, ms/60000%60, ms/1000%60, ms%1000), nil
	case qval.KTimestamp:
		w := qval.TimeFromTimestamp(t.V)
		return "'" + w.Format("2006-01-02 15:04:05.999999999") + "'::timestamp", nil
	case qval.KMinute:
		return fmt.Sprint(t.V), nil
	case qval.KSecond:
		return fmt.Sprint(t.V), nil
	case qval.KMonth:
		return fmt.Sprint(t.V), nil
	case qval.KTimespan:
		return fmt.Sprint(t.V), nil
	default:
		return "", fmt.Errorf("serializer: cannot render %s literal", qval.TypeName(-t.T))
	}
}

// colList renders a column list, optionally qualified.
func colList(cols []xtra.Col, qual string) string {
	items := make([]string, len(cols))
	for i, c := range cols {
		if qual != "" {
			items[i] = qual + "." + ident(c.Name)
		} else {
			items[i] = ident(c.Name)
		}
	}
	return strings.Join(items, ", ")
}

// ident quotes an identifier when it contains upper-case letters or other
// characters the backend would fold or reject.
func ident(s string) string {
	plain := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c == '_' || (i > 0 && c >= '0' && c <= '9') {
			continue
		}
		plain = false
		break
	}
	if plain {
		return s
	}
	return `"` + s + `"`
}

// union serializes uj as UNION ALL over the union of columns, null-padding
// the side that lacks a column. When both inputs carry order columns, the
// right side's order values are offset past the left's so the combined
// ordcol preserves q's left-rows-then-right-rows order.
func (s *sz) union(op *xtra.Union) (string, error) {
	lsub, err := s.rel(op.L)
	if err != nil {
		return "", err
	}
	rsub, err := s.rel(op.R)
	if err != nil {
		return "", err
	}
	side := func(sub string, props *xtra.Props, offsetOrd bool) string {
		a := s.alias()
		items := make([]string, 0, len(op.P.Cols))
		for _, c := range op.P.Cols {
			switch {
			case c.Name == op.P.OrderCol && offsetOrd:
				items = append(items, "("+ident(c.Name)+" + 1000000000000) AS "+ident(c.Name))
			default:
				if _, ok := props.Col(c.Name); ok {
					items = append(items, ident(c.Name))
				} else {
					items = append(items, "NULL AS "+ident(c.Name))
				}
			}
		}
		return "SELECT " + strings.Join(items, ", ") + " FROM (" + sub + ") " + a
	}
	return side(lsub, op.L.Props(), false) + " UNION ALL " + side(rsub, op.R.Props(), true), nil
}
