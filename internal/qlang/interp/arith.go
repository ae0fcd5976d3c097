// Package interp implements an in-memory Q interpreter that stands in for
// the kdb+ server in this reproduction. It follows kdb+'s execution model:
// the server loop executes one request at a time (concurrent requests are
// queued and run serially, paper §2.2), values have ordered-list semantics,
// comparison uses two-valued logic, and expressions evaluate strictly
// right-to-left. The interpreter is the reference implementation for the
// side-by-side testing framework (paper §5) and the "real-time database"
// baseline in the benchmarks.
package interp

import (
	"math"

	"hyperq/internal/qlang/qval"
)

// numKind ranks types for arithmetic promotion.
func numRank(t qval.Type) int {
	if t < 0 {
		t = -t
	}
	switch t {
	case qval.KBool:
		return 1
	case qval.KByte:
		return 2
	case qval.KShort:
		return 3
	case qval.KInt:
		return 4
	case qval.KLong:
		return 5
	case qval.KReal:
		return 6
	case qval.KFloat, qval.KDatetime:
		return 7
	default:
		return 0
	}
}

// scalarNum extracts a float magnitude and a nullness flag.
func scalarNum(v qval.Value) (float64, bool, bool) {
	if qval.IsNull(v) {
		return 0, true, true
	}
	f, ok := qval.AsFloat(v)
	return f, false, ok
}

// arithOp is a scalar arithmetic kernel operating on float magnitudes; nulls
// propagate before the kernel is consulted.
type arithOp func(a, b float64) float64

var arithKernels = map[string]arithOp{
	"+": func(a, b float64) float64 { return a + b },
	"-": func(a, b float64) float64 { return a - b },
	"*": func(a, b float64) float64 { return a * b },
	"%": func(a, b float64) float64 { return a / b }, // Q's % is divide
	"&": math.Min,
	"|": math.Max,
	"mod": func(a, b float64) float64 {
		if b == 0 {
			return math.NaN()
		}
		m := math.Mod(a, b)
		if m != 0 && (m < 0) != (b < 0) {
			m += b
		}
		return m
	},
	"div": func(a, b float64) float64 { return math.Floor(a / b) },
	"xbar": func(bucket, x float64) float64 {
		if bucket == 0 {
			return x
		}
		return bucket * math.Floor(x/bucket)
	},
}

// resultType determines the type of an arithmetic result given operand
// types. Q rules approximated: % always yields float; integral ops keep the
// wider integral type; any float operand yields float; temporal types
// combine with numerics to stay temporal.
func resultType(op string, ta, tb qval.Type) qval.Type {
	if ta < 0 {
		ta = -ta
	}
	if tb < 0 {
		tb = -tb
	}
	if op == "%" {
		return qval.KFloat
	}
	if qval.IsTemporal(ta) && !qval.IsTemporal(tb) {
		return ta
	}
	if qval.IsTemporal(tb) && !qval.IsTemporal(ta) {
		return tb
	}
	if qval.IsTemporal(ta) && qval.IsTemporal(tb) {
		if op == "-" {
			return qval.KTimespan // difference of instants is a span
		}
		return ta
	}
	ra, rb := numRank(ta), numRank(tb)
	r := ra
	if rb > r {
		r = rb
	}
	switch r {
	case 1, 2, 3, 4, 5:
		if op == "mod" || op == "div" || op == "+" || op == "-" || op == "*" || op == "&" || op == "|" || op == "xbar" {
			return qval.KLong
		}
		return qval.KLong
	case 6:
		return qval.KReal
	default:
		return qval.KFloat
	}
}

// packNum converts a float magnitude into an atom of type t, mapping the
// null flag to the type's null.
func packNum(t qval.Type, f float64, isNull bool) qval.Value {
	if t < 0 {
		t = -t
	}
	if isNull {
		return qval.Null(t)
	}
	switch t {
	case qval.KBool:
		return qval.Bool(f != 0)
	case qval.KByte:
		return qval.Byte(byte(int64(f)))
	case qval.KShort:
		return qval.Short(int16(f))
	case qval.KInt:
		return qval.Int(int32(f))
	case qval.KLong:
		return qval.Long(int64(f))
	case qval.KReal:
		if math.IsNaN(f) {
			return qval.Null(qval.KReal)
		}
		return qval.Real(float32(f))
	case qval.KFloat:
		return qval.Float(f)
	case qval.KDatetime:
		return qval.Datetime(f)
	case qval.KTimestamp, qval.KMonth, qval.KDate, qval.KTimespan, qval.KMinute, qval.KSecond, qval.KTime:
		if math.IsNaN(f) {
			return qval.Temporal{T: t, V: qval.NullLong}
		}
		return qval.Temporal{T: t, V: int64(f)}
	default:
		return qval.Float(f)
	}
}

// arith applies a dyadic arithmetic operator elementwise with Q's
// atom-extension rules: atom op atom, atom op vector, vector op atom, and
// vector op vector (equal lengths; mismatch raises 'length).
func arith(op string, a, b qval.Value) (qval.Value, error) {
	kern, ok := arithKernels[op]
	if !ok {
		return nil, qval.Errorf("nyi op " + op)
	}
	la, lb := a.Len(), b.Len()
	// table/dict operands apply columnwise / valuewise
	if ta, ok := a.(*qval.Table); ok {
		return nil, qval.Errorf("type: cannot " + op + " a table (" + ta.String() + ")")
	}
	rt := resultType(op, a.Type(), b.Type())
	if la < 0 && lb < 0 {
		af, an, aok := scalarNum(a)
		bf, bn, bok := scalarNum(b)
		if !aok || !bok {
			return nil, qval.Errorf("type")
		}
		return packNum(rt, apply2(kern, af, bf, an || bn), an || bn), nil
	}
	n := la
	if la < 0 {
		n = lb
	}
	if la >= 0 && lb >= 0 && la != lb {
		return nil, qval.Errorf("length")
	}
	// fast path: long vectors with long/atom operand and integral result
	if out, ok := fastLongArith(op, a, b, n); ok {
		return out, nil
	}
	atoms := make([]qval.Value, n)
	for i := 0; i < n; i++ {
		av := qval.Index(a, i)
		bv := qval.Index(b, i)
		af, an, aok := scalarNum(av)
		bf, bn, bok := scalarNum(bv)
		if !aok || !bok {
			return nil, qval.Errorf("type")
		}
		isN := an || bn
		atoms[i] = packNum(rt, apply2(kern, af, bf, isN), isN)
	}
	return qval.FromAtoms(atoms), nil
}

func apply2(k arithOp, a, b float64, isNull bool) float64 {
	if isNull {
		return math.NaN()
	}
	return k(a, b)
}

// fastLongArith handles the hot long-vector cases without boxing.
func fastLongArith(op string, a, b qval.Value, n int) (qval.Value, bool) {
	av, aIsVec := a.(qval.LongVec)
	bv, bIsVec := b.(qval.LongVec)
	aa, aIsAtom := a.(qval.Long)
	ba, bIsAtom := b.(qval.Long)
	if op != "+" && op != "-" && op != "*" {
		return nil, false
	}
	var f func(x, y int64) int64
	switch op {
	case "+":
		f = func(x, y int64) int64 { return x + y }
	case "-":
		f = func(x, y int64) int64 { return x - y }
	case "*":
		f = func(x, y int64) int64 { return x * y }
	}
	out := make(qval.LongVec, n)
	switch {
	case aIsVec && bIsVec:
		for i := range out {
			if av[i] == qval.NullLong || bv[i] == qval.NullLong {
				out[i] = qval.NullLong
			} else {
				out[i] = f(av[i], bv[i])
			}
		}
	case aIsVec && bIsAtom:
		if int64(ba) == qval.NullLong {
			for i := range out {
				out[i] = qval.NullLong
			}
			return out, true
		}
		for i := range out {
			if av[i] == qval.NullLong {
				out[i] = qval.NullLong
			} else {
				out[i] = f(av[i], int64(ba))
			}
		}
	case aIsAtom && bIsVec:
		if int64(aa) == qval.NullLong {
			for i := range out {
				out[i] = qval.NullLong
			}
			return out, true
		}
		for i := range out {
			if bv[i] == qval.NullLong {
				out[i] = qval.NullLong
			} else {
				out[i] = f(int64(aa), bv[i])
			}
		}
	default:
		return nil, false
	}
	return out, true
}

// compareValues applies a comparison operator elementwise with Q's
// two-valued logic: = on two nulls is true (paper §2.2).
func compareValues(op string, a, b qval.Value) (qval.Value, error) {
	la, lb := a.Len(), b.Len()
	cmp := func(x, y qval.Value) bool {
		switch op {
		case "=":
			return qval.EqualValues(x, y)
		case "<>":
			return !qval.EqualValues(x, y)
		case "<":
			return qval.Compare(x, y) < 0
		case ">":
			return qval.Compare(x, y) > 0
		case "<=":
			return qval.Compare(x, y) <= 0
		case ">=":
			return qval.Compare(x, y) >= 0
		default:
			return false
		}
	}
	if la < 0 && lb < 0 {
		return qval.Bool(cmp(a, b)), nil
	}
	n := la
	if la < 0 {
		n = lb
	}
	if la >= 0 && lb >= 0 && la != lb {
		return nil, qval.Errorf("length")
	}
	out := make(qval.BoolVec, n)
	for i := 0; i < n; i++ {
		out[i] = cmp(qval.Index(a, i), qval.Index(b, i))
	}
	return out, nil
}

// boolOp applies and/or (also & | on booleans) elementwise.
func boolMask(v qval.Value) ([]bool, bool) {
	switch x := v.(type) {
	case qval.Bool:
		return []bool{bool(x)}, true
	case qval.BoolVec:
		return x, true
	default:
		return nil, false
	}
}
