package pgdb

import (
	"math"
	"strings"

	"hyperq/internal/pgdb/sqlparse"
)

// Value kernels: lowerValue compiles a pure numeric scalar expression — the
// translator's `Ask - Bid`, `NULLIF(Size * Price, 'NaN'::double precision)`,
// `CAST(BidSize - AskSize AS double precision) / (BidSize + AskSize)`, the
// `CASE WHEN <filter> THEN … ELSE NULL END` of a q update and the
// `(b) * FLOOR(CAST(x AS double precision) / (b))` of an xbar — into a tree
// of typed kernels that evaluate one segment's selected rows at a time into
// scratch vectors. The fused aggregation folds the output through its typed
// loops and projectVec boxes or gathers it, so no argument cell is boxed and
// no expression is walked per row.
//
// The kernels compute what arithSQL, castValue and applyScalarFunc compute:
// int∘int stays int64 with Go's wraparound, except `/`, which is
// int64(float64(l)/float64(r)); a float operand promotes the other to
// float64; float `/` and `%` (math.Mod) follow IEEE 754; a NULL operand
// gives NULL. An int `/` or `%` by zero on a row whose operands are both
// non-NULL is that row's 22012 error. It is kept per entry (kvec.errs), so
// the consumer raises it where the walker would: a projection fails, a
// fused aggregate freezes that group's slot. A kernel that a predicate reads
// (vector.go) may not raise at all, since the predicate evaluates every row:
// its lowering declines such a division. Lowering declines every other
// shape, and any column that some segment holds as strings, bools or mixed
// values. That check reads segment metadata only, before anything faults, so
// the kernels never meet a value that is not an int64 or a float64.
//
// Kernels and predicates are one lowering (lowering, in vector.go): a
// comparison or IS NULL of kernels is a predicate, and a searched CASE
// lowers its conditions to predicates for both of its uses (lowerCase).

// valKernel is one lowered expression node.
type valKernel interface {
	// kind is the node's output kind over a segment, read from per-vector
	// metadata only, so it never faults: vkInt, vkFloat, or vkEmpty when
	// every entry is NULL. ok is false when the node cannot evaluate the
	// segment: an operand holds strings, bools or mixed values, or CASE arms
	// differ in kind.
	kind(seg *segment) (k vecKind, ok bool)
	// eval evaluates the node over the rows of seg at the ascending
	// positions pos, with every column it reads resident. Entry j of the
	// output stands for row pos[j]. The output is the node's own scratch (or
	// a child's, or the segment's vector), valid until the node evaluates
	// again, and is never written by the caller.
	eval(seg *segment, pos []int32) *kvec
	cols(add func(int))
}

// kvec is a kernel's output over len(pos) entries: a colVec of kind vkInt,
// vkFloat or vkEmpty (every entry NULL), plus the entries whose evaluation
// raised division by zero, which are NULL as well. Its slices are views onto
// the node's scratch buffers, which grow to the largest selection evaluated
// and are reused across segments.
type kvec struct {
	colVec
	errs []uint64 // nil when no entry raised

	ibuf []int64
	fbuf []float64
	nbuf []uint64
	ebuf []uint64
}

// grow returns s resliced to n elements, reallocated when it is too short;
// the contents are left as they were.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func setBit(bm []uint64, j int) { bm[j>>6] |= 1 << (uint(j) & 63) }

func hasBit(bm []uint64, j int) bool { return bm[j>>6]&(1<<(uint(j)&63)) != 0 }

// reset shapes o as n entries of kind k on its own scratch, with no error
// and no NULL entry — every entry NULL for vkEmpty.
func (o *kvec) reset(k vecKind, n int) {
	o.kind, o.ints, o.floats, o.errs = k, nil, nil, nil
	switch k {
	case vkInt:
		o.ibuf = grow(o.ibuf, n)
		o.ints = o.ibuf
	case vkFloat:
		o.fbuf = grow(o.fbuf, n)
		o.floats = o.fbuf
	}
	o.nbuf = grow(o.nbuf, (n+63)/64)
	clear(o.nbuf)
	o.nulls, o.nullCnt = o.nbuf, 0
	if k == vkEmpty {
		fillOnes(o.nulls, n)
		o.nullCnt = n
	}
}

// inherit makes the NULL and erring entries of the operands NULL and
// erring in o, which must be reset to the same entry count.
func (o *kvec) inherit(xs ...*kvec) {
	for _, x := range xs {
		if x.nullCnt > 0 {
			for w := range o.nulls {
				o.nulls[w] |= x.nullWord(w)
			}
		}
		if x.errs != nil {
			errs := o.errBits()
			for w := range errs {
				errs[w] |= x.errs[w]
			}
		}
	}
	o.nullCnt = popCount(o.nulls)
}

// errBits returns o's error bitmap, allocating it clear on first use.
func (o *kvec) errBits() []uint64 {
	if o.errs == nil {
		o.ebuf = grow(o.ebuf, len(o.nulls))
		clear(o.ebuf)
		o.errs = o.ebuf
	}
	return o.errs
}

// fail marks entry j as raising division by zero; the caller recounts
// nullCnt.
func (o *kvec) fail(j int) {
	setBit(o.errBits(), j)
	setBit(o.nulls, j)
}

func (o *kvec) failed(j int) bool { return o.errs != nil && hasBit(o.errs, j) }

// divByZero is the error of an integer division or modulus by zero.
func divByZero() *Error { return errf("22012", "division by zero") }

// --- nodes ---

// kCol reads a column.
type kCol struct {
	col int
	out kvec
}

func (p *kCol) cols(add func(int)) { add(p.col) }

func (p *kCol) kind(seg *segment) (vecKind, bool) {
	switch k := seg.vecs[p.col].kind; k {
	case vkEmpty, vkInt, vkFloat:
		return k, true
	}
	return 0, false
}

func (p *kCol) eval(seg *segment, pos []int32) *kvec {
	v, o, n := &seg.vecs[p.col], &p.out, len(pos)
	if n == seg.n && v.kind != vkEmpty {
		// every row is selected: the output is the vector itself
		o.colVec, o.errs = colVec{kind: v.kind, ints: v.ints, floats: v.floats, nulls: v.nulls, nullCnt: v.nullCnt}, nil
		return o
	}
	o.reset(v.kind, n)
	switch v.kind {
	case vkInt:
		for j, i := range pos {
			o.ints[j] = v.ints[i]
		}
	case vkFloat:
		for j, i := range pos {
			o.floats[j] = v.floats[i]
		}
	default:
		return o
	}
	if v.nullCnt > 0 {
		for j, i := range pos {
			if v.isNull(int(i)) {
				setBit(o.nulls, j)
			}
		}
		o.nullCnt = popCount(o.nulls)
	}
	return o
}

// kConst is a numeric or NULL constant.
type kConst struct {
	k   vecKind
	i   int64
	f   float64
	out kvec
}

func (p *kConst) cols(func(int)) {}

func (p *kConst) kind(*segment) (vecKind, bool) { return p.k, true }

func (p *kConst) eval(_ *segment, pos []int32) *kvec {
	o := &p.out
	o.reset(p.k, len(pos))
	for j := range o.ints {
		o.ints[j] = p.i
	}
	for j := range o.floats {
		o.floats[j] = p.f
	}
	return o
}

// kArith is a binary arithmetic operator.
type kArith struct {
	op     byte // '+', '-', '*', '/' or '%'
	l, r   valKernel
	lf, rf []float64 // an int operand promoted to float64
	out    kvec
}

func (p *kArith) cols(add func(int)) { p.l.cols(add); p.r.cols(add) }

func (p *kArith) kind(seg *segment) (vecKind, bool) {
	lk, lok := p.l.kind(seg)
	rk, rok := p.r.kind(seg)
	switch {
	case !lok || !rok:
		return 0, false
	case lk == vkEmpty || rk == vkEmpty:
		return vkEmpty, true
	case lk == vkInt && rk == vkInt:
		return vkInt, true
	}
	return vkFloat, true
}

func (p *kArith) eval(seg *segment, pos []int32) *kvec {
	l, r := p.l.eval(seg, pos), p.r.eval(seg, pos)
	o, n := &p.out, len(pos)
	switch {
	case l.kind == vkEmpty || r.kind == vkEmpty:
		o.reset(vkEmpty, n)
		o.inherit(l, r)
	case l.kind == vkInt && r.kind == vkInt:
		o.reset(vkInt, n)
		o.inherit(l, r)
		arithInt(p.op, o, l.ints[:n], r.ints[:n])
	default:
		o.reset(vkFloat, n)
		o.inherit(l, r)
		arithFloat(p.op, o.floats, floatsOf(l, n, &p.lf), floatsOf(r, n, &p.rf))
	}
	return o
}

// arithInt is arithSQL over int64 operands into o, whose NULL entries are
// already set: a `/` or `%` by zero fails each entry it meets that is not
// NULL, since arithSQL never sees a NULL operand.
func arithInt(op byte, o *kvec, ls, rs []int64) {
	out := o.ints[:len(ls)]
	rs = rs[:len(ls)]
	switch op {
	case '+':
		for j, x := range ls {
			out[j] = x + rs[j]
		}
	case '-':
		for j, x := range ls {
			out[j] = x - rs[j]
		}
	case '*':
		for j, x := range ls {
			out[j] = x * rs[j]
		}
	default:
		failed := false
		for j, x := range ls {
			switch y := rs[j]; {
			case y == 0:
				out[j] = 0
				if !o.isNull(j) {
					o.fail(j)
					failed = true
				}
			case op == '/':
				out[j] = int64(float64(x) / float64(y))
			default:
				out[j] = x % y
			}
		}
		if failed {
			o.nullCnt = popCount(o.nulls)
		}
	}
}

// arithFloat is arithSQL over float64 operands.
func arithFloat(op byte, out, ls, rs []float64) {
	out, rs = out[:len(ls)], rs[:len(ls)]
	switch op {
	case '+':
		for j, x := range ls {
			out[j] = x + rs[j]
		}
	case '-':
		for j, x := range ls {
			out[j] = x - rs[j]
		}
	case '*':
		for j, x := range ls {
			out[j] = x * rs[j]
		}
	case '/':
		for j, x := range ls {
			out[j] = x / rs[j]
		}
	default:
		for j, x := range ls {
			out[j] = math.Mod(x, rs[j])
		}
	}
}

// floatsOf returns the first n values of x as float64, converting int
// values into buf.
func floatsOf(x *kvec, n int, buf *[]float64) []float64 {
	if x.kind == vkFloat {
		return x.floats[:n]
	}
	*buf = grow(*buf, n)
	for j, v := range x.ints[:n] {
		(*buf)[j] = float64(v)
	}
	return *buf
}

// kNeg is unary minus.
type kNeg struct {
	x   valKernel
	out kvec
}

func (p *kNeg) cols(add func(int)) { p.x.cols(add) }

func (p *kNeg) kind(seg *segment) (vecKind, bool) { return p.x.kind(seg) }

func (p *kNeg) eval(seg *segment, pos []int32) *kvec {
	x, o := p.x.eval(seg, pos), &p.out
	o.reset(x.kind, len(pos))
	o.inherit(x)
	for j, v := range x.ints[:len(o.ints)] {
		o.ints[j] = -v
	}
	for j, v := range x.floats[:len(o.floats)] {
		o.floats[j] = -v
	}
	return o
}

// kCast is a CAST to an integer, temporal or float type, which castValue
// performs on a number with Go's conversion.
type kCast struct {
	x   valKernel
	to  vecKind // vkInt or vkFloat
	out kvec
}

func (p *kCast) cols(add func(int)) { p.x.cols(add) }

func (p *kCast) kind(seg *segment) (vecKind, bool) {
	if k, ok := p.x.kind(seg); !ok || k == vkEmpty {
		return k, ok
	}
	return p.to, true
}

func (p *kCast) eval(seg *segment, pos []int32) *kvec {
	x := p.x.eval(seg, pos)
	if x.kind == vkEmpty || x.kind == p.to {
		return x
	}
	o := &p.out
	o.reset(p.to, len(pos))
	o.inherit(x)
	for j, f := range x.floats[:len(o.ints)] {
		o.ints[j] = int64(f)
	}
	for j, v := range x.ints[:len(o.floats)] {
		o.floats[j] = float64(v)
	}
	return o
}

// kFloor is FLOOR, which applyScalarFunc computes in float64 whatever the
// operand's kind.
type kFloor struct {
	x   valKernel
	xf  []float64 // an int operand promoted to float64
	out kvec
}

func (p *kFloor) cols(add func(int)) { p.x.cols(add) }

func (p *kFloor) kind(seg *segment) (vecKind, bool) {
	if k, ok := p.x.kind(seg); !ok || k == vkEmpty {
		return k, ok
	}
	return vkFloat, true
}

func (p *kFloor) eval(seg *segment, pos []int32) *kvec {
	x, o, n := p.x.eval(seg, pos), &p.out, len(pos)
	if x.kind == vkEmpty {
		return x
	}
	o.reset(vkFloat, n)
	o.inherit(x)
	for j, f := range floatsOf(x, n, &p.xf) {
		o.floats[j] = math.Floor(f)
	}
	return o
}

// kNullIf is NULLIF(x, k) for a numeric constant k, under applyScalarFunc's
// equalVals: ints compare as float64, and NaN equals NaN and nothing else.
type kNullIf struct {
	x   valKernel
	k   float64
	out kvec
}

func (p *kNullIf) cols(add func(int)) { p.x.cols(add) }

func (p *kNullIf) kind(seg *segment) (vecKind, bool) { return p.x.kind(seg) }

func (p *kNullIf) eval(seg *segment, pos []int32) *kvec {
	x, o, n := p.x.eval(seg, pos), &p.out, len(pos)
	if x.kind == vkEmpty {
		return x
	}
	// the values are x's; only the NULL entries grow
	o.nbuf = grow(o.nbuf, (n+63)/64)
	clear(o.nbuf)
	o.colVec, o.errs = colVec{kind: x.kind, ints: x.ints, floats: x.floats, nulls: o.nbuf}, nil
	o.inherit(x)
	switch {
	case x.kind == vkInt:
		for j, v := range x.ints[:n] {
			if float64(v) == p.k {
				setBit(o.nulls, j)
			}
		}
	case math.IsNaN(p.k):
		for j, f := range x.floats[:n] {
			if math.IsNaN(f) {
				setBit(o.nulls, j)
			}
		}
	default:
		for j, f := range x.floats[:n] {
			if f == p.k {
				setBit(o.nulls, j)
			}
		}
	}
	o.nullCnt = popCount(o.nulls)
	return o
}

// kCase is a numeric searched CASE. Entry j takes the first arm whose
// condition's TRUE window holds row pos[j] — a row where the condition is
// NULL or FALSE falls through, as on the walker, so the NULL window is not
// asked for — and the ELSE (NULL when absent) otherwise. Each arm evaluates
// only over the rows that take it, so an arm's division by zero fails only
// the rows the walker evaluates it on.
type kCase struct {
	conds []vecPred
	arms  []valKernel // arms[i] for conds[i], then the ELSE when present
	taken []uint64    // entries an earlier arm took
	win   []uint64    // a condition's TRUE window
	sub   []int32     // positions of the rows taking the current arm
	at    []int32     // and their entries
	out   kvec
}

func (p *kCase) cols(add func(int)) {
	for _, c := range p.conds {
		c.cols(add)
	}
	for _, a := range p.arms {
		a.cols(add)
	}
}

// kind is the arms' common kind, all-NULL arms aside.
func (p *kCase) kind(seg *segment) (vecKind, bool) {
	k := vkEmpty
	for _, a := range p.arms {
		ak, ok := a.kind(seg)
		if !ok || ak != vkEmpty && k != vkEmpty && ak != k {
			return 0, false
		}
		if ak != vkEmpty {
			k = ak
		}
	}
	return k, true
}

func (p *kCase) eval(seg *segment, pos []int32) *kvec {
	k, _ := p.kind(seg)
	o, n := &p.out, len(pos)
	o.reset(k, n)
	p.taken = grow(p.taken, (n+63)/64)
	clear(p.taken)
	for a, cond := range p.conds {
		w := scratch(&p.win, 1, (seg.n+63)/64)
		cond.evalSeg(seg, w, nil)
		p.sub, p.at = p.sub[:0], p.at[:0]
		for j, i := range pos {
			if hasBit(w, int(i)) && !hasBit(p.taken, j) {
				setBit(p.taken, j)
				p.sub, p.at = append(p.sub, i), append(p.at, int32(j))
			}
		}
		p.scatter(o, p.arms[a], seg)
	}
	p.sub, p.at = p.sub[:0], p.at[:0]
	for j, i := range pos {
		if !hasBit(p.taken, j) {
			p.sub, p.at = append(p.sub, i), append(p.at, int32(j))
		}
	}
	var els valKernel
	if len(p.arms) > len(p.conds) {
		els = p.arms[len(p.conds)]
	}
	p.scatter(o, els, seg)
	o.nullCnt = popCount(o.nulls)
	return o
}

// scatter evaluates arm over the rows p.sub and writes its entries to the
// entries p.at of o; a nil arm is NULL.
func (p *kCase) scatter(o *kvec, arm valKernel, seg *segment) {
	if len(p.sub) == 0 {
		return
	}
	if arm == nil {
		for _, j := range p.at {
			setBit(o.nulls, int(j))
		}
		return
	}
	x := arm.eval(seg, p.sub)
	for m, j := range p.at {
		switch {
		case x.failed(m):
			o.fail(int(j))
		case x.isNull(m):
			setBit(o.nulls, int(j))
		case o.kind == vkInt:
			o.ints[j] = x.ints[m]
		default:
			o.floats[j] = x.floats[m]
		}
	}
}

// --- lowering ---

// lowerValue lowers e to a kernel tree over st's columns. ok=false means a
// shape the kernels do not cover, or a column some segment of st holds as
// strings, bools or mixed values; the caller then takes the row path.
func lowerValue(e sqlparse.Expr, schema []colBinding, st *colStore) (valKernel, bool) {
	return lowering{schema, st}.value(e, true)
}

// value lowers e to a kernel that every segment can evaluate. A kernel a
// predicate reads (fallible false) declines an int `/` or `%` that can
// raise: the predicate evaluates it on rows the walker would never reach.
func (l lowering) value(e sqlparse.Expr, fallible bool) (valKernel, bool) {
	k, ok := l.kernel(e, fallible)
	if !ok || !l.everySeg(func(seg *segment) bool { _, ok := k.kind(seg); return ok }) {
		return nil, false
	}
	return k, true
}

// storeKind is the kind a lowered kernel takes in every segment of st, the
// all-NULL ones aside; ok is false when segments differ.
func storeKind(k valKernel, st *colStore) (vecKind, bool) {
	kind := vkEmpty
	for si := range st.slots {
		sk, _ := k.kind(st.peekSeg(si))
		if sk != vkEmpty && kind != vkEmpty && sk != kind {
			return 0, false
		}
		if sk != vkEmpty {
			kind = sk
		}
	}
	return kind, true
}

// mayRaise reports whether an int `/` or `%` can divide by zero: its divisor
// is neither a constant other than an int zero nor a NULLIF(x, 0), and some
// segment holds both operands as ints.
func (l lowering) mayRaise(k *kArith) bool {
	c, isConst := k.r.(*kConst)
	n, isNullIf := k.r.(*kNullIf)
	if k.op != '/' && k.op != '%' || isConst && (c.k != vkInt || c.i != 0) || isNullIf && n.k == 0 {
		return false
	}
	return !l.everySeg(func(seg *segment) bool { kind, _ := k.kind(seg); return kind != vkInt })
}

func (l lowering) kernel(e sqlparse.Expr, fallible bool) (valKernel, bool) {
	if v, ok := vecConstOf(e); ok {
		switch x := v.(type) {
		case nil:
			return &kConst{k: vkEmpty}, true
		case int64:
			return &kConst{k: vkInt, i: x}, true
		case float64:
			return &kConst{k: vkFloat, f: x}, true
		}
		return nil, false // a string or bool operand
	}
	switch x := e.(type) {
	case *sqlparse.ColRef:
		if col, ok := lowerColRef(x, l.schema, l.st); ok {
			return &kCol{col: col}, true
		}
	case *sqlparse.UnaryExpr:
		if x.Op != "-" {
			return nil, false
		}
		if k, ok := l.kernel(x.X, fallible); ok {
			return &kNeg{x: k}, true
		}
	case *sqlparse.BinaryExpr:
		if len(x.Op) != 1 || !strings.Contains("+-*/%", x.Op) {
			return nil, false
		}
		lk, lok := l.kernel(x.L, fallible)
		rk, rok := l.kernel(x.R, fallible)
		if !lok || !rok {
			return nil, false
		}
		k := &kArith{op: x.Op[0], l: lk, r: rk}
		if !fallible && l.mayRaise(k) {
			return nil, false
		}
		return k, true
	case *sqlparse.CastExpr:
		to := vkFloat
		switch normalizeType(x.Type) {
		case "smallint", "integer", "bigint", "date", "time", "timestamp", "interval":
			to = vkInt
		case "real", "double precision", "numeric":
		default:
			return nil, false
		}
		if k, ok := l.kernel(x.X, fallible); ok {
			return &kCast{x: k, to: to}, true
		}
	case *sqlparse.FuncCall:
		if x.Name == "floor" && len(x.Args) == 1 && x.Over == nil {
			if k, ok := l.kernel(x.Args[0], fallible); ok {
				return &kFloor{x: k}, true
			}
			return nil, false
		}
		if x.Name != "nullif" || len(x.Args) != 2 || x.Over != nil {
			return nil, false
		}
		c, isConst := vecConstOf(x.Args[1])
		k, ok := l.kernel(x.Args[0], fallible)
		if !isConst || !ok {
			return nil, false
		}
		switch c := c.(type) {
		case nil:
			return k, true // NULLIF(x, NULL) is x
		case int64:
			return &kNullIf{x: k, k: float64(c)}, true
		case float64:
			return &kNullIf{x: k, k: c}, true
		}
	case *sqlparse.CaseExpr:
		conds, arms, ok := lowerCase(l, x, func(e sqlparse.Expr) (valKernel, bool) { return l.kernel(e, fallible) })
		switch {
		case !ok:
			return nil, false
		case len(conds) > 0:
			return &kCase{conds: conds, arms: arms}, true
		case len(arms) > 0:
			return arms[0], true // every condition folded away
		}
		return &kConst{k: vkEmpty}, true
	}
	return nil, false
}
