package pgdb

import (
	"math"
	"math/bits"
	"sort"
	"strings"

	"hyperq/internal/pgdb/sqlparse"
)

// Vectorized predicate execution: lowerVecPred compiles a WHERE tree into a
// program of typed kernels that fill a selection bitmap over the column
// vectors, one segment at a time. Only shapes whose evaluation can never
// error are lowered (column-vs-constant comparisons, IS [NOT] NULL,
// BETWEEN over constants, AND/OR/NOT composition, searched CASE), so the
// walker's error surface is preserved exactly: anything else, an IN list
// included, falls back to the row-at-a-time filter.
//
// Soundness of the bitmap encoding: a WHERE keeps a row only when it
// evaluates to TRUE, so NULL and FALSE both map to an unset bit. That
// mapping commutes with AND/OR composition (NULL AND x, NULL OR FALSE are
// never TRUE; NULL OR TRUE is TRUE and the OR of the bitmaps sets the bit)
// — but with NOT only where the operand is never NULL: there the
// complement of its bitmap within the segment is exactly the TRUE set of
// the negation. NOT therefore lowers only over a provably two-valued
// operand (nullCols), such as the `x IS NULL OR x < k` the translator's
// ordered comparisons lower to.
//
// Zone maps prune at the leaves: a comparison kernel skips a whole segment
// when the per-segment min/max bounds prove no row can match, and fills it
// without scanning when they prove every row matches and the segment has no
// nulls. The bounds are compared with compareVals — the same total order
// the walker uses — so pruning is exact by construction.

// segWords is the bitmap words per full segment (segSize is a multiple of
// 64, so each segment owns a word-aligned window of the global bitmap).
const segWords = segSize / 64

// vecPred evaluates one predicate node over a segment, writing the result
// into the segment's (zeroed) bitmap window.
//
// stubSeg is the metadata-only variant for evicted segments: it may use
// only per-vector metadata (kind, null count, zone bounds) and the row
// count. It returns true when that metadata fully decides the window —
// in which case the window holds the result — and false when a per-row
// scan is needed; a false return must leave the window untouched, since
// the caller then faults the segment in and runs evalSeg on the same
// window.
// cols reports every column index the predicate's evalSeg may touch, so the
// scan can fault in exactly those columns of an evicted segment (stubSeg
// needs only metadata and never faults).
type vecPred interface {
	evalSeg(seg *segment, out []uint64)
	stubSeg(seg *segment, out []uint64) bool
	cols(add func(int))
}

// colsOf collects the sorted, de-duplicated set of columns a lowered
// predicate or value kernel reads.
func colsOf(x interface{ cols(add func(int)) }) []int {
	seen := map[int]struct{}{}
	x.cols(func(c int) { seen[c] = struct{}{} })
	return sortedSet(seen)
}

// sortedSet returns the members of a column set in ascending order.
func sortedSet(seen map[int]struct{}) []int {
	out := make([]int, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// --- bitmap helpers ---

func fillOnes(out []uint64, n int) {
	full := n / 64
	for w := 0; w < full; w++ {
		out[w] = ^uint64(0)
	}
	if rem := n % 64; rem > 0 {
		out[full] = (uint64(1) << uint(rem)) - 1
	}
}

// clearNulls unsets bits at the vector's null positions.
func clearNulls(out []uint64, v *colVec) {
	if v.nullCnt == 0 {
		return
	}
	for w := range out {
		out[w] &^= v.nullWord(w)
	}
}

func windowAllZero(out []uint64) bool {
	for _, w := range out {
		if w != 0 {
			return false
		}
	}
	return true
}

// popCount counts set bits in a bitmap.
func popCount(sel []uint64) int {
	n := 0
	for _, w := range sel {
		n += bits.OnesCount64(w)
	}
	return n
}

// --- predicate nodes ---

type vecAnd struct{ l, r vecPred }

func (p *vecAnd) cols(add func(int)) { p.l.cols(add); p.r.cols(add) }

func (p *vecAnd) evalSeg(seg *segment, out []uint64) {
	p.l.evalSeg(seg, out)
	if windowAllZero(out) {
		return
	}
	var tmp [segWords]uint64
	t := tmp[:len(out)]
	p.r.evalSeg(seg, t)
	for w := range out {
		out[w] &= t[w]
	}
}

func (p *vecAnd) stubSeg(seg *segment, out []uint64) bool {
	var lt, rt [segWords]uint64
	l := lt[:len(out)]
	if !p.l.stubSeg(seg, l) {
		return false
	}
	if windowAllZero(l) {
		return true // AND with an empty side: the (zeroed) window is final
	}
	r := rt[:len(out)]
	if !p.r.stubSeg(seg, r) {
		return false
	}
	for w := range out {
		out[w] = l[w] & r[w]
	}
	return true
}

type vecOr struct{ l, r vecPred }

func (p *vecOr) cols(add func(int)) { p.l.cols(add); p.r.cols(add) }

func (p *vecOr) evalSeg(seg *segment, out []uint64) {
	p.l.evalSeg(seg, out)
	var tmp [segWords]uint64
	t := tmp[:len(out)]
	p.r.evalSeg(seg, t)
	for w := range out {
		out[w] |= t[w]
	}
}

func (p *vecOr) stubSeg(seg *segment, out []uint64) bool {
	var lt, rt [segWords]uint64
	l := lt[:len(out)]
	if !p.l.stubSeg(seg, l) {
		return false
	}
	r := rt[:len(out)]
	if !p.r.stubSeg(seg, r) {
		return false
	}
	for w := range out {
		out[w] = l[w] | r[w]
	}
	return true
}

// vecConst is a row-independent predicate: TRUE selects the whole segment,
// FALSE/NULL select nothing. twoValued marks a constant known to be TRUE or
// FALSE, never NULL; only NOT tells FALSE and NULL apart.
type vecConst struct{ all, twoValued bool }

func (p *vecConst) cols(func(int)) {}

func (p *vecConst) evalSeg(seg *segment, out []uint64) {
	if p.all {
		fillOnes(out, seg.n)
	}
}

func (p *vecConst) stubSeg(seg *segment, out []uint64) bool {
	p.evalSeg(seg, out) // row-independent: needs only the row count
	return true
}

// vecNot is NOT over a two-valued operand: the complement of the operand's
// window within the segment's rows.
type vecNot struct{ p vecPred }

func (p *vecNot) cols(add func(int)) { p.p.cols(add) }

func (p *vecNot) evalSeg(seg *segment, out []uint64) {
	p.p.evalSeg(seg, out)
	complementWindow(out, seg.n)
}

func (p *vecNot) stubSeg(seg *segment, out []uint64) bool {
	var tmp [segWords]uint64
	if !p.p.stubSeg(seg, tmp[:len(out)]) {
		return false
	}
	copy(out, tmp[:len(out)])
	complementWindow(out, seg.n)
	return true
}

// complementWindow flips the first n bits of a segment's window.
func complementWindow(out []uint64, n int) {
	var mask [segWords]uint64
	fillOnes(mask[:len(out)], n)
	for w := range out {
		out[w] = mask[w] &^ out[w]
	}
}

// nullCols returns columns such that p is never NULL on a row where none of
// them is NULL; ok is false when no such set is known. An empty set makes p
// two-valued: TRUE or FALSE on every row.
func nullCols(p vecPred) (cols []int, ok bool) {
	switch x := p.(type) {
	case *vecConst:
		return nil, x.all || x.twoValued
	case *vecIsNull, *vecNot:
		return nil, true
	case *vecCmp:
		// compareVals orders any two non-NULL values
		return []int{x.col}, true
	case *vecAnd:
		return binaryNullCols(x.l, x.r, false)
	case *vecOr:
		return binaryNullCols(x.l, x.r, true)
	}
	return nil, false
}

// binaryNullCols joins the sides' nullCols; under OR a column drops out when
// a side is TRUE wherever it is NULL, which makes the OR TRUE there.
func binaryNullCols(l, r vecPred, or bool) ([]int, bool) {
	lc, lok := nullCols(l)
	rc, rok := nullCols(r)
	if !lok || !rok {
		return nil, false
	}
	var cols []int
	for _, c := range append(lc, rc...) {
		if !or || !trueOnNull(l, c) && !trueOnNull(r, c) {
			cols = append(cols, c)
		}
	}
	return cols, true
}

// trueOnNull reports whether p is TRUE on every row where column col is
// NULL.
func trueOnNull(p vecPred, col int) bool {
	switch x := p.(type) {
	case *vecIsNull:
		return !x.not && x.col == col
	case *vecOr:
		return trueOnNull(x.l, col) || trueOnNull(x.r, col)
	}
	return false
}

// vecIsNull lowers col IS [NOT] NULL straight off the null bitmap.
type vecIsNull struct {
	col int
	not bool
}

func (p *vecIsNull) cols(add func(int)) { add(p.col) }

func (p *vecIsNull) evalSeg(seg *segment, out []uint64) {
	v := &seg.vecs[p.col]
	if p.not {
		if v.nullCnt == 0 {
			fillOnes(out, seg.n)
			return
		}
		fillOnes(out, seg.n)
		for w := range out {
			out[w] &^= v.nullWord(w)
		}
		return
	}
	if v.nullCnt == 0 {
		return
	}
	var mask [segWords]uint64
	fillOnes(mask[:len(out)], seg.n)
	for w := range out {
		out[w] = v.nullWord(w) & mask[w]
	}
}

func (p *vecIsNull) stubSeg(seg *segment, out []uint64) bool {
	v := &seg.vecs[p.col]
	if v.nullCnt == 0 {
		if p.not {
			fillOnes(out, seg.n)
		}
		return true
	}
	if v.nullCnt == seg.n {
		if !p.not {
			fillOnes(out, seg.n)
		}
		return true
	}
	return false // mixed: needs the null bitmap
}

// vecColTrue lowers a bare boolean column predicate (WHERE flag): a row is
// kept only when the cell is boolean TRUE — non-bool values reject like the
// walker's `b, ok := v.(bool); ok && b` keep test.
type vecColTrue struct{ col int }

func (p *vecColTrue) cols(add func(int)) { add(p.col) }

func (p *vecColTrue) evalSeg(seg *segment, out []uint64) {
	v := &seg.vecs[p.col]
	switch v.kind {
	case vkBool:
		for i, b := range v.bools[:seg.n] {
			if b {
				out[i>>6] |= 1 << (uint(i) & 63)
			}
		}
		clearNulls(out, v)
	case vkAny:
		for i, cell := range v.anys[:seg.n] {
			if b, ok := cell.(bool); ok && b {
				out[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	// other kinds: no cell is boolean TRUE
}

func (p *vecColTrue) stubSeg(seg *segment, out []uint64) bool {
	v := &seg.vecs[p.col]
	switch v.kind {
	case vkBool:
		if v.nullCnt == seg.n {
			return true
		}
		if mx, ok := v.maxV.(bool); ok && !mx {
			return true // every non-null cell is FALSE
		}
		if mn, ok := v.minV.(bool); ok && mn && v.nullCnt == 0 {
			fillOnes(out, seg.n)
			return true
		}
		return false
	case vkAny:
		return false
	default:
		return true // no cell of this kind is boolean TRUE
	}
}

// vecCmp is a column-vs-constant comparison. The constant is pre-classified
// (numeric via toFloat, or string) so each segment scan runs a typed loop;
// kind/constant combinations that compareVals resolves by type name reduce
// to a constant verdict for the whole vector.
type vecCmp struct {
	col   int
	op    string // "=", "<>", "<", ">", "<=", ">="
	konst any    // non-nil
	test  func(int) bool
	kf    float64 // numeric form (int64/float64/bool constants)
	kfOK  bool
	kNaN  bool
	ks    string // string form
	ksOK  bool
	ktn   string // %T name of the constant, for mixed-type ordering
	// verdict is cmpStrKernel's per-dictionary-entry buffer, reused across
	// segments (a statement evaluates its predicates on one goroutine)
	verdict []bool
}

func (p *vecCmp) cols(add func(int)) { add(p.col) }

func newVecCmp(col int, op string, konst any) *vecCmp {
	p := &vecCmp{col: col, op: op, konst: konst}
	switch op {
	case "=":
		p.test = func(c int) bool { return c == 0 }
	case "<>":
		p.test = func(c int) bool { return c != 0 }
	case "<":
		p.test = func(c int) bool { return c < 0 }
	case ">":
		p.test = func(c int) bool { return c > 0 }
	case "<=":
		p.test = func(c int) bool { return c <= 0 }
	default:
		p.test = func(c int) bool { return c >= 0 }
	}
	if f, ok := toFloat(konst); ok {
		p.kf, p.kfOK = f, true
		p.kNaN = math.IsNaN(f)
	}
	if s, ok := konst.(string); ok {
		p.ks, p.ksOK = s, true
	}
	switch konst.(type) {
	case int64:
		p.ktn = "int64"
	case float64:
		p.ktn = "float64"
	case string:
		p.ktn = "string"
	case bool:
		p.ktn = "bool"
	}
	return p
}

// zoneSkip reports whether the zone bounds prove no non-null row matches;
// zoneAll reports whether they prove every non-null row matches. Both use
// compareVals(min/max, konst), so the verdicts agree with the per-row
// kernels for any value/constant type mix.
func (p *vecCmp) zoneVerdict(v *colVec) (skip, all bool) {
	if v.kind == vkAny || v.minV == nil {
		return false, false
	}
	lo := compareVals(v.minV, p.konst)
	hi := compareVals(v.maxV, p.konst)
	switch p.op {
	case "=":
		return lo > 0 || hi < 0, lo == 0 && hi == 0
	case "<>":
		return lo == 0 && hi == 0, hi < 0 || lo > 0
	case "<":
		return lo >= 0, hi < 0
	case "<=":
		return lo > 0, hi <= 0
	case ">":
		return hi <= 0, lo > 0
	default: // >=
		return hi < 0, lo >= 0
	}
}

// constVerdict fills the window for a comparison whose outcome is the same
// for every non-null row (mixed-type ordering, or NaN constants vs ints).
func (p *vecCmp) constVerdict(v *colVec, seg *segment, out []uint64, c int) {
	if !p.test(c) {
		return
	}
	fillOnes(out, seg.n)
	clearNulls(out, v)
}

func (p *vecCmp) stubSeg(seg *segment, out []uint64) bool {
	v := &seg.vecs[p.col]
	if v.kind == vkEmpty || v.nullCnt == seg.n {
		return true // no non-null values: a comparison is never TRUE
	}
	if skip, all := p.zoneVerdict(v); skip {
		return true
	} else if all && v.nullCnt == 0 {
		fillOnes(out, seg.n)
		return true
	}
	return false
}

func (p *vecCmp) evalSeg(seg *segment, out []uint64) {
	v := &seg.vecs[p.col]
	if v.kind == vkEmpty || v.nullCnt == seg.n {
		return // no non-null values: a comparison is never TRUE
	}
	if skip, all := p.zoneVerdict(v); skip {
		return
	} else if all && v.nullCnt == 0 {
		fillOnes(out, seg.n)
		return
	}
	test := p.test
	switch v.kind {
	case vkInt:
		switch {
		case p.kfOK && p.kNaN:
			p.constVerdict(v, seg, out, -1) // every number < NaN
		case p.kfOK:
			cmpIntKernel(p.op, v.ints[:seg.n], p.kf, out)
			clearNulls(out, v)
		default:
			p.constVerdict(v, seg, out, strings.Compare("int64", p.ktn))
		}
	case vkFloat:
		switch {
		case p.kfOK && p.kNaN:
			// NaN constant (rare): per-row compareVals verdict — NaN equals
			// NaN and exceeds every other value
			for i, f := range v.floats[:seg.n] {
				c := -1
				if math.IsNaN(f) {
					c = 0
				}
				if test(c) {
					out[i>>6] |= 1 << (uint(i) & 63)
				}
			}
			clearNulls(out, v)
		case p.kfOK:
			cmpFloatKernel(p.op, v.floats[:seg.n], p.kf, out)
			clearNulls(out, v)
		default:
			p.constVerdict(v, seg, out, strings.Compare("float64", p.ktn))
		}
	case vkStr:
		if p.ksOK {
			p.verdict = cmpStrKernel(p.op, v.codes[:seg.n], v.dict, p.ks, p.verdict, out)
			clearNulls(out, v)
		} else {
			p.constVerdict(v, seg, out, strings.Compare("string", p.ktn))
		}
	case vkBool:
		if p.kfOK {
			kf, kNaN := p.kf, p.kNaN
			for i, b := range v.bools[:seg.n] {
				f := 0.0
				if b {
					f = 1.0
				}
				var c int
				switch {
				case kNaN:
					c = -1
				case f < kf:
					c = -1
				case f > kf:
					c = 1
				}
				if test(c) {
					out[i>>6] |= 1 << (uint(i) & 63)
				}
			}
			clearNulls(out, v)
		} else {
			p.constVerdict(v, seg, out, strings.Compare("bool", p.ktn))
		}
	case vkAny:
		konst := p.konst
		for i, cell := range v.anys[:seg.n] {
			if cell == nil {
				continue
			}
			if test(compareVals(cell, konst)) {
				out[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
}

// b2u turns a comparison result into a bitmap bit without a data-dependent
// branch: the compiler lowers this pattern to a flag-set instruction, so
// the kernels below stay fast on 50%-selective data where a branchy
// `if cond { set bit }` loop pays a mispredict per row.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// cmpFamily reduces the six comparison operators to three loop bodies plus
// a bitwise complement: "<>" is ^"=", ">=" is ^"<", ">" is ^"<=". The
// complement identities hold for NaN cells too — in compareVals order NaN
// compares greater than every non-NaN value, and the IEEE comparisons
// (f==k, f<k, f<=k with non-NaN k) are all false for a NaN cell, so the
// inverted families (">", ">=", "<>") correctly accept it.
func cmpFamily(op string) (family int, invert bool) {
	switch op {
	case "=":
		return 0, false
	case "<>":
		return 0, true
	case "<":
		return 1, false
	case ">=":
		return 1, true
	case "<=":
		return 2, false
	default: // ">"
		return 2, true
	}
}

// cmpIntKernel sets a bit per int cell whose comparison with the numeric
// constant holds. Cells are compared as float64, exactly like compareVals'
// toFloat path; the constant is known non-NaN here. Each 64-row block
// accumulates its bitmap word in a register — no per-element store and no
// data-dependent branch — then complements and masks the tail for the
// inverted operator families.
func cmpIntKernel(op string, xs []int64, k float64, out []uint64) {
	family, invert := cmpFamily(op)
	n := len(xs)
	for w := 0; w*64 < n; w++ {
		blk := xs[w*64 : min((w+1)*64, n)]
		var bw uint64
		switch family {
		case 0:
			for j, x := range blk {
				bw |= b2u(float64(x) == k) << uint(j)
			}
		case 1:
			for j, x := range blk {
				bw |= b2u(float64(x) < k) << uint(j)
			}
		case 2:
			for j, x := range blk {
				bw |= b2u(float64(x) <= k) << uint(j)
			}
		}
		if invert {
			bw = ^bw
			if len(blk) < 64 {
				bw &= 1<<uint(len(blk)) - 1
			}
		}
		out[w] |= bw
	}
}

// cmpFloatKernel is the float-column twin; see cmpFamily for why the
// complemented families give the right NaN verdicts.
func cmpFloatKernel(op string, fs []float64, k float64, out []uint64) {
	family, invert := cmpFamily(op)
	n := len(fs)
	for w := 0; w*64 < n; w++ {
		blk := fs[w*64 : min((w+1)*64, n)]
		var bw uint64
		switch family {
		case 0:
			for j, f := range blk {
				bw |= b2u(f == k) << uint(j)
			}
		case 1:
			for j, f := range blk {
				bw |= b2u(f < k) << uint(j)
			}
		case 2:
			for j, f := range blk {
				bw |= b2u(f <= k) << uint(j)
			}
		}
		if invert {
			bw = ^bw
			if len(blk) < 64 {
				bw &= 1<<uint(len(blk)) - 1
			}
		}
		out[w] |= bw
	}
}

// cmpStrKernel sets a bit per string cell whose comparison with k holds.
// The comparison runs once per dictionary entry, with Go's native
// operators, which order byte-wise exactly like strings.Compare in
// compareVals, into verdict (the caller's buffer, returned for reuse); each
// row then reads its code's verdict, branch-free. NULL rows' bits are the
// caller's to clear.
func cmpStrKernel(op string, codes []uint16, dict []string, k string, verdict []bool, out []uint64) []bool {
	verdict = grow(verdict, len(dict))
	hits := 0
	for c, s := range dict {
		var ok bool
		switch op {
		case "=":
			ok = s == k
		case "<>":
			ok = s != k
		case "<":
			ok = s < k
		case "<=":
			ok = s <= k
		case ">":
			ok = s > k
		default: // >=
			ok = s >= k
		}
		verdict[c] = ok
		if ok {
			hits++
		}
	}
	n := len(codes)
	switch hits {
	case 0:
		return verdict
	case len(dict):
		fillOnes(out, n)
		return verdict
	}
	for w := 0; w*64 < n; w++ {
		var bw uint64
		for i, c := range codes[w*64 : min((w+1)*64, n)] {
			bw |= b2u(verdict[c]) << uint(i)
		}
		out[w] |= bw
	}
	return verdict
}

// vecCase is a searched CASE whose conditions, results and ELSE all lower.
// Tracking TRUE only is exact here: a row takes the first arm whose
// condition is TRUE — a NULL condition falls through like FALSE — so the
// result is TRUE where some arm's condition is TRUE, no earlier condition
// is, and that arm's result is TRUE, or where no condition is TRUE and the
// ELSE is. Lowered nodes cannot error, so evaluating every arm over the
// whole segment, where the walker evaluates lazily, is unobservable.
type vecCase struct {
	conds, thens []vecPred
	els          vecPred // nil: no ELSE, which is NULL
}

func (p *vecCase) cols(add func(int)) {
	for i := range p.conds {
		p.conds[i].cols(add)
		p.thens[i].cols(add)
	}
	if p.els != nil {
		p.els.cols(add)
	}
}

// fold combines the arms' windows, each filled by eval into a zeroed
// window. It returns false, leaving out untouched, as soon as eval does.
func (p *vecCase) fold(out []uint64, eval func(vecPred, []uint64) bool) bool {
	var tb, cb, vb, rb [segWords]uint64
	n := len(out)
	taken, cw, vw, res := tb[:n], cb[:n], vb[:n], rb[:n]
	for i := range p.conds {
		clear(cw)
		clear(vw)
		if !eval(p.conds[i], cw) || !eval(p.thens[i], vw) {
			return false
		}
		for w := range res {
			res[w] |= cw[w] &^ taken[w] & vw[w]
			taken[w] |= cw[w]
		}
	}
	if p.els != nil {
		clear(vw)
		if !eval(p.els, vw) {
			return false
		}
		for w := range res {
			res[w] |= vw[w] &^ taken[w]
		}
	}
	copy(out, res)
	return true
}

func (p *vecCase) evalSeg(seg *segment, out []uint64) {
	p.fold(out, func(q vecPred, w []uint64) bool { q.evalSeg(seg, w); return true })
}

func (p *vecCase) stubSeg(seg *segment, out []uint64) bool {
	return p.fold(out, func(q vecPred, w []uint64) bool { return q.stubSeg(seg, w) })
}

// lowerCase lowers a searched CASE, folding what the lowering can decide:
// arms whose condition is constant FALSE or NULL never fire, and a constant
// TRUE condition makes its result the ELSE of the arms before it. Then
// constant results fold: a leading `c THEN TRUE` arm makes the CASE
// `c OR <the rest>`, and a `col IS NULL THEN FALSE` arm drops when nothing
// after it can be TRUE on a NULL col. Those are the guards the Hyper-Q
// translator puts in every ordered comparison (q orders NULL lowest), so
// its `x > k` lowers to the same comparison kernel, zone verdicts and
// sorted range as a bare `x > k`, and its `x < k` to `x IS NULL OR x < k`.
func lowerCase(x *sqlparse.CaseExpr, schema []colBinding, st *colStore) (vecPred, bool) {
	c := &vecCase{}
	for _, w := range x.Whens {
		cond, ok := lowerVecPred(w.Cond, schema, st)
		if !ok {
			return nil, false
		}
		then, ok := lowerVecPred(w.Then, schema, st)
		if !ok {
			return nil, false
		}
		c.conds = append(c.conds, cond)
		c.thens = append(c.thens, then)
	}
	if x.Else != nil {
		els, ok := lowerVecPred(x.Else, schema, st)
		if !ok {
			return nil, false
		}
		c.els = els
	}
	// constant conditions
	w := 0
	for i, cond := range c.conds {
		if k, isConst := cond.(*vecConst); isConst {
			if k.all {
				c.els = c.thens[i]
				break
			}
			continue
		}
		c.conds[w], c.thens[w] = cond, c.thens[i]
		w++
	}
	c.conds, c.thens = c.conds[:w], c.thens[:w]
	// constant results, last arm first so each test sees the arms after it
	for i := len(c.conds) - 1; i >= 0; i-- {
		k, isConst := c.thens[i].(*vecConst)
		if !isConst {
			continue
		}
		if k.all && i == 0 {
			// TRUE where the first condition is, else where the rest is
			rest := &vecCase{conds: c.conds[1:], thens: c.thens[1:], els: c.els}
			return &vecOr{l: c.conds[0], r: rest.simplest()}, true
		}
		// only a FALSE guard drops: dropping a NULL one would turn the
		// CASE's NULL into the rest's FALSE, which NOT tells apart
		if isNull, guard := c.conds[i].(*vecIsNull); !k.all && k.twoValued && guard && !isNull.not && c.restRejects(i+1, isNull.col) {
			c.conds = append(c.conds[:i], c.conds[i+1:]...)
			c.thens = append(c.thens[:i], c.thens[i+1:]...)
		}
	}
	return c.simplest(), true
}

// restRejects reports whether arms from on, and the ELSE, are never TRUE
// on a row where column col is NULL.
func (p *vecCase) restRejects(from, col int) bool {
	if p.els != nil && !nullRejects(p.els, col) {
		return false
	}
	for _, then := range p.thens[from:] {
		if !nullRejects(then, col) {
			return false
		}
	}
	return true
}

// simplest is the CASE itself, or its ELSE when no arm is left.
func (p *vecCase) simplest() vecPred {
	switch {
	case len(p.conds) > 0:
		return p
	case p.els != nil:
		return p.els
	default:
		return &vecConst{}
	}
}

// nullRejects reports whether p is never TRUE on a row where column col is
// NULL.
func nullRejects(p vecPred, col int) bool {
	switch x := p.(type) {
	case *vecConst:
		return !x.all
	case *vecCmp:
		return x.col == col
	case *vecColTrue:
		return x.col == col
	case *vecIsNull:
		return x.not && x.col == col
	case *vecAnd:
		return nullRejects(x.l, col) || nullRejects(x.r, col)
	case *vecOr:
		return nullRejects(x.l, col) && nullRejects(x.r, col)
	case *vecCase:
		return x.restRejects(0, col)
	}
	return false
}

// --- lowering ---

// vecConstOf folds an expression with no column reference to its value
// through the walker. One that errors — or that folds outside the engine's
// value domain, which the kernels' type dispatch assumes — refuses to lower.
func vecConstOf(e sqlparse.Expr) (any, bool) {
	if exprHasColRef(e) {
		return nil, false
	}
	v, err := evalExpr(e, nil, nil)
	if err != nil {
		return nil, false
	}
	switch v.(type) {
	case nil, int64, float64, string, bool:
		return v, true
	}
	return nil, false
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case ">":
		return "<"
	case "<=":
		return ">="
	case ">=":
		return "<="
	default: // =, <> are symmetric
		return op
	}
}

// lowerColRef resolves a ColRef against the scan schema, which is
// positionally identical to the store's columns for a base-table scan.
func lowerColRef(e sqlparse.Expr, schema []colBinding, st *colStore) (int, bool) {
	c, ok := e.(*sqlparse.ColRef)
	if !ok {
		return 0, false
	}
	i, err := findCol(schema, c)
	if err != nil || i >= len(st.cols) {
		return 0, false
	}
	return i, true
}

// lowerVecPred lowers a WHERE tree to a bitmap program. ok=false means some
// shape is unsupported (or could error at run time) and the caller must use
// the row-at-a-time filter.
func lowerVecPred(e sqlparse.Expr, schema []colBinding, st *colStore) (vecPred, bool) {
	switch x := e.(type) {
	case *sqlparse.BoolLit:
		return &vecConst{all: x.V, twoValued: true}, true
	case *sqlparse.NullLit:
		return &vecConst{}, true
	case *sqlparse.ColRef:
		if col, ok := lowerColRef(x, schema, st); ok {
			return &vecColTrue{col: col}, true
		}
		return nil, false
	case *sqlparse.IsNullExpr:
		if col, ok := lowerColRef(x.X, schema, st); ok {
			return &vecIsNull{col: col, not: x.Not}, true
		}
		if k, ok := vecConstOf(x.X); ok {
			return &vecConst{all: (k == nil) != x.Not, twoValued: true}, true
		}
		return nil, false
	case *sqlparse.CaseExpr:
		return lowerCase(x, schema, st)
	case *sqlparse.UnaryExpr:
		if x.Op != "NOT" {
			return nil, false
		}
		p, ok := lowerVecPred(x.X, schema, st)
		if !ok {
			return nil, false
		}
		if cols, known := nullCols(p); !known || len(cols) > 0 {
			return nil, false // p can be NULL, which NOT keeps NULL
		}
		return &vecNot{p: p}, true
	case *sqlparse.BetweenExpr:
		col, ok := lowerColRef(x.X, schema, st)
		if !ok {
			return nil, false
		}
		lo, okLo := vecConstOf(x.Lo)
		hi, okHi := vecConstOf(x.Hi)
		if !okLo || !okHi {
			return nil, false
		}
		if lo == nil || hi == nil {
			return &vecConst{}, true // NULL bound: BETWEEN yields NULL
		}
		return &vecAnd{l: newVecCmp(col, ">=", lo), r: newVecCmp(col, "<=", hi)}, true
	case *sqlparse.BinaryExpr:
		switch x.Op {
		case "AND", "OR":
			l, ok := lowerVecPred(x.L, schema, st)
			if !ok {
				return nil, false
			}
			r, ok := lowerVecPred(x.R, schema, st)
			if !ok {
				return nil, false
			}
			if x.Op == "AND" {
				return &vecAnd{l: l, r: r}, true
			}
			return &vecOr{l: l, r: r}, true
		case "=", "<>", "<", ">", "<=", ">=":
			if col, ok := lowerColRef(x.L, schema, st); ok {
				if k, ok := vecConstOf(x.R); ok {
					if k == nil {
						return &vecConst{}, true // comparison with NULL is never TRUE
					}
					return newVecCmp(col, x.Op, k), true
				}
				return nil, false
			}
			if col, ok := lowerColRef(x.R, schema, st); ok {
				if k, ok := vecConstOf(x.L); ok {
					if k == nil {
						return &vecConst{}, true
					}
					return newVecCmp(col, flipOp(x.Op), k), true
				}
			}
			return nil, false
		case "IS NOT DISTINCT FROM", "IS DISTINCT FROM":
			// null-safe equality — the shape the Hyper-Q translator emits for
			// every q equality. The bitmap tracks TRUE rows only, so against a
			// non-NULL constant the NOT variant has exactly the "=" kernel's
			// TRUE set (a NULL cell is FALSE here, NULL there — unset either
			// way), while the plain variant additionally matches NULL cells.
			// The operator is symmetric, so no flip is needed.
			col, ok := lowerColRef(x.L, schema, st)
			ke := x.R
			if !ok {
				if col, ok = lowerColRef(x.R, schema, st); !ok {
					return nil, false
				}
				ke = x.L
			}
			k, ok := vecConstOf(ke)
			if !ok {
				return nil, false
			}
			notDistinct := x.Op == "IS NOT DISTINCT FROM"
			if k == nil {
				return &vecIsNull{col: col, not: !notDistinct}, true
			}
			if notDistinct {
				return newVecCmp(col, "=", k), true
			}
			return &vecOr{l: newVecCmp(col, "<>", k), r: &vecIsNull{col: col}}, true
		}
		return nil, false
	default:
		return nil, false
	}
}
