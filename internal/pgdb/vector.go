package pgdb

import (
	"math"
	"math/bits"
	"sort"
	"strings"

	"hyperq/internal/pgdb/sqlparse"
)

// Vectorized predicate execution: lowerVecPred compiles a WHERE tree into a
// program of typed kernels that fills bitmaps over the column vectors, one
// segment at a time. Its leaves compare a column with a constant, compare
// two value kernels (kernel.go), or test a column or a kernel for NULL; AND,
// OR, NOT, BETWEEN over constants, searched CASE and the comparison of two
// predicates compose them. Anything else, an IN list or LIKE included, falls
// back to the row-at-a-time filter.
//
// The two-window encoding: a predicate is three-valued, so it fills two
// windows of a segment, TRUE (the rows where it is TRUE) and NULL (the rows
// where it is NULL). A row in neither is FALSE, and no row is in both. AND,
// OR and NOT are Kleene's tables on the windows, word by word:
//
//	AND: T = Tl & Tr    N = (Tl | Nl) & (Tr | Nr) &^ T
//	OR:  T = Tl | Tr    N = (Nl | Nr) &^ T
//	NOT: T = ^(T | N)   N = N
//
// so NOT lowers over any operand. The TRUE of an AND or an OR reads only
// its operands' TRUE, so a caller that needs TRUE alone passes a nil NULL
// window, and the operands skip their NULL bookkeeping too: a WHERE keeps
// the rows in TRUE &^ NULL, which is TRUE, and a CASE takes an arm where its
// condition is TRUE. A nil NULL window also lets a zone verdict decide an
// evicted segment whose NULL rows are unknown without its null bitmap.
//
// Lowered nodes evaluate every row eagerly where the walker is lazy (AND and
// OR short-circuit, a CASE evaluates the arm it takes), so nothing lowered
// may raise: a kernel with an int `/` or `%` whose divisor can be zero
// declines (mayRaise).
//
// Zone maps prune at the leaves: a comparison kernel skips a whole segment
// when the per-segment min/max bounds prove no row can match, and fills it
// without scanning when they prove every row matches and the segment has no
// nulls. The bounds are compared with compareVals — the same total order
// the walker uses — so pruning is exact by construction.

// segWords is the bitmap words per full segment (segSize is a multiple of
// 64, so each segment owns a word-aligned window of the global bitmap).
const segWords = segSize / 64

// vecPred evaluates one predicate node over a segment into its TRUE window
// t and its NULL window n, both zeroed and one bit per row of the segment;
// n is nil when the caller needs TRUE alone.
//
// stubSeg is the metadata-only variant for evicted segments: it may use
// only per-vector metadata (kind, null count, zone bounds) and the row
// count. It returns true when that metadata fully decides the windows —
// in which case they hold the result — and false when a per-row scan is
// needed; a false return must leave the windows untouched, since the
// caller then faults the segment in and runs evalSeg on the same windows.
// cols reports every column index the predicate's evalSeg may touch, so the
// scan can fault in exactly those columns of an evicted segment (stubSeg
// needs only metadata and never faults).
type vecPred interface {
	evalSeg(seg *segment, t, n []uint64)
	stubSeg(seg *segment, t, n []uint64) bool
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

// nullsOf sets in n, when it is not nil, the NULL rows among the first
// rows of v.
func nullsOf(n []uint64, v *colVec, rows int) {
	if n == nil || v.nullCnt == 0 {
		return
	}
	fillOnes(n, rows)
	for w := range n {
		n[w] &= v.nullWord(w)
	}
}

// complementWindow flips the first n bits of a segment's window.
func complementWindow(out []uint64, n int) {
	var mask [segWords]uint64
	fillOnes(mask[:len(out)], n)
	for w := range out {
		out[w] = mask[w] &^ out[w]
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

// scratch returns m zeroed k-word windows laid end to end in *buf, a node's
// own buffer, reused across segments (a statement evaluates its predicates
// on one goroutine). Windows on the stack would escape to the heap once per
// segment, since they pass through interface calls.
func scratch(buf *[]uint64, m, k int) []uint64 {
	*buf = grow(*buf, m*k)
	clear(*buf)
	return *buf
}

// nullWin is win, or nil when n is: the NULL window of an operand is wanted
// exactly when the node's own is.
func nullWin(win, n []uint64) []uint64 {
	if n == nil {
		return nil
	}
	return win
}

// allRows is the positions of a full segment's rows, the selection over
// which a predicate evaluates its value kernels.
var allRows = func() (pos [segSize]int32) {
	for i := range pos {
		pos[i] = int32(i)
	}
	return pos
}()

// --- composite nodes ---

// A step evaluates a child node into zeroed windows: evalStep over the
// rows, stubStep from metadata, false when the metadata does not decide.
// A composite node runs its children through one step, so its evalSeg and
// stubSeg are one function.
type step func(q vecPred, seg *segment, t, n []uint64) bool

func evalStep(q vecPred, seg *segment, t, n []uint64) bool {
	q.evalSeg(seg, t, n)
	return true
}

func stubStep(q vecPred, seg *segment, t, n []uint64) bool { return q.stubSeg(seg, t, n) }

type vecAnd struct {
	l, r vecPred
	buf  []uint64
}

func (p *vecAnd) cols(add func(int))                       { p.l.cols(add); p.r.cols(add) }
func (p *vecAnd) evalSeg(seg *segment, t, n []uint64)      { p.run(evalStep, seg, t, n) }
func (p *vecAnd) stubSeg(seg *segment, t, n []uint64) bool { return p.run(stubStep, seg, t, n) }

// run decides the AND once either side is FALSE on every row, whatever the
// other side is.
func (p *vecAnd) run(s step, seg *segment, t, n []uint64) bool {
	k := len(t)
	w := scratch(&p.buf, 4, k)
	lt, ln, rt, rn := w[:k], nullWin(w[k:2*k], n), w[2*k:3*k], nullWin(w[3*k:], n)
	lok := s(p.l, seg, lt, ln)
	if lok && windowAllZero(lt) && windowAllZero(ln) {
		return true // FALSE everywhere: the zeroed windows are final
	}
	rok := s(p.r, seg, rt, rn)
	if rok && windowAllZero(rt) && windowAllZero(rn) {
		return true
	}
	if !lok || !rok {
		return false
	}
	for w := range t {
		t[w] = lt[w] & rt[w]
		if n != nil {
			n[w] = (lt[w] | ln[w]) & (rt[w] | rn[w]) &^ t[w]
		}
	}
	return true
}

type vecOr struct {
	l, r vecPred
	buf  []uint64
}

func (p *vecOr) cols(add func(int))                       { p.l.cols(add); p.r.cols(add) }
func (p *vecOr) evalSeg(seg *segment, t, n []uint64)      { p.run(evalStep, seg, t, n) }
func (p *vecOr) stubSeg(seg *segment, t, n []uint64) bool { return p.run(stubStep, seg, t, n) }

func (p *vecOr) run(s step, seg *segment, t, n []uint64) bool {
	k := len(t)
	w := scratch(&p.buf, 4, k)
	lt, ln, rt, rn := w[:k], nullWin(w[k:2*k], n), w[2*k:3*k], nullWin(w[3*k:], n)
	if !s(p.l, seg, lt, ln) || !s(p.r, seg, rt, rn) {
		return false
	}
	for w := range t {
		t[w] = lt[w] | rt[w]
		if n != nil {
			n[w] = (ln[w] | rn[w]) &^ t[w]
		}
	}
	return true
}

// vecNot is NOT: TRUE where the operand is FALSE, NULL where it is NULL.
type vecNot struct {
	p   vecPred
	buf []uint64
}

func (p *vecNot) cols(add func(int))                       { p.p.cols(add) }
func (p *vecNot) evalSeg(seg *segment, t, n []uint64)      { p.run(evalStep, seg, t, n) }
func (p *vecNot) stubSeg(seg *segment, t, n []uint64) bool { return p.run(stubStep, seg, t, n) }

func (p *vecNot) run(s step, seg *segment, t, n []uint64) bool {
	k := len(t)
	w := scratch(&p.buf, 2, k)
	pt, pn := w[:k], w[k:]
	if !s(p.p, seg, pt, pn) {
		return false
	}
	for w := range t {
		t[w] = pt[w] | pn[w]
	}
	complementWindow(t, seg.n)
	copy(n, pn)
	return true
}

// negate is NOT p, which flips an IS [NOT] NULL in place so that sorted
// ranges and zone verdicts still see the leaf.
func negate(p vecPred) vecPred {
	if x, ok := p.(*vecIsNull); ok {
		return &vecIsNull{col: x.col, k: x.k, not: !x.not}
	}
	return &vecNot{p: p}
}

// vecCase is a boolean searched CASE: a row takes the first arm whose
// condition is TRUE there — a NULL condition falls through like FALSE — and
// the last arm, the ELSE, when no condition is. So each condition is asked
// for its TRUE window alone, and an arm's windows count on the rows it
// takes. An arm no row takes is not evaluated.
type vecCase struct {
	conds []vecPred
	arms  []vecPred // arms[i] for conds[i], then the ELSE
	buf   []uint64
}

func (p *vecCase) cols(add func(int)) {
	for _, c := range p.conds {
		c.cols(add)
	}
	for _, a := range p.arms {
		a.cols(add)
	}
}

func (p *vecCase) evalSeg(seg *segment, t, n []uint64)      { p.run(evalStep, seg, t, n) }
func (p *vecCase) stubSeg(seg *segment, t, n []uint64) bool { return p.run(stubStep, seg, t, n) }

func (p *vecCase) run(s step, seg *segment, t, n []uint64) bool {
	k := len(t)
	w := scratch(&p.buf, 6, k)
	taken, c, at, an, rt, rn := w[:k], w[k:2*k], w[2*k:3*k], nullWin(w[3*k:4*k], n), w[4*k:5*k], nullWin(w[5*k:], n)
	for i, arm := range p.arms {
		clear(c)
		if i == len(p.conds) {
			fillOnes(c, seg.n) // the ELSE takes every row left
		} else if !s(p.conds[i], seg, c, nil) {
			return false
		}
		for w := range c {
			c[w] &^= taken[w]
			taken[w] |= c[w]
		}
		if windowAllZero(c) {
			continue
		}
		clear(at)
		clear(an)
		if !s(arm, seg, at, an) {
			return false
		}
		for w := range rt {
			rt[w] |= at[w] & c[w]
			if n != nil {
				rn[w] |= an[w] & c[w]
			}
		}
	}
	copy(t, rt)
	copy(n, rn)
	return true
}

// foldCase builds a boolean CASE from lowerCase's conditions and arms. The
// translator guards every ordered comparison with conditions that are never
// NULL (`x IS NULL`) and constant results (q orders NULL lowest); under
// such a condition c the CASE is exactly `c OR <rest>` when its result is
// TRUE and `<rest> AND NOT c` when FALSE. So the translator's `x > k`
// reaches `x > k AND x IS NOT NULL` and its `x < k` `x IS NULL OR x < k`:
// the comparison leaf, with its zone verdicts and sorted range.
func foldCase(conds, arms []vecPred) vecPred {
	if len(conds) == 0 {
		if len(arms) > 0 {
			return arms[0]
		}
		return &vecConst{null: true} // no ELSE
	}
	c, a, rest := conds[0], arms[0], foldCase(conds[1:], arms[1:])
	if isNull, twoValued := c.(*vecIsNull); twoValued {
		if k, isConst := a.(*vecConst); isConst && k.t {
			return &vecOr{l: c, r: rest}
		} else if isConst && !k.null {
			return andNot(rest, isNull)
		}
	}
	if r, isCase := rest.(*vecCase); isCase {
		return &vecCase{conds: append([]vecPred{c}, r.conds...), arms: append([]vecPred{a}, r.arms...)}
	}
	return &vecCase{conds: []vecPred{c}, arms: []vecPred{a, rest}}
}

// andNot is p AND NOT c, for c an IS [NOT] NULL. When c is `x IS NULL` and
// p compares x with a constant, that is p with x's NULL cells FALSE: one
// leaf, which costs what the bare comparison does.
func andNot(p vecPred, c *vecIsNull) vecPred {
	if x, ok := p.(*vecCmp); ok && c.k == nil && !c.not && x.col == c.col {
		safe := *x
		safe.nullSafe = true
		return &safe
	}
	return &vecAnd{l: p, r: negate(c)}
}

// --- leaves ---

// vecConst is a row-independent predicate: TRUE, NULL, or neither (FALSE).
type vecConst struct{ t, null bool }

func (p *vecConst) cols(func(int)) {}

func (p *vecConst) evalSeg(seg *segment, t, n []uint64) {
	switch {
	case p.t:
		fillOnes(t, seg.n)
	case p.null && n != nil:
		fillOnes(n, seg.n)
	}
}

func (p *vecConst) stubSeg(seg *segment, t, n []uint64) bool {
	p.evalSeg(seg, t, n) // row-independent: needs only the row count
	return true
}

// vecIsNull is col IS [NOT] NULL, straight off the column's null bitmap, or
// k IS [NOT] NULL off a value kernel's when k is set. It is never NULL.
type vecIsNull struct {
	col int
	k   valKernel
	not bool
}

func (p *vecIsNull) cols(add func(int)) {
	if p.k != nil {
		p.k.cols(add)
	} else {
		add(p.col)
	}
}

func (p *vecIsNull) evalSeg(seg *segment, t, _ []uint64) {
	var v *colVec
	if p.k != nil {
		v = &p.k.eval(seg, allRows[:seg.n]).colVec
	} else {
		v = &seg.vecs[p.col]
	}
	nullsOf(t, v, seg.n)
	if p.not {
		complementWindow(t, seg.n)
	}
}

func (p *vecIsNull) stubSeg(seg *segment, t, _ []uint64) bool {
	none, all := false, false
	if p.k == nil {
		v := &seg.vecs[p.col]
		none, all = v.nullCnt == 0, v.nullCnt == seg.n
	} else if k, _ := p.k.kind(seg); k == vkEmpty {
		all = true
	}
	if !none && !all {
		return false // mixed: needs the null bitmap
	}
	if all != p.not {
		fillOnes(t, seg.n)
	}
	return true
}

// vecCmp is a column-vs-constant comparison. The constant is pre-classified
// (numeric via toFloat, or string) so a segment of ints, floats or strings
// scans in a typed loop; the rest — bools, mixed values, a NaN or
// mixed-type constant — compare cell by cell in compareVals order.
type vecCmp struct {
	col      int
	op       string  // "=", "<>", "<", ">", "<=", ">="
	konst    any     // non-nil
	nullSafe bool    // a NULL cell is FALSE, not NULL: `col op konst AND col IS NOT NULL`
	kf       float64 // numeric form of a non-NaN int64 or float64 constant
	kfOK     bool
	ks       string // string form
	ksOK     bool
	// verdict is cmpStrKernel's per-dictionary-entry buffer, reused across
	// segments (a statement evaluates its predicates on one goroutine)
	verdict []bool
}

func (p *vecCmp) cols(add func(int)) { add(p.col) }

func newVecCmp(col int, op string, konst any) *vecCmp {
	p := &vecCmp{col: col, op: op, konst: konst}
	switch k := konst.(type) {
	case int64, float64:
		p.kf, _ = toFloat(k)
		p.kfOK = !math.IsNaN(p.kf)
	case string:
		p.ks, p.ksOK = k, true
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

func (p *vecCmp) stubSeg(seg *segment, t, n []uint64) bool {
	v := &seg.vecs[p.col]
	switch {
	case v.kind == vkEmpty || v.nullCnt == seg.n:
		if n != nil && !p.nullSafe {
			fillOnes(n, seg.n) // no non-null values: NULL on every row
		}
		return true
	case n != nil && v.nullCnt > 0 && !p.nullSafe:
		return false // the NULL rows need the null bitmap
	}
	if skip, all := p.zoneVerdict(v); skip {
		return true
	} else if all && v.nullCnt == 0 {
		fillOnes(t, seg.n)
		return true
	}
	return false
}

// evalSeg fills TRUE where the comparison holds; a NULL cell is NULL. What
// the metadata decides (stubSeg) needs no scan.
func (p *vecCmp) evalSeg(seg *segment, out, n []uint64) {
	if p.stubSeg(seg, out, n) {
		return
	}
	v := &seg.vecs[p.col]
	if !p.nullSafe {
		nullsOf(n, v, seg.n)
	}
	switch {
	case v.kind == vkInt && p.kfOK:
		cmpIntKernel(p.op, v.ints[:seg.n], p.kf, out)
	case v.kind == vkFloat && p.kfOK:
		cmpFloatKernel(p.op, v.floats[:seg.n], p.kf, out)
	case v.kind == vkStr && p.ksOK:
		p.verdict = cmpStrKernel(p.op, v.codes[:seg.n], v.dict, p.ks, p.verdict, out)
	default:
		for i := range seg.n {
			if cell := v.get(i); cell != nil && cmpHolds(p.op, compareVals(cell, p.konst)) {
				out[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	clearNulls(out, v)
}

// cmpHolds reports whether op holds of two values that compareVals orders
// c.
func cmpHolds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case ">":
		return c > 0
	case "<=":
		return c <= 0
	}
	return c >= 0
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

// cmpPairKernel sets a bit per row whose two operands, compared as
// compareVals compares numbers, satisfy op: as float64, with NaN equal to
// NaN and above every other value. The families are NaN-aware, so their
// complements are exact too.
func cmpPairKernel(op string, ls, rs []float64, out []uint64) {
	family, invert := cmpFamily(op)
	n := len(ls)
	for w := 0; w*64 < n; w++ {
		lo, hi := w*64, min((w+1)*64, n)
		blk, rblk := ls[lo:hi], rs[lo:hi]
		var bw uint64
		switch family {
		case 0:
			for j, x := range blk {
				y := rblk[j]
				bw |= b2u(x == y || x != x && y != y) << uint(j)
			}
		case 1:
			for j, x := range blk {
				y := rblk[j]
				bw |= b2u(x < y || y != y && x == x) << uint(j)
			}
		case 2:
			for j, x := range blk {
				y := rblk[j]
				bw |= b2u(x <= y || y != y) << uint(j)
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

// vecCmpK compares two value kernels over a segment's rows: a comparison is
// NULL where either side is, IS [NOT] DISTINCT FROM never is (two NULLs are
// not distinct). Its operands are numeric, so the zone maps, which bound
// columns, do not decide it: an evicted segment faults in.
type vecCmpK struct {
	op     string // a comparison operator, or IS [NOT] DISTINCT FROM
	l, r   valKernel
	lf, rf []float64 // an int operand promoted to float64
}

func (p *vecCmpK) cols(add func(int)) { p.l.cols(add); p.r.cols(add) }

func (p *vecCmpK) stubSeg(*segment, []uint64, []uint64) bool { return false }

func (p *vecCmpK) evalSeg(seg *segment, t, n []uint64) {
	pos := allRows[:seg.n]
	l, r := p.l.eval(seg, pos), p.r.eval(seg, pos)
	op := p.op
	distinct := strings.HasSuffix(op, "DISTINCT FROM")
	if distinct {
		op = "="
	}
	if l.kind != vkEmpty && r.kind != vkEmpty {
		cmpPairKernel(op, floatsOf(l, seg.n, &p.lf), floatsOf(r, seg.n, &p.rf), t)
	}
	for w := range t {
		ln, rn := l.nullWord(w), r.nullWord(w)
		t[w] &^= ln | rn
		switch {
		case distinct:
			t[w] |= ln & rn // equal: both NULL, or neither and equal
		case n != nil:
			n[w] = ln | rn
		}
	}
	if p.op == "IS DISTINCT FROM" {
		complementWindow(t, seg.n)
	}
}

// --- lowering ---

// lowering lowers expressions over the columns of one store: pred to a
// predicate, value to a value kernel (kernel.go).
type lowering struct {
	schema []colBinding
	st     *colStore
}

// everySeg reports whether ok holds of every segment's metadata.
func (l lowering) everySeg(ok func(seg *segment) bool) bool {
	for si := range l.st.slots {
		if !ok(l.st.peekSeg(si)) {
			return false
		}
	}
	return true
}

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
	default: // =, <> and IS [NOT] DISTINCT FROM are symmetric
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
	return lowering{schema, st}.pred(e)
}

func (l lowering) pred(e sqlparse.Expr) (vecPred, bool) {
	switch x := e.(type) {
	case *sqlparse.BoolLit:
		return &vecConst{t: x.V}, true
	case *sqlparse.NullLit:
		return &vecConst{null: true}, true
	case *sqlparse.ColRef:
		// a boolean column is `col = TRUE`; only one that every segment
		// holds as bools or NULLs, since NOT raises on any other value
		col, ok := lowerColRef(x, l.schema, l.st)
		if ok && l.everySeg(func(seg *segment) bool { k := seg.vecs[col].kind; return k == vkBool || k == vkEmpty }) {
			return newVecCmp(col, "=", true), true
		}
	case *sqlparse.IsNullExpr:
		if col, ok := lowerColRef(x.X, l.schema, l.st); ok {
			return &vecIsNull{col: col, not: x.Not}, true
		}
		if k, ok := vecConstOf(x.X); ok {
			return &vecConst{t: (k == nil) != x.Not}, true
		}
		if k, ok := l.value(x.X, false); ok {
			return &vecIsNull{k: k, not: x.Not}, true
		}
	case *sqlparse.CaseExpr:
		if conds, arms, ok := lowerCase(l, x, l.pred); ok {
			return foldCase(conds, arms), true
		}
	case *sqlparse.UnaryExpr:
		if x.Op != "NOT" {
			return nil, false
		}
		if p, ok := l.pred(x.X); ok {
			return negate(p), true
		}
	case *sqlparse.BetweenExpr:
		col, ok := lowerColRef(x.X, l.schema, l.st)
		lo, okLo := vecConstOf(x.Lo)
		hi, okHi := vecConstOf(x.Hi)
		switch {
		case !ok || !okLo || !okHi:
			return nil, false
		case lo == nil || hi == nil:
			return &vecConst{null: true}, true // NULL bound: BETWEEN yields NULL
		}
		return &vecAnd{l: newVecCmp(col, ">=", lo), r: newVecCmp(col, "<=", hi)}, true
	case *sqlparse.BinaryExpr:
		switch x.Op {
		case "AND", "OR":
			lp, ok := l.pred(x.L)
			if !ok {
				return nil, false
			}
			rp, ok := l.pred(x.R)
			if !ok {
				return nil, false
			}
			if x.Op == "AND" {
				return &vecAnd{l: lp, r: rp}, true
			}
			return &vecOr{l: lp, r: rp}, true
		case "=", "<>", "<", ">", "<=", ">=", "IS NOT DISTINCT FROM", "IS DISTINCT FROM":
			return l.cmp(x)
		}
	}
	return nil, false
}

// cmp lowers a comparison or IS [NOT] DISTINCT FROM: a column against a
// constant to the leaf that zone maps and sorted ranges answer, two numbers
// to a comparison of value kernels, two booleans to AND, OR and NOT.
func (l lowering) cmp(x *sqlparse.BinaryExpr) (vecPred, bool) {
	if col, ok := lowerColRef(x.L, l.schema, l.st); ok {
		if k, ok := vecConstOf(x.R); ok {
			return cmpLeaf(col, x.Op, k), true
		}
	}
	if col, ok := lowerColRef(x.R, l.schema, l.st); ok {
		if k, ok := vecConstOf(x.L); ok {
			return cmpLeaf(col, flipOp(x.Op), k), true
		}
	}
	lk, lok := l.value(x.L, false)
	rk, rok := l.value(x.R, false)
	if lok && rok {
		return &vecCmpK{op: x.Op, l: lk, r: rk}, true
	}
	// two booleans, as in q mod's sign test: p <> q is exactly
	// (p AND NOT q) OR (q AND NOT p) under Kleene logic, and = its negation
	p, pok := l.pred(x.L)
	q, qok := l.pred(x.R)
	if !pok || !qok || x.Op != "=" && x.Op != "<>" {
		return nil, false
	}
	ne := &vecOr{l: &vecAnd{l: p, r: negate(q)}, r: &vecAnd{l: q, r: negate(p)}}
	if x.Op == "=" {
		return negate(ne), true
	}
	return ne, true
}

// cmpLeaf is `col op k` over the comparison leaf. The translator writes
// every q equality as IS NOT DISTINCT FROM, which is the leaf's `=` where
// the cell is not NULL and FALSE where it is.
func cmpLeaf(col int, op string, k any) vecPred {
	switch {
	case op == "IS NOT DISTINCT FROM" && k == nil:
		return &vecIsNull{col: col}
	case op == "IS DISTINCT FROM" && k == nil:
		return &vecIsNull{col: col, not: true}
	case op == "IS NOT DISTINCT FROM":
		return andNot(newVecCmp(col, "=", k), &vecIsNull{col: col})
	case op == "IS DISTINCT FROM":
		return &vecOr{l: newVecCmp(col, "<>", k), r: &vecIsNull{col: col}}
	case k == nil:
		return &vecConst{null: true} // a comparison with NULL is NULL
	}
	return newVecCmp(col, op, k)
}

// lowerCase lowers a searched CASE for both of its uses: the conditions to
// predicates, of which a row takes the first that is TRUE there, and the
// results through arm — predicates in a boolean CASE (foldCase), value
// kernels in a numeric one (kCase). A constant condition folds: FALSE or
// NULL never takes its arm, and TRUE makes its result the ELSE. arms holds
// one result per condition, then the ELSE when there is one.
func lowerCase[A any](l lowering, x *sqlparse.CaseExpr, arm func(sqlparse.Expr) (A, bool)) (conds []vecPred, arms []A, ok bool) {
	els := x.Else
	for _, w := range x.Whens {
		c, ok := l.pred(w.Cond)
		if !ok {
			return nil, nil, false
		}
		if k, isConst := c.(*vecConst); isConst {
			if k.t {
				els = w.Then
				break
			}
			continue
		}
		a, ok := arm(w.Then)
		if !ok {
			return nil, nil, false
		}
		conds, arms = append(conds, c), append(arms, a)
	}
	if els != nil {
		a, ok := arm(els)
		if !ok {
			return nil, nil, false
		}
		arms = append(arms, a)
	}
	return conds, arms, true
}
