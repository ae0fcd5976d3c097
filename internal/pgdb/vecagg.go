package pgdb

import (
	"math"

	"hyperq/internal/pgdb/sqlparse"
)

// Fused filter+aggregate execution: when every aggregate slot of a grouped
// query folds a column or an expression that lowers to a value kernel
// (kernel.go) of a kind the typed loops cover, and every GROUP BY key is a
// column or lowers to a value kernel, the aggregation folds directly over
// the column vectors and the selection bitmap — filtered rows are never
// materialized, group keys are encoded straight from the vectors or the
// key kernels' outputs, a computed argument evaluates a segment's selected
// rows at once into a typed vector, and the accumulators run typed over
// both. Each group's row is assembled by the walker's evalAggExpr over the
// finished slot values, so output and error behavior are those of
// execGrouped.

type fusedKind uint8

const (
	fStar fusedKind = iota // COUNT(*)
	fCount
	fSum
	fAvg
	fMin
	fMax
	fFirst
	fLast
	fCollect // stddev_pop, var_pop, median: gather the values, then finishFloats
)

var fusedKinds = map[string]fusedKind{
	"count": fCount, "sum": fSum, "avg": fAvg, "min": fMin, "max": fMax, "first": fFirst, "last": fLast,
	"stddev_pop": fCollect, "var_pop": fCollect, "median": fCollect,
}

// fusedSlot is the vectorizable plan of one aggregate slot. Its argument is
// either the storage column col or, when arg is set, the value kernel of a
// computed expression; first/last over an expression (col -1) walk it on
// their one row at finalize, reading the columns reads.
type fusedSlot struct {
	kind  fusedKind
	col   int
	arg   valKernel
	reads []int
}

// planFusedSlots maps every aggregate call to a fused kind over a storage
// column or a computed argument's kernel. Like lowerValue it decides from
// segment metadata, without faulting: count, first and last fuse over a
// column of any kind; sum, avg and the collecting kinds need every segment
// of the argument to hold ints, floats or only NULLs; min and max also need
// one kind across segments. first and last over an expression evaluate it on
// one row, as computeAggregate does, so they fuse over any expression. Any
// other call (an argument that does not lower to a kernel, argument-count
// errors) aborts fusion and the caller falls back to execGrouped, which
// folds every value kind.
func planFusedSlots(calls []*sqlparse.FuncCall, schema []colBinding, st *colStore) ([]fusedSlot, bool) {
	out := make([]fusedSlot, len(calls))
	for i, fc := range calls {
		if fc.Star {
			out[i] = fusedSlot{kind: fStar}
			continue
		}
		kind, ok := fusedKinds[fc.Name]
		if len(fc.Args) != 1 || !ok {
			return nil, false
		}
		if cr, isCol := fc.Args[0].(*sqlparse.ColRef); isCol && (kind == fCount || kind == fFirst || kind == fLast) {
			col, err := findCol(schema, cr)
			if err != nil || col >= len(st.cols) {
				return nil, false
			}
			out[i] = fusedSlot{kind: kind, col: col}
			continue
		}
		if kind == fFirst || kind == fLast {
			seen := map[int]struct{}{}
			addColRefs(fc.Args[0], schema, seen)
			reads := sortedSet(seen)
			if len(reads) > 0 && reads[len(reads)-1] >= len(st.cols) {
				return nil, false
			}
			out[i] = fusedSlot{kind: kind, col: -1, reads: reads}
			continue
		}
		k, ok := lowerValue(fc.Args[0], schema, st)
		if !ok {
			return nil, false
		}
		if kind == fMin || kind == fMax {
			if _, ok := storeKind(k, st); !ok {
				return nil, false
			}
		}
		if kc, isCol := k.(*kCol); isCol {
			out[i] = fusedSlot{kind: kind, col: kc.col} // a bare column folds straight from its vectors
			continue
		}
		out[i] = fusedSlot{kind: kind, arg: k}
	}
	return out, true
}

// slotAcc is the running state of one fused aggregate within one group. The
// typed loops of execGroupedVec replicate finalizeAggregate exactly: sum
// advances isum and fsum together with an all-int flag, avg folds in float,
// min/max keep the incumbent and replace only on strict compareVals
// improvement, a collecting slot gathers its values in row order (in
// vecGroup.collected, which keeps slotAcc within a cache line), and a
// computed argument's first error freezes the slot (surfaced lazily, only
// if the slot is referenced).
type slotAcc struct {
	n        int64 // non-null values folded
	isum     int64
	fsum     float64
	allInt   bool
	bestSet  bool
	bestKind vecKind // vkInt or vkFloat: planFusedSlots admits one kind per min/max slot
	besti    int64
	bestf    float64
	err      error
}

// cmpFloatVals is compareVals restricted to two floats (NaN equals itself
// and sorts above everything).
func cmpFloatVals(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func (a *slotAcc) boxedBest() any {
	if a.bestKind == vkInt {
		return a.besti
	}
	return a.bestf
}

// appendKeyCell appends one group-key cell in keyString's encoding straight
// from the typed vector, so the fused path partitions and orders groups
// identically to the row path without boxing the cell.
func appendKeyCell(buf []byte, v *colVec, i int) []byte {
	if v.isNull(i) {
		return appendKeyVal(buf, nil)
	}
	switch v.kind {
	case vkInt:
		return appendKeyInt(buf, v.ints[i])
	case vkFloat:
		return appendKeyFloat(buf, v.floats[i])
	case vkStr:
		return appendKeyStr(buf, v.dict[v.codes[i]])
	case vkBool:
		return appendKeyBool(buf, v.bools[i])
	default:
		return appendKeyVal(buf, v.anys[i])
	}
}

// repRowCols computes the set of storage columns the group items can read
// from a group's representative row, mirroring evalAggExpr's dispatch
// exactly: aggregate calls read their slot (their arguments never touch the
// representative row), the scalar shapes it recurses into are analyzed
// structurally, and any other subtree evaluates whole against the
// representative row, contributing every column it can read (addColRefs).
func repRowCols(items []sqlparse.SelectItem, schema []colBinding) []int {
	seen := map[int]struct{}{}
	var visit func(e sqlparse.Expr)
	visit = func(e sqlparse.Expr) {
		if e == nil {
			return
		}
		if fc, isAgg := e.(*sqlparse.FuncCall); isAgg && fc.Over == nil && aggregateNames[fc.Name] {
			return // slot lookup: no representative-row access
		}
		if !exprHasAggregate(e) {
			addColRefs(e, schema, seen)
			return
		}
		switch x := e.(type) {
		case *sqlparse.FuncCall:
			for _, a := range x.Args {
				visit(a)
			}
		case *sqlparse.CaseExpr:
			for _, cw := range x.Whens {
				visit(cw.Cond)
				visit(cw.Then)
			}
			visit(x.Else)
		case *sqlparse.IsNullExpr:
			visit(x.X)
		case *sqlparse.BinaryExpr:
			visit(x.L)
			visit(x.R)
		case *sqlparse.CastExpr:
			visit(x.X)
		case *sqlparse.UnaryExpr:
			visit(x.X)
		default:
			addColRefs(e, schema, seen)
		}
	}
	for _, item := range items {
		visit(item.Expr)
	}
	return sortedSet(seen)
}

// vecGroup is one group's fused state: selection bookkeeping for COUNT(*),
// first/last and the representative row, plus one accumulator per slot.
type vecGroup struct {
	firstIdx  int // global row index of the first selected row (-1: none)
	lastIdx   int
	n         int64
	accs      []slotAcc
	collected [][]float64 // by slot, a collecting slot's values; nil without one
}

// execGroupedVec runs the fused filter+aggregate path over the column store.
// ok=false means the query's shape is not fusable and the caller must
// materialize and fall back; err is a genuine execution error.
func (s *Session) execGroupedVec(sel *sqlparse.SelectStmt, rel *relation, selBits []uint64) (*Result, bool, error) {
	st := rel.store
	items, err := expandStars(sel.Items, rel.schema)
	if err != nil {
		return nil, false, err
	}
	calls, index := aggCalls(items)
	fused, ok := planFusedSlots(calls, rel.schema, st)
	if !ok {
		return nil, false, nil
	}
	// a GROUP BY key is a column, read straight from its vector, or an
	// expression that lowers to a value kernel, read from the kernel's
	// output over the segment's selected rows
	keys := make([]groupKey, len(sel.GroupBy))
	for i, ge := range sel.GroupBy {
		if col, ok := lowerColRef(ge, rel.schema, st); ok {
			keys[i].col = col
			continue
		}
		if keys[i].k, ok = lowerValue(ge, rel.schema, st); !ok {
			return nil, false, nil
		}
	}

	// scanCols is the referenced-column set of the fused scan: group keys
	// plus every slot's input columns. COUNT(*) reads no column, and
	// first/last read a single cell at finalize through cellAt, which is
	// already column-granular — so a pruned cold aggregate faults in only
	// these columns of each surviving segment.
	seen := map[int]struct{}{}
	for _, key := range keys {
		if key.k != nil {
			key.k.cols(func(c int) { seen[c] = struct{}{} })
		} else {
			seen[key.col] = struct{}{}
		}
	}
	for i := range fused {
		switch fs := &fused[i]; {
		case fs.arg != nil:
			fs.arg.cols(func(c int) { seen[c] = struct{}{} })
		case fs.kind != fStar && fs.kind != fFirst && fs.kind != fLast:
			seen[fs.col] = struct{}{}
		}
	}
	scanCols := sortedSet(seen)

	collecting := false
	for _, fs := range fused {
		collecting = collecting || fs.kind == fCollect
	}
	newGroup := func(idx int) *vecGroup {
		g := &vecGroup{firstIdx: idx, lastIdx: idx, accs: make([]slotAcc, len(fused))}
		for i := range g.accs {
			g.accs[i].allInt = true
		}
		if collecting {
			g.collected = make([][]float64, len(fused))
		}
		return g
	}
	groups := map[string]*vecGroup{}
	var order []*vecGroup
	global := len(sel.GroupBy) == 0
	if global {
		// a global aggregate over empty input still yields one row
		g := newGroup(-1)
		order = append(order, g)
	}

	// The scan resolves the groups of a block of up to 64 selected rows,
	// then folds slot by slot with the aggregate/vector-kind dispatch
	// hoisted out of the row loop. flushSlot folds the block's values of
	// slot si from v at the indexes idx: a column's in-segment positions, or
	// a computed argument's entries in its kernel output. Per (group, slot)
	// the fold order is unchanged from row-at-a-time: ascending row within a
	// block, blocks ascending. For a sum/avg/min/max slot, a vector of a
	// kind no case names holds only NULLs (planFusedSlots), so it folds
	// nothing.
	var gbuf [64]*vecGroup
	flushSlot := func(fs *fusedSlot, si int, v *colVec, idx []int32) {
		nulls := v.nullCnt > 0
		switch {
		case fs.kind == fCount:
			for k, i := range idx {
				if nulls && v.isNull(int(i)) {
					continue
				}
				acc := &gbuf[k].accs[si]
				if acc.err == nil {
					acc.n++
				}
			}
		case fs.kind == fSum && v.kind == vkInt:
			xs := v.ints
			for k, i := range idx {
				if nulls && v.isNull(int(i)) {
					continue
				}
				acc := &gbuf[k].accs[si]
				if acc.err != nil {
					continue
				}
				x := xs[i]
				acc.isum += x
				acc.fsum += float64(x)
				acc.n++
			}
		case fs.kind == fSum && v.kind == vkFloat:
			flt := v.floats
			for k, i := range idx {
				if nulls && v.isNull(int(i)) {
					continue
				}
				acc := &gbuf[k].accs[si]
				if acc.err != nil {
					continue
				}
				acc.allInt = false
				acc.fsum += flt[i]
				acc.n++
			}
		case fs.kind == fAvg && v.kind == vkInt:
			xs := v.ints
			for k, i := range idx {
				if nulls && v.isNull(int(i)) {
					continue
				}
				acc := &gbuf[k].accs[si]
				if acc.err != nil {
					continue
				}
				acc.fsum += float64(xs[i])
				acc.n++
			}
		case fs.kind == fAvg && v.kind == vkFloat:
			flt := v.floats
			for k, i := range idx {
				if nulls && v.isNull(int(i)) {
					continue
				}
				acc := &gbuf[k].accs[si]
				if acc.err != nil {
					continue
				}
				acc.fsum += flt[i]
				acc.n++
			}
		case (fs.kind == fMin || fs.kind == fMax) && v.kind == vkInt:
			isMin := fs.kind == fMin
			xs := v.ints
			for k, i := range idx {
				if nulls && v.isNull(int(i)) {
					continue
				}
				acc := &gbuf[k].accs[si]
				if acc.err != nil {
					continue
				}
				x := xs[i]
				if !acc.bestSet {
					acc.bestSet, acc.bestKind, acc.besti = true, vkInt, x
					continue
				}
				// float64 compare, replicating compareVals' precision
				xf, bf := float64(x), float64(acc.besti)
				if (isMin && xf < bf) || (!isMin && xf > bf) {
					acc.besti = x
				}
			}
		case (fs.kind == fMin || fs.kind == fMax) && v.kind == vkFloat:
			isMin := fs.kind == fMin
			flt := v.floats
			for k, i := range idx {
				if nulls && v.isNull(int(i)) {
					continue
				}
				acc := &gbuf[k].accs[si]
				if acc.err != nil {
					continue
				}
				f := flt[i]
				if !acc.bestSet {
					acc.bestSet, acc.bestKind, acc.bestf = true, vkFloat, f
					continue
				}
				if c := cmpFloatVals(f, acc.bestf); (isMin && c < 0) || (!isMin && c > 0) {
					acc.bestf = f
				}
			}
		case fs.kind == fCollect && v.kind == vkInt:
			for k, i := range idx {
				if nulls && v.isNull(int(i)) {
					continue
				}
				if g := gbuf[k]; g.accs[si].err == nil {
					g.collected[si] = append(g.collected[si], float64(v.ints[i]))
				}
			}
		case fs.kind == fCollect && v.kind == vkFloat:
			for k, i := range idx {
				if nulls && v.isNull(int(i)) {
					continue
				}
				if g := gbuf[k]; g.accs[si].err == nil {
					g.collected[si] = append(g.collected[si], v.floats[i])
				}
			}
		}
	}
	// args holds each computed argument's kernel output over the current
	// segment's selected rows. An erring entry freezes its group's slot —
	// computeAggregate fails the slot on the group's first failing row — and
	// is NULL, so the fold skips it.
	args := make([]*kvec, len(fused))
	flush := func(seg *segment, blk []int32, ord int) {
		for si := range fused {
			switch fs := &fused[si]; {
			case fs.arg != nil:
				out, ents := args[si], iota32[ord:ord+len(blk)]
				if out.errs != nil {
					for k, j := range ents {
						if acc := &gbuf[k].accs[si]; out.failed(int(j)) && acc.err == nil {
							acc.err = divByZero()
						}
					}
				}
				flushSlot(fs, si, &out.colVec, ents)
			case fs.kind != fStar && fs.kind != fFirst && fs.kind != fLast:
				flushSlot(fs, si, &seg.vecs[fs.col], blk)
			}
		}
	}

	// Single-column keys skip the keyString encoding entirely: the raw typed
	// value indexes a typed map. This partitions identically to keyString —
	// the classes land in disjoint maps exactly like its type tags separate
	// them, every NaN bit pattern collapses into one group as keyString
	// canonicalizes them, and ±0.0 stay distinct because their bit patterns
	// do.
	single := len(keys) == 1 && !global
	var (
		gInt                       map[int64]*vecGroup
		gFlt                       map[uint64]*vecGroup
		gStr                       map[string]*vecGroup
		gNaN, gNull, gTrue, gFalse *vecGroup
	)
	if single {
		gInt = map[int64]*vecGroup{}
		gFlt = map[uint64]*vecGroup{}
		gStr = map[string]*vecGroup{}
	}
	mkGroup := func(gi int) *vecGroup {
		g := newGroup(gi)
		order = append(order, g)
		return g
	}
	var (
		keyBuf  []byte
		keyVecs = make([]*colVec, len(keys)) // the key vectors of the segment being scanned
		base    int                          // the global row index of its first row
		kv      *colVec                      // keyVecs[0], for a single key
		// entryGroups[code] is the group of a single string key's
		// dictionary entry in the segment being scanned (nil: not yet
		// resolved), so the string map is probed once per entry, not once
		// per row. Groups still open in first-appearance order.
		entryGroups []*vecGroup
	)
	// groupGeneric and groupOf take a row's in-segment position i and its
	// selection entry e: a column key's vector is indexed by the one, a
	// kernel's output by the other
	groupGeneric := func(i, e, gi int) *vecGroup {
		keyBuf = keyBuf[:0]
		for j, v := range keyVecs {
			at := i
			if keys[j].k != nil {
				at = e
			}
			keyBuf = appendKeyCell(keyBuf, v, at)
		}
		g, ok := groups[string(keyBuf)]
		if !ok {
			g = newGroup(gi)
			groups[string(keyBuf)] = g
			order = append(order, g)
		}
		return g
	}
	groupTyped := func(val any, i, e, gi int) *vecGroup {
		switch x := val.(type) {
		case int64:
			g := gInt[x]
			if g == nil {
				g = mkGroup(gi)
				gInt[x] = g
			}
			return g
		case float64:
			if math.IsNaN(x) {
				if gNaN == nil {
					gNaN = mkGroup(gi)
				}
				return gNaN
			}
			b := math.Float64bits(x)
			g := gFlt[b]
			if g == nil {
				g = mkGroup(gi)
				gFlt[b] = g
			}
			return g
		case string:
			g := gStr[x]
			if g == nil {
				g = mkGroup(gi)
				gStr[x] = g
			}
			return g
		case bool:
			if x {
				if gTrue == nil {
					gTrue = mkGroup(gi)
				}
				return gTrue
			}
			if gFalse == nil {
				gFalse = mkGroup(gi)
			}
			return gFalse
		default:
			// out-of-domain value: such values only live in boxed
			// vectors, so the generic keyed map needs no unification
			// with the typed maps
			return groupGeneric(i, e, gi)
		}
	}
	groupOf := func(i, e int) *vecGroup {
		gi := base + i
		if global {
			g := order[0]
			if g.firstIdx < 0 {
				g.firstIdx = gi
			}
			return g
		}
		if single {
			if keys[0].k != nil {
				i = e
			}
			if kv.isNull(i) {
				if gNull == nil {
					gNull = mkGroup(gi)
				}
				return gNull
			}
			switch kv.kind {
			case vkInt:
				x := kv.ints[i]
				g := gInt[x]
				if g == nil {
					g = mkGroup(gi)
					gInt[x] = g
				}
				return g
			case vkStr:
				code := kv.codes[i]
				g := entryGroups[code]
				if g == nil {
					s.strProbes++
					str := kv.dict[code]
					if g = gStr[str]; g == nil {
						g = mkGroup(gi)
						gStr[str] = g
					}
					entryGroups[code] = g
				}
				return g
			case vkFloat:
				f := kv.floats[i]
				if math.IsNaN(f) {
					if gNaN == nil {
						gNaN = mkGroup(gi)
					}
					return gNaN
				}
				b := math.Float64bits(f)
				g := gFlt[b]
				if g == nil {
					g = mkGroup(gi)
					gFlt[b] = g
				}
				return g
			case vkBool:
				return groupTyped(kv.bools[i], i, e, gi)
			default: // vkAny: dispatch on the boxed cell's dynamic type
				return groupTyped(kv.anys[i], i, e, gi)
			}
		}
		return groupGeneric(i, e, gi)
	}
	// a segment the selection bitmap fully prunes contributes no rows:
	// selSegs skips it before it faults an evicted segment in
	err = st.selSegs(selBits, scanCols, s.poll, func(segIdx int, seg *segment, pos []int32) error {
		base = segIdx * segSize
		for j, key := range keys {
			if key.k == nil {
				keyVecs[j] = &seg.vecs[key.col]
				continue
			}
			// a key that divides by zero on a selected row fails the
			// statement, as the walker's grouping pass does
			out := key.k.eval(seg, pos)
			if out.errs != nil && !windowAllZero(out.errs) {
				return divByZero()
			}
			keyVecs[j] = &out.colVec
		}
		if single {
			kv = keyVecs[0]
			if kv.kind == vkStr {
				entryGroups = grow(entryGroups, len(kv.dict))
				clear(entryGroups)
			}
		}
		for i := range fused {
			if fs := &fused[i]; fs.arg != nil {
				args[i] = fs.arg.eval(seg, pos)
			}
		}
		// a single string key column reads a resolved entry's group inline;
		// groupOf takes NULLs and an entry's first row
		strKey := single && kv.kind == vkStr && keys[0].k == nil
		for ord := 0; ord < len(pos); ord += 64 {
			blk := pos[ord:min(ord+64, len(pos))]
			for k, i := range blk {
				var g *vecGroup
				if strKey && (kv.nullCnt == 0 || !kv.isNull(int(i))) {
					g = entryGroups[kv.codes[i]]
				}
				if g == nil {
					g = groupOf(int(i), ord+k)
				}
				g.lastIdx = base + int(i)
				g.n++
				gbuf[k] = g
			}
			flush(seg, blk, ord)
		}
		return nil
	})
	if err != nil {
		return nil, true, err
	}

	// finalize every slot; errors stay lazy, surfacing only through slots
	// the items reference
	finalize := func(g *vecGroup) ([]any, []error) {
		vals := make([]any, len(calls))
		errs := make([]error, len(calls))
		for i := range fused {
			fs := &fused[i]
			acc := &g.accs[i]
			if acc.err != nil {
				errs[i] = acc.err
				continue
			}
			switch fs.kind {
			case fStar:
				vals[i] = g.n
			case fCount:
				vals[i] = acc.n
			case fSum:
				switch {
				case acc.n == 0:
				case acc.allInt:
					vals[i] = acc.isum
				default:
					vals[i] = acc.fsum
				}
			case fAvg:
				if acc.n > 0 {
					vals[i] = acc.fsum / float64(acc.n)
				}
			case fMin, fMax:
				if acc.bestSet {
					vals[i] = acc.boxedBest()
				}
			case fFirst, fLast:
				row := g.firstIdx
				if fs.kind == fLast {
					row = g.lastIdx
				}
				switch {
				case row < 0:
				case fs.col >= 0:
					vals[i] = st.cellAt(row, fs.col)
				default:
					vals[i], errs[i] = evalExpr(calls[i].Args[0], rel.schema, st.rowAtCols(row, fs.reads))
				}
			case fCollect:
				vals[i] = finishFloats(calls[i].Name, g.collected[i])
			}
		}
		return vals, errs
	}

	res := s.groupedResult(items, rel.schema, len(order))
	repCols := repRowCols(items, rel.schema)
	for _, g := range order {
		vals, errs := finalize(g)
		var rep []any
		if g.firstIdx >= 0 {
			// only the columns the items actually evaluate against the
			// representative row are materialized
			rep = st.rowAtCols(g.firstIdx, repCols)
		}
		err := res.appendGroup(items, rel.schema, rep, func(fc *sqlparse.FuncCall) (any, error) {
			return vals[index[fc]], errs[index[fc]]
		})
		if err != nil {
			return nil, true, err
		}
	}
	return res, true, nil
}

// groupKey is one GROUP BY key of the fused path: column col, or the value
// kernel k when set.
type groupKey struct {
	col int
	k   valKernel
}

// aggCalls lists the distinct aggregate calls of the items in evaluation
// order, and each call's index in the list.
func aggCalls(items []sqlparse.SelectItem) ([]*sqlparse.FuncCall, map[*sqlparse.FuncCall]int) {
	var calls []*sqlparse.FuncCall
	index := map[*sqlparse.FuncCall]int{}
	for _, item := range items {
		walkExpr(item.Expr, func(x sqlparse.Expr) {
			fc, ok := x.(*sqlparse.FuncCall)
			if !ok || fc.Over != nil || !aggregateNames[fc.Name] {
				return
			}
			if _, dup := index[fc]; !dup {
				index[fc] = len(calls)
				calls = append(calls, fc)
			}
		})
	}
	return calls, index
}
