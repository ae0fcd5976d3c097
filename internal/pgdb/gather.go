package pgdb

import (
	"math/bits"
	"slices"
	"strings"

	"hyperq/internal/pgdb/sqlparse"
)

// Columnar intermediates. Every SELECT block ends in a statement-private
// colStore, and so do a typed hash equi-join and a typed as-of join: the
// operator above runs the vector paths a base-table scan does, the statement
// tail (UNION ALL, ORDER BY, LIMIT) gathers stores, and the PG v3 writer
// walks the top-level one (serve.go). Three shapes exist:
//
//   - a view (viewOf) — the unfiltered projection of a store: segments whose
//     vectors are struct copies of the source's, sharing the data. A view
//     keeps its source's stubs and faults them in through the source, and it
//     records the table store behind it (baseCol), which is how the typed
//     as-of join reaches a table's as-of cache through the translator's
//     pass-through wrappers.
//   - a materialized store (gatherCols) — typed copies of picked rows: the
//     selected rows of a filtered subquery, a join's (left, right) row
//     pairs, or the tail's rows in their sorted, concatenated or clipped
//     order. Only the gathered columns of segments holding a picked row
//     fault in.
//   - a columnized store (columnize) — the walker's boxed rows appended
//     once, as a table's cells are, at the end of the block that produced
//     them.
//
// Private stores are built for one statement and are never written, so
// they carry no access paths: no sorted attributes and no as-of cache. Zone
// maps are the source's (a view), the appended values' (a columnized
// store) or nil (a gather: no verdict). A gathered vector's capacity equals
// its segment's row count — a one-row point lookup must not allocate a
// segment's worth of each column.
// A consumer that still needs rows boxes the store once (rowsView, boxSel).
// A store that may share a table's vectors is marked shared; a top-level
// SELECT copies one (execStmt), since it is read after the statement lock
// is released and INSERT writes the tail segment's vectors in place.

// newPrivateStore returns a statement-private store of n rows over cols,
// its segments allocated with unset vectors for the builder to fill.
func newPrivateStore(cols []Column, n int) *colStore {
	st := &colStore{cols: cols, n: n, private: true}
	for lo := 0; lo < n; lo += segSize {
		st.addSeg(&segment{n: min(segSize, n-lo), vecs: make([]colVec, len(cols))})
	}
	return st
}

// viewOf is the unfiltered projection of st onto cols, named out: it shares
// st's vectors, stubs included, and records the store they come from.
func viewOf(st *colStore, cols []int, out []Column) *colStore {
	v := newPrivateStore(out, st.n)
	v.src, v.srcCols, v.shared = st, cols, st.sharesTable()
	if st.src != nil {
		v.src, v.srcCols = st.src, make([]int, len(cols))
		for k, c := range cols {
			v.srcCols[k] = st.srcCols[c]
		}
	}
	for si := range v.slots {
		from, to := st.peekSeg(si), v.peekSeg(si)
		for k, c := range cols {
			to.vecs[k] = from.vecs[c].clipped()
			to.stub = to.stub || to.vecs[k].stub
		}
	}
	return v
}

// clipped returns v with its data slices' capacity cut to their length: the
// copy shares the data but holds no spare room of the source's, and no
// intern map (only the table's own tail vector appends).
func (v colVec) clipped() colVec {
	v.ints, v.floats = slices.Clip(v.ints), slices.Clip(v.floats)
	v.codes, v.dict, v.intern = slices.Clip(v.codes), slices.Clip(v.dict), nil
	v.bools, v.anys = slices.Clip(v.bools), slices.Clip(v.anys)
	return v
}

// baseCol names the table store and column behind column c: the store
// itself for a table, a view's source for a view over one; nil for a
// materialized private store, whose row ids no table's access path knows.
func (st *colStore) baseCol(c int) (*colStore, int) {
	switch {
	case st.src != nil:
		return st.src.baseCol(st.srcCols[c])
	case st.private:
		return nil, 0
	}
	return st, c
}

// colKind is column c's storage class across every segment, from resident
// metadata only: the typed kind its segments share (all-NULL segments
// aside), vkEmpty when it holds no value, vkAny when segments disagree.
func (st *colStore) colKind(c int) vecKind { return st.colKindIn(c, 0, st.numSegs()) }

// colKindIn is colKind over segments lo to hi-1.
func (st *colStore) colKindIn(c, lo, hi int) vecKind {
	k := vkEmpty
	for si := lo; si < hi; si++ {
		sk := st.peekSeg(si).vecs[c].kind
		if sk == vkEmpty || sk == k {
			continue
		}
		if k != vkEmpty {
			return vkAny
		}
		k = sk
	}
	return k
}

// appendSetBits appends the positions of the bits set in bm, ascending: the
// row ids of a selection bitmap, or the in-segment positions of one
// segment's window of it.
func appendSetBits(pos []int32, bm []uint64) []int32 {
	pos = slices.Grow(pos, popCount(bm))
	for w, word := range bm {
		for ; word != 0; word &= word - 1 {
			pos = append(pos, int32(w*64+bits.TrailingZeros64(word)))
		}
	}
	return pos
}

// gatherCols fills column dst[k] of the private store st with column
// cols[k] of src at the rows ids names, -1 naming a NULL. nil ids take every
// row of src in order (st and src then hold the same row count) and share
// src's vectors instead of copying them.
func (st *colStore) gatherCols(dst []int, src *colStore, cols []int, ids []int32) {
	if len(cols) == 0 {
		return
	}
	if ids == nil {
		st.shared = st.shared || src.sharesTable()
		for si := range st.slots {
			from, to := src.segCols(si, cols), st.peekSeg(si)
			for k, c := range cols {
				to.vecs[dst[k]] = from.vecs[c].clipped()
			}
		}
		return
	}
	// source segments fault in on first use, the gathered columns only
	segs := make([]*segment, src.numSegs())
	segAt := func(si int) *segment {
		if segs[si] == nil {
			segs[si] = src.segCols(si, cols)
		}
		return segs[si]
	}
	for k, c := range cols {
		kind := src.colKind(c)
		lo := 0
		for si := range st.slots {
			to := st.peekSeg(si)
			to.vecs[dst[k]].gather(kind, ids[lo:lo+to.n], c, segAt)
			lo += to.n
		}
	}
}

// fillKernel fills column dst of the private store st, whose rows are the
// rows of src that sel sets (nil: every row), with the values of kernel k
// over src, of kind kind wherever one is non-NULL. Only k's columns of
// segments holding a selected row fault in. A division by zero fails the
// fill, as it fails the row projection.
func (st *colStore) fillKernel(dst int, src *colStore, sel []uint64, k valKernel, kind vecKind) error {
	for si := range st.slots {
		to := st.peekSeg(si)
		v := &to.vecs[dst]
		v.kind = kind
		switch kind {
		case vkInt:
			v.ints = make([]int64, to.n)
		case vkFloat:
			v.floats = make([]float64, to.n)
		default:
			for j := 0; j < to.n; j++ {
				v.markNull(j, to.n)
			}
		}
	}
	lo := 0 // the first selected row's row in st
	return src.selSegs(sel, colsOf(k), nil, func(_ int, seg *segment, pos []int32) error {
		o := k.eval(seg, pos)
		if o.errs != nil {
			return divByZero()
		}
		// the entries land in one or two segments of st
		for j := 0; j < len(pos); {
			to := st.peekSeg((lo + j) / segSize)
			v, off := &to.vecs[dst], (lo+j)%segSize
			run := min(len(pos)-j, to.n-off)
			switch o.kind {
			case vkInt:
				copy(v.ints[off:], o.ints[j:j+run])
			case vkFloat:
				copy(v.floats[off:], o.floats[j:j+run])
			}
			if kind != vkEmpty && o.nullCnt > 0 {
				for m := 0; m < run; m++ {
					if o.isNull(j + m) {
						v.markNull(off+m, to.n)
					}
				}
			}
			j += run
		}
		lo += len(pos)
		return nil
	})
}

// gather fills v, of kind kind, with column c of the source rows ids names
// (-1: NULL); segAt returns a source segment with c resident.
func (v *colVec) gather(kind vecKind, ids []int32, c int, segAt func(int) *segment) {
	n := len(ids)
	v.kind = kind
	switch kind {
	case vkInt:
		v.ints = make([]int64, n)
		gatherRuns(v, v.ints, ids, c, segAt, func(sv *colVec) []int64 { return sv.ints })
	case vkFloat:
		v.floats = make([]float64, n)
		gatherRuns(v, v.floats, ids, c, segAt, func(sv *colVec) []float64 { return sv.floats })
	case vkStr:
		v.gatherStrs(ids, c, segAt)
	case vkBool:
		v.bools = make([]bool, n)
		gatherRuns(v, v.bools, ids, c, segAt, func(sv *colVec) []bool { return sv.bools })
	case vkAny:
		// the source segments' kinds differ: box cell by cell
		v.anys = make([]any, n)
		for j, id := range ids {
			if id < 0 {
				v.markNull(j, n)
			} else if x := segAt(int(id) / segSize).vecs[c].get(int(id) % segSize); x != nil {
				v.anys[j] = x
			} else {
				v.markNull(j, n)
			}
		}
	default: // vkEmpty: the source holds no value
		for j := range ids {
			v.markNull(j, n)
		}
	}
}

// gatherStrs fills the string vector v with column c of the rows ids names
// (-1: NULL). Rows all drawn from one source segment share its dictionary
// and copy their codes. Rows from several intern their strings into v's own
// dictionary row by row.
func (v *colVec) gatherStrs(ids []int32, c int, segAt func(int) *segment) {
	n := len(ids)
	v.codes = make([]uint16, n)
	one := -1 // the one source segment; -2 when rows come from several
	for _, id := range ids {
		if si := int(id) / segSize; id >= 0 && si != one {
			if one != -1 {
				one = -2
				break
			}
			one = si
		}
	}
	if one != -2 {
		if one >= 0 {
			v.dict = slices.Clip(segAt(one).vecs[c].dict)
		}
		gatherRuns(v, v.codes, ids, c, segAt, func(sv *colVec) []uint16 { return sv.codes })
		return
	}
	intern := map[string]uint16{}
	cur := -1
	var sv *colVec
	for j, id := range ids {
		if id < 0 {
			v.markNull(j, n)
			continue
		}
		si, pos := int(id)/segSize, int(id)%segSize
		if si != cur {
			cur, sv = si, &segAt(si).vecs[c]
		}
		if sv.isNull(pos) {
			v.markNull(j, n)
			continue
		}
		s := sv.dict[sv.codes[pos]]
		code, ok := intern[s]
		if !ok {
			code = uint16(len(v.dict))
			v.dict = append(v.dict, s)
			intern[s] = code
		}
		v.codes[j] = code
	}
	v.dict = slices.Clip(v.dict)
}

// gatherRuns copies the typed cells of the rows ids names into dst, the
// data slice of v, and marks their NULLs in v. Every source segment of
// column c is of dst's kind or all NULL (vals then returns nil), and runs of
// consecutive rows within a segment — a range filter's selection, a join's
// left side — copy as one block.
func gatherRuns[T any](v *colVec, dst []T, ids []int32, c int, segAt func(int) *segment, vals func(*colVec) []T) {
	n := len(ids)
	cur := -1
	var sv *colVec
	var src []T
	for j := 0; j < n; {
		id := ids[j]
		if id < 0 {
			v.markNull(j, n)
			j++
			continue
		}
		si, pos := int(id)/segSize, int(id)%segSize
		if si != cur {
			cur, sv = si, &segAt(si).vecs[c]
			src = vals(sv)
		}
		run := 1
		for j+run < n && ids[j+run] == id+int32(run) && pos+run < segSize {
			run++
		}
		if run == 1 {
			if sv.isNull(pos) {
				v.markNull(j, n)
			} else {
				dst[j] = src[pos]
			}
			j++
			continue
		}
		copy(dst[j:j+run], src[min(pos, len(src)):min(pos+run, len(src))])
		if sv.nullCnt > 0 {
			for k := 0; k < run; k++ {
				if sv.isNull(pos + k) {
					v.markNull(j+k, n)
				}
			}
		}
		j += run
	}
}

// markNull sets row j of an n-row vector NULL.
func (v *colVec) markNull(j, n int) {
	if v.nulls == nil {
		v.nulls = make([]uint64, (n+63)/64)
	}
	v.nulls[j>>6] |= 1 << (uint(j) & 63)
	v.nullCnt++
}

// columnize turns boxed rows into a private store through the append path
// tables use (appendVal): each segment's column takes the kind its
// non-NULL cells share, or boxed storage (vkAny) when they differ, and
// keeps a zone map. The walker's results become stores here and nowhere
// else.
func columnize(cols []Column, rows [][]any) *colStore {
	st := newPrivateStore(cols, len(rows))
	for si := range st.slots {
		seg := st.peekSeg(si)
		for j, r := range rows[si*segSize : si*segSize+seg.n] {
			for c, x := range r {
				seg.vecs[c].appendVal(x, j)
			}
		}
	}
	return st
}

// kindOf is the vector kind that stores x typed, vkEmpty for NULL.
func kindOf(x any) vecKind {
	switch x.(type) {
	case nil:
		return vkEmpty
	case int64:
		return vkInt
	case float64:
		return vkFloat
	case string:
		return vkStr
	case bool:
		return vkBool
	}
	return vkAny
}

// gatherAll is the private store of st's rows that ids names, in that order.
func gatherAll(cols []Column, st *colStore, ids []int32) *colStore {
	out := newPrivateStore(cols, len(ids))
	all := seq(0, len(cols))
	out.gatherCols(all, st, all, ids)
	return out
}

// concatStores lines up the UNION ALL of parts, which hold len(cols)
// columns each, for the tail to read by row id: the one part itself (ids
// nil: every row in order), or a scratch store holding every part's
// segments one after another, each part's first at a segment boundary, and
// the ids of their rows in chain order.
func concatStores(cols []Column, parts []*colStore) (st *colStore, ids []int32) {
	if len(parts) == 1 {
		return parts[0], nil
	}
	st = &colStore{cols: cols, private: true}
	ids = []int32{}
	for _, p := range parts {
		base := int32(st.numSegs() * segSize)
		for si := range p.slots {
			st.addSeg(p.seg(si))
		}
		for i := range int32(p.n) {
			ids = append(ids, base+i)
		}
	}
	return st, ids
}

// sortKey is one ORDER BY key: output column col, its direction and where
// its NULLs go.
type sortKey struct {
	col              int
	desc, nullsFirst bool
}

// orderKeys resolves a SELECT's ORDER BY against its output columns; a key
// that names none is refused.
func orderKeys(order []sqlparse.OrderItem, cols []Column) ([]sortKey, error) {
	keys := make([]sortKey, len(order))
	for i, ob := range order {
		c := outputKey(ob.Expr, cols)
		if c < 0 {
			return nil, errf("42P10", "ORDER BY expression must name an output column")
		}
		keys[i] = sortKey{col: c, desc: ob.Desc, nullsFirst: ob.Desc} // PG default: NULLS LAST asc, NULLS FIRST desc
		if ob.NullsFirst != nil {
			keys[i].nullsFirst = *ob.NullsFirst
		}
	}
	return keys, nil
}

// sortedIDs orders the rows of st that ids names (nil: every row, in
// order) under keys and returns their row ids, or ids itself when the rows
// already are in that order: no keys, or a stable sort would leave them as
// they are (a scan over a sorted attribute, or grouped rows keyed by an
// ascending order column, arrive that way).
func (s *Session) sortedIDs(st *colStore, ids []int32, keys []sortKey) ([]int32, error) {
	n := st.n
	if ids != nil {
		n = len(ids)
	}
	if len(keys) == 0 || n < 2 {
		return ids, nil
	}
	if err := s.poll(); err != nil {
		return nil, err
	}
	cmps := make([]func(a, b int) int, len(keys))
	for i, k := range keys {
		cmps[i] = keyCmp(st, ids, n, k)
	}
	cmp := func(a, b int) int {
		for _, c := range cmps {
			if r := c(a, b); r != 0 {
				return r
			}
		}
		return 0
	}
	i := 1
	for i < n && cmp(i-1, i) <= 0 {
		i++
	}
	if i == n {
		return ids, nil
	}
	pos := seq32(n)
	slices.SortStableFunc(pos, func(a, b int32) int { return cmp(int(a), int(b)) })
	if ids != nil {
		for p, q := range pos {
			pos[p] = ids[q]
		}
	}
	return pos, nil
}

// keyCmp compares two of the n rows ids names (nil: every row of st) by
// their positions in ids, on key k, NULL placement and direction included.
// The key's cells extract once into a flat slice and compare as
// compareVals does: a column of numbers (integers, floats, booleans) as
// float64 with NaN equal to itself and above every other value, a column
// of strings by strings.Compare, and any other column cell by cell through
// compareVals.
func keyCmp(st *colStore, ids []int32, n int, k sortKey) func(a, b int) int {
	num, str := true, true
	for si := range st.slots {
		switch st.peekSeg(si).vecs[k.col].kind {
		case vkInt, vkFloat, vkBool:
			str = false
		case vkStr:
			num = false
		case vkAny:
			num, str = false, false
		}
	}
	var nulls []bool
	var fs []float64
	var ss []string
	var as []any
	switch {
	case num:
		fs = make([]float64, n)
	case str:
		ss = make([]string, n)
	default:
		as = make([]any, n)
	}
	si, v := -1, (*colVec)(nil)
	for p := range n {
		id := p
		if ids != nil {
			id = int(ids[p])
		}
		if id/segSize != si {
			si = id / segSize
			v = &st.segCols(si, []int{k.col}).vecs[k.col]
		}
		j := id % segSize
		switch {
		case v.isNull(j):
			if nulls == nil {
				nulls = make([]bool, n)
			}
			nulls[p] = true
		case num && v.kind == vkInt:
			fs[p] = float64(v.ints[j])
		case num && v.kind == vkFloat:
			fs[p] = v.floats[j]
		case num:
			if v.bools[j] {
				fs[p] = 1
			}
		case str:
			ss[p] = v.dict[v.codes[j]]
		default:
			as[p] = v.get(j)
		}
	}
	var cmp func(a, b int) int
	switch {
	case num:
		cmp = func(a, b int) int { return cmpFloatVals(fs[a], fs[b]) }
	case str:
		cmp = func(a, b int) int { return strings.Compare(ss[a], ss[b]) }
	default:
		cmp = func(a, b int) int { return compareVals(as[a], as[b]) }
	}
	return func(a, b int) int {
		if nulls != nil && (nulls[a] || nulls[b]) {
			switch {
			case nulls[a] && nulls[b]:
				return 0
			case nulls[a] == k.nullsFirst:
				return -1
			}
			return 1
		}
		if k.desc {
			return cmp(b, a)
		}
		return cmp(a, b)
	}
}

// kindTypes names the SQL type of a typed vector kind's values.
var kindTypes = [...]string{vkInt: "bigint", vkFloat: "double precision", vkStr: "varchar", vkBool: "boolean", vkAny: ""}

// refineStoreTypes settles a block result's column types from its data: an
// integer column holding a float turns double precision, and an untyped
// column takes the type of its first non-NULL value (varchar when it has
// none). A typed segment's kind says what it holds; only a boxed segment's
// cells are read.
func refineStoreTypes(res *Result) {
	st := res.store
	for i := range res.Cols {
		t := res.Cols[i].Type
		integer := t == "bigint" || t == "integer" || t == "smallint"
		if !integer && t != "" && t != "unknown" {
			continue
		}
		if !integer {
			res.Cols[i].Type = "varchar"
		}
		settles := func(k vecKind) bool { return k == vkFloat || !integer && kindTypes[k] != "" }
		for si := range st.slots {
			seg := st.peekSeg(si)
			k := seg.vecs[i].kind
			if seg.vecs[i].nullCnt == seg.n {
				continue
			}
			if k == vkAny {
				for _, x := range st.segCols(si, []int{i}).vecs[i].anys {
					if k = kindOf(x); settles(k) {
						break
					}
				}
			}
			if settles(k) {
				res.Cols[i].Type = kindTypes[k]
				break
			}
		}
	}
}
