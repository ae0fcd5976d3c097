package pgdb

import (
	"sort"

	"hyperq/internal/pgdb/sqlparse"
)

// This file implements a top-1-per-partition pushdown: the query shape
// Hyper-Q emits for Q's as-of join —
//
//	SELECT cols FROM (
//	    SELECT ..., ROW_NUMBER() OVER (PARTITION BY l.id ORDER BY r.t DESC) AS hq_rn
//	    FROM (left) a LEFT JOIN (right) b
//	      ON a.k IS NOT DISTINCT FROM b.k AND b.t <= a.t
//	) sub WHERE hq_rn = 1
//
// — would otherwise materialize every (trade, earlier-quote) pair before the
// window discards all but the latest. Production MPP optimizers (e.g. Orca,
// the Greenplum optimizer built by the Hyper-Q authors) recognize such
// rank-filter patterns and fuse them into the join; this engine does the
// same, turning the quadratic intermediate into a per-key sort plus binary
// search. The fusion is only taken where its result is the naive plan's:
// the partition column must be a left column that is non-NULL and distinct
// over the left input (one partition per left row), and the window must
// order by the bound's right time column; anything else runs the generic
// plan.

// asOfPattern captures a recognized rank-filter join.
type asOfPattern struct {
	inner    *sqlparse.SelectStmt
	join     *sqlparse.JoinRef
	alias    string // the rank-filtered subquery's alias
	rnAlias  string
	part     *sqlparse.ColRef   // the window's PARTITION BY column
	order    *sqlparse.ColRef   // the window's ORDER BY ... DESC column
	eqL, eqR []*sqlparse.ColRef // equality key columns (left, right)
	eqSafe   []bool             // per equality: IS NOT DISTINCT FROM, not =
	timeL    *sqlparse.ColRef   // bound columns: right.time <= left.time
	timeR    *sqlparse.ColRef
}

// matchAsOfPattern inspects an outer select for the fused shape. It returns
// nil when the query does not match (the generic pipeline then runs).
func matchAsOfPattern(sel *sqlparse.SelectStmt) *asOfPattern {
	// outer: single subquery source, WHERE <rn> = 1
	if sel.Where == nil {
		return nil
	}
	sub, ok := sel.From.(*sqlparse.SubqueryRef)
	if !ok {
		return nil
	}
	w, ok := sel.Where.(*sqlparse.BinaryExpr)
	if !ok || w.Op != "=" {
		return nil
	}
	rnRef, ok := w.L.(*sqlparse.ColRef)
	if !ok {
		return nil
	}
	one, ok := w.R.(*sqlparse.NumberLit)
	if !ok || one.Text != "1" {
		return nil
	}
	inner := sub.Query
	if len(inner.GroupBy) != 0 || inner.Union != nil ||
		len(inner.OrderBy) != 0 || inner.Limit != nil || inner.Where != nil {
		return nil
	}
	join, ok := inner.From.(*sqlparse.JoinRef)
	if !ok || join.Type != sqlparse.LeftJoin {
		return nil
	}
	p := &asOfPattern{inner: inner, join: join, alias: sub.Alias, rnAlias: rnRef.Name}
	// exactly one window item: ROW_NUMBER() OVER (PARTITION BY col ORDER BY col DESC) AS rn
	for _, item := range inner.Items {
		fc, isFn := item.Expr.(*sqlparse.FuncCall)
		if !isFn || fc.Over == nil {
			continue
		}
		if p.part != nil {
			return nil // more than one window function: bail
		}
		if fc.Name != "row_number" || item.Alias != rnRef.Name {
			return nil
		}
		if len(fc.Over.PartitionBy) != 1 || len(fc.Over.OrderBy) != 1 || !fc.Over.OrderBy[0].Desc {
			return nil
		}
		part, pok := fc.Over.PartitionBy[0].(*sqlparse.ColRef)
		order, ook := fc.Over.OrderBy[0].Expr.(*sqlparse.ColRef)
		if !pok || !ook {
			return nil
		}
		p.part, p.order = part, order
	}
	if p.part == nil {
		return nil
	}
	// decompose the ON clause: equalities + one <= bound
	var conj []sqlparse.Expr
	var flatten func(e sqlparse.Expr)
	flatten = func(e sqlparse.Expr) {
		if b, isBin := e.(*sqlparse.BinaryExpr); isBin && b.Op == "AND" {
			flatten(b.L)
			flatten(b.R)
			return
		}
		conj = append(conj, e)
	}
	flatten(join.On)
	for _, c := range conj {
		b, isBin := c.(*sqlparse.BinaryExpr)
		if !isBin {
			return nil
		}
		lc, lok := b.L.(*sqlparse.ColRef)
		rc, rok := b.R.(*sqlparse.ColRef)
		if !lok || !rok {
			return nil
		}
		switch b.Op {
		case "IS NOT DISTINCT FROM", "=":
			p.eqL = append(p.eqL, lc)
			p.eqR = append(p.eqR, rc)
			p.eqSafe = append(p.eqSafe, b.Op != "=")
		case "<=":
			if p.timeR != nil {
				return nil
			}
			p.timeR, p.timeL = lc, rc // b.t <= a.t
		default:
			return nil
		}
	}
	if p.timeR == nil {
		return nil
	}
	return p
}

// execAsOfFused executes the fused plan, producing the relation the inner
// subquery + rn=1 filter would: one output row per left row, joined to the
// latest right row with matching keys and time at or before the left time.
// ok=false means the data or the column references do not satisfy the
// fusion's conditions and the caller must run the generic plan, which also
// reports any resolution error the way it always does.
func (s *Session) execAsOfFused(p *asOfPattern) (rel *relation, ok bool, err error) {
	left, err := s.buildRef(p.join.Left)
	if err != nil {
		return nil, false, err
	}
	right, err := s.buildRef(p.join.Right)
	if err != nil {
		return nil, false, err
	}
	lKeys := make([]int, len(p.eqL))
	rKeys := make([]int, len(p.eqR))
	for i := range p.eqL {
		li, lerr := findCol(left.schema, p.eqL[i])
		ri, rerr := findCol(right.schema, p.eqR[i])
		if lerr != nil || rerr != nil {
			// reversed sides in the equality
			li, lerr = findCol(left.schema, p.eqR[i])
			ri, rerr = findCol(right.schema, p.eqL[i])
			if lerr != nil || rerr != nil {
				return nil, false, nil
			}
		}
		lKeys[i], rKeys[i] = li, ri
	}
	lt, lerr := findCol(left.schema, p.timeL)
	rt, rerr := findCol(right.schema, p.timeR)
	pc, perr := findCol(left.schema, p.part)
	oc, oerr := findCol(right.schema, p.order)
	if lerr != nil || rerr != nil || perr != nil || oerr != nil || oc != rt {
		return nil, false, nil
	}
	if !distinctNonNull(left, pc) {
		return nil, false, nil
	}
	joined := append(append([]colBinding{}, left.schema...), right.schema...)
	items, err := expandStars(p.inner.Items, joined)
	if err != nil {
		return nil, false, err
	}
	schema := make([]colBinding, len(items))
	for i, item := range items {
		typ := s.inferType(item.Expr, joined)
		if isWindowCall(item.Expr) {
			typ = "bigint"
		}
		schema[i] = colBinding{table: p.alias, name: itemName(item, joined), typ: typ}
	}
	if len(lKeys) == 1 {
		rel, err = s.asofVec(left, right, lKeys[0], rKeys[0], lt, rt, p.eqSafe[0], items, joined, schema)
		if rel != nil || err != nil {
			return rel, err == nil, err
		}
	}
	rel, err = s.asofRows(left, right, lKeys, rKeys, p.eqSafe, lt, rt, items, joined, schema)
	return rel, err == nil, err
}

// isWindowCall reports whether an inner item is the window (rank) call.
func isWindowCall(e sqlparse.Expr) bool {
	fc, isFn := e.(*sqlparse.FuncCall)
	return isFn && fc.Over != nil
}

// distinctNonNull reports whether column c of rel is non-NULL and distinct on
// every row under keyString equality, the way ROW_NUMBER partitions: then
// each left row is its own as-of partition. A strictly increasing integer
// column, as the translator's ordcol is, passes in one pass without a set.
func distinctNonNull(rel *relation, c int) bool {
	seen := map[string]struct{}{}
	var buf []byte
	fresh := func() bool {
		if _, dup := seen[string(buf)]; dup {
			return false
		}
		seen[string(buf)] = struct{}{}
		return true
	}
	st := rel.store
	if st == nil {
		for _, row := range rel.rows {
			if row[c] == nil {
				return false
			}
			if buf = appendKeyVal(buf[:0], row[c]); !fresh() {
				return false
			}
		}
		return true
	}
	if increasingInts(st, c) {
		return true
	}
	for si := 0; si < st.numSegs(); si++ {
		seg := st.segCols(si, []int{c})
		v := &seg.vecs[c]
		if v.nullCnt > 0 {
			return false
		}
		for i := 0; i < seg.n; i++ {
			if buf = appendKeyCell(buf[:0], v, i); !fresh() {
				return false
			}
		}
	}
	return true
}

// increasingInts reports whether column c of st holds integers only, none
// NULL, in strictly increasing order.
func increasingInts(st *colStore, c int) bool {
	first, prev := true, int64(0)
	for si := 0; si < st.numSegs(); si++ {
		seg := st.segCols(si, []int{c})
		v := &seg.vecs[c]
		if v.nullCnt > 0 || v.kind != vkInt {
			return false
		}
		for _, x := range v.ints[:seg.n] {
			if !first && x <= prev {
				return false
			}
			first, prev = false, x
		}
	}
	return true
}

// asofVec is the typed fused plan: one string key, integer times, both
// sides columnar and every inner item a bare column or the rank. The build
// side comes from asofIndexFor, the left key and time vectors are probed in
// row order, and the inner select list is gathered into a private store —
// left columns shared, right columns picked by match, the rank a constant 1.
// A nil relation (and no error) declines the shape.
func (s *Session) asofVec(left, right *relation, lk, rk, lt, rt int, nullSafe bool,
	items []sqlparse.SelectItem, joined, schema []colBinding) (*relation, error) {
	if s.interpretedMode() || left.store == nil || right.store == nil {
		return nil, nil
	}
	ls, rs := left.store, right.store
	strKey := func(k vecKind) bool { return k == vkStr || k == vkEmpty }
	intTime := func(k vecKind) bool { return k == vkInt || k == vkEmpty }
	if !strKey(ls.colKind(lk)) || !strKey(rs.colKind(rk)) || !intTime(ls.colKind(lt)) || !intTime(rs.colKind(rt)) {
		return nil, nil
	}
	src := make([]int, len(items)) // joined column behind each item; -1: the rank
	for i, item := range items {
		if isWindowCall(item.Expr) {
			src[i] = -1
			continue
		}
		cr, isCol := item.Expr.(*sqlparse.ColRef)
		if !isCol {
			return nil, nil
		}
		c, err := findCol(joined, cr)
		if err != nil {
			return nil, nil
		}
		src[i] = c
	}
	ix := asofIndexFor(rs, rk, rt)
	match := make([]int32, 0, ls.n)
	// entries[code] is the bucket of a left key dictionary entry (noBucket:
	// none), probed on the entry's first row in the segment
	var entries []*asofBucket
	for si := 0; si < ls.numSegs(); si++ {
		seg := ls.segCols(si, []int{lk, lt})
		kv, tv := &seg.vecs[lk], &seg.vecs[lt]
		entries = grow(entries, len(kv.dict))
		clear(entries)
		for i := 0; i < seg.n; i++ {
			if err := s.tick(); err != nil {
				return nil, err
			}
			m := int32(-1)
			if !tv.isNull(i) {
				var b *asofBucket
				switch {
				case !kv.isNull(i):
					c := kv.codes[i]
					if b = entries[c]; b == nil {
						if b = ix.byKey[kv.dict[c]]; b == nil {
							b = noBucket
						}
						entries[c] = b
					}
				case nullSafe:
					b = ix.nulls
				}
				if b != nil {
					m = b.latest(tv.ints[i])
				}
			}
			match = append(match, m)
		}
	}
	out := newPrivateStore(bindingCols(schema), ls.n)
	var lDst, lSrc, rDst, rSrc []int
	for k, c := range src {
		switch {
		case c < 0:
			for si := range out.slots {
				seg := out.peekSeg(si)
				ones := make([]int64, seg.n)
				for i := range ones {
					ones[i] = 1
				}
				seg.vecs[k] = colVec{kind: vkInt, ints: ones}
			}
		case c < len(left.schema):
			lDst, lSrc = append(lDst, k), append(lSrc, c)
		default:
			rDst, rSrc = append(rDst, k), append(rSrc, c-len(left.schema))
		}
	}
	out.gatherCols(lDst, ls, lSrc, nil)
	out.gatherCols(rDst, rs, rSrc, match)
	return &relation{schema: schema, store: out}, nil
}

// noBucket stands for a key the build side does not hold: it has no
// entries, so it matches no time.
var noBucket = &asofBucket{}

// asofIndexFor returns the as-of build side over key column kc and time
// column tc of st. A table, or a view over one, shares the table's cached
// index in the table's column space — a view's row ids are its table's —
// so every wrapper shape over the same columns hits one entry; a
// materialized private store builds per query.
func asofIndexFor(st *colStore, kc, tc int) *asofIndex {
	if base, bk := st.baseCol(kc); base != nil {
		_, bt := st.baseCol(tc)
		return base.cachedAsofIndex(bk, bt)
	}
	return buildAsofIndex(st, kc, tc)
}

// asofRows is the row-at-a-time fused plan — any key count, key and time
// types, either side boxed, any inner item — and the interpreter's: the
// right rows bucket per query (buildAsofBuckets), each left row binary-
// searches its bucket, and the inner select list evaluates over the joined
// rows with the rank item 1 by construction.
func (s *Session) asofRows(left, right *relation, lKeys, rKeys []int, nullSafe []bool, lt, rt int,
	items []sqlparse.SelectItem, joined, schema []colBinding) (*relation, error) {
	lrows, rrows := left.rowsView(), right.rowsView()
	buckets := buildAsofBuckets(rrows, rKeys, nullSafe, rt)
	joinedRows := make([][]any, 0, len(lrows))
	for _, lr := range lrows {
		match := -1
		if t := lr[lt]; t != nil {
			if key, ok := hashKey(lr, lKeys, nullSafe); ok {
				idx := buckets[key]
				lo, hi := 0, len(idx)
				for lo < hi {
					mid := (lo + hi) / 2
					if compareVals(rrows[idx[mid]][rt], t) <= 0 {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				if lo > 0 {
					match = idx[lo-1]
				}
			}
		}
		if match >= 0 {
			joinedRows = append(joinedRows, append(append(make([]any, 0, len(lr)+len(rrows[match])), lr...), rrows[match]...))
		} else {
			joinedRows = append(joinedRows, padRight(lr, len(right.schema)))
		}
	}
	out := &relation{schema: schema, rows: make([][]any, 0, len(joinedRows))}
	for _, row := range joinedRows {
		if err := s.tick(); err != nil {
			return nil, err
		}
		or := make([]any, len(items))
		for i, item := range items {
			if isWindowCall(item.Expr) {
				or[i] = int64(1) // the rank is 1 by construction
				continue
			}
			v, err := evalExpr(item.Expr, joined, row)
			if err != nil {
				return nil, err
			}
			or[i] = v
		}
		out.rows = append(out.rows, or)
	}
	return out, nil
}

// buildAsofBuckets groups the right rows by their key columns (hashKey, so
// a NULL under plain = never joins) and sorts each bucket ascending by the
// time column, leaving out NULL times, which never satisfy the bound — the
// order the fused binary search expects.
func buildAsofBuckets(rows [][]any, keys []int, nullSafe []bool, tcol int) map[string][]int {
	buckets := map[string][]int{}
	for i, rr := range rows {
		if rr[tcol] == nil {
			continue
		}
		if key, ok := hashKey(rr, keys, nullSafe); ok {
			buckets[key] = append(buckets[key], i)
		}
	}
	for _, idx := range buckets {
		sort.SliceStable(idx, func(a, b int) bool {
			return compareVals(rows[idx[a]][tcol], rows[idx[b]][tcol]) < 0
		})
	}
	return buckets
}
