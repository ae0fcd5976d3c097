package pgdb

// Access paths: per-column sorted attributes over colStore, in the spirit of
// kdb+'s `s#` attribute, the typed hash join's build side and the as-of
// bucket cache.
//
// A sorted attribute records that a column is non-decreasing under
// compareVals and holds no NULLs; it is maintained through every append and
// invalidated on the first violation, never re-derived by scanning. Tables
// are append-only, so no other mutation can break it. Sorted columns answer whole
// comparison predicates by binary search over the boxed cell accessor —
// column-granular fault-in means a cold probe touches O(log n) cells of one
// column — instead of a full bitmap scan.
//
// A table keeps no hash index. A `col = const` filter scans: over a string
// column that is one compare per dictionary entry and one table read per
// row (cmpStrKernel). An equi-join builds its side per query (buildHashIdx),
// with keyString's semantics: type-tagged equality, so int64 2 and float64
// 2.0 never join.

import (
	"sort"
	"sync"
	"sync/atomic"
)

// IndexStats counts access-path activity database-wide, and the SELECT
// blocks the compiled engine ran on the walker instead, by the reason the
// vector paths declined. All fields are atomics: lookups happen under the
// shared statement lock.
type IndexStats struct {
	Hits       atomic.Int64 // predicates answered from a sorted attribute
	AsofBuilds atomic.Int64 // as-of bucket-index builds
	AsofHits   atomic.Int64 // as-of joins answered from a cached bucket index

	FallbackInput      atomic.Int64 // blocks whose input was boxed rows
	FallbackWhere      atomic.Int64 // blocks whose WHERE did not lower
	FallbackProjection atomic.Int64 // projections the vector path declined
	FallbackGrouped    atomic.Int64 // aggregations the fused path declined
}

// Vars returns the counters in /debug/vars form, keyed like persist.Stats.
func (s *IndexStats) Vars() map[string]int64 {
	return map[string]int64{
		"pgdb.index_hits":                s.Hits.Load(),
		"pgdb.asof_builds":               s.AsofBuilds.Load(),
		"pgdb.asof_hits":                 s.AsofHits.Load(),
		"pgdb.row_fallbacks.boxed_input": s.FallbackInput.Load(),
		"pgdb.row_fallbacks.where":       s.FallbackWhere.Load(),
		"pgdb.row_fallbacks.projection":  s.FallbackProjection.Load(),
		"pgdb.row_fallbacks.grouped":     s.FallbackGrouped.Load(),
	}
}

func (s *IndexStats) add(c *atomic.Int64, n int64) {
	if s != nil {
		c.Add(n)
	}
}

// sortAttr is the per-column sorted attribute: ok means every row so far is
// non-NULL and non-decreasing under compareVals; last is the final value
// (the comparison anchor for the next append), nil when the store is empty.
type sortAttr struct {
	ok   bool
	last any
}

// indexState is the per-table access-path state hanging off colStore.
type indexState struct {
	sorted []sortAttr
	// version counts mutations; cached derived structures (the as-of bucket
	// cache, keyed by key and time column) key their validity on it.
	version uint64
	asofMu  sync.Mutex
	asof    map[[2]int]*asofIndex
	stats   *IndexStats
}

func (ix *indexState) init(cols int) {
	ix.sorted = make([]sortAttr, cols)
	for c := range ix.sorted {
		ix.sorted[c].ok = true // an empty column is trivially sorted
	}
}

// noteAppend maintains the sorted attribute of column c for a value being
// appended as row id st.n (called before the count bumps).
func (st *colStore) noteAppend(c int, v any) {
	if sa := &st.ix.sorted[c]; sa.ok {
		if v == nil || (st.n > 0 && compareVals(v, sa.last) < 0) {
			sa.ok, sa.last = false, nil
		} else {
			sa.last = v
		}
	}
}

// noteMutation bumps the version counter; every data change runs through it.
func (st *colStore) noteMutation() { st.ix.version++ }

// dropAsofCache discards the as-of bucket cache: eviction wants the memory
// back. The next as-of join rebuilds.
func (st *colStore) dropAsofCache() {
	st.ix.asofMu.Lock()
	st.ix.asof = nil
	st.ix.asofMu.Unlock()
}

// sortedCol reports whether column c carries a valid sorted attribute.
// Statement-private stores carry none.
func (st *colStore) sortedCol(c int) bool { return !st.private && st.ix.sorted[c].ok }

// --- hash join build side ---

// hashIdx is a hash join's build side over one key column: value →
// ascending row-id postings, and the NULL rows for null-safe probes.
// joinKind admits only integer or string keys, so at most one of ints and
// strs holds entries.
type hashIdx struct {
	ints  map[int64][]int32
	strs  map[string][]int32
	nulls []int32
}

// buildHashIdx scans one key column (faulting it in segment by segment,
// other columns untouched) into a join build side. The caller has checked
// joinKind, so every segment holds integers, strings or only NULLs.
func buildHashIdx(st *colStore, col int) *hashIdx {
	ix := &hashIdx{ints: map[int64][]int32{}, strs: map[string][]int32{}}
	for si := 0; si < st.numSegs(); si++ {
		seg := st.segCols(si, []int{col})
		v := &seg.vecs[col]
		base := int32(si * segSize)
		if v.kind == vkStr {
			ix.addStrSeg(v, seg.n, base)
			continue
		}
		for i := 0; i < seg.n; i++ {
			row := base + int32(i)
			if v.isNull(i) {
				ix.nulls = append(ix.nulls, row)
				continue
			}
			ix.ints[v.ints[i]] = append(ix.ints[v.ints[i]], row)
		}
	}
	return ix
}

// addStrSeg indexes the n rows of string segment v, the first of which is
// row base: a counting sort by code lays each dictionary entry's rows out
// contiguously, then each entry's postings append under one map probe.
func (ix *hashIdx) addStrSeg(v *colVec, n int, base int32) {
	start := make([]int32, len(v.dict)+1) // entry c's rows are rows[start[c]:start[c+1]]
	for i := 0; i < n; i++ {
		if v.isNull(i) {
			ix.nulls = append(ix.nulls, base+int32(i))
			continue
		}
		start[v.codes[i]+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	rows := make([]int32, start[len(v.dict)])
	next := append([]int32(nil), start[:len(v.dict)]...)
	for i := 0; i < n; i++ {
		if !v.isNull(i) {
			c := v.codes[i]
			rows[next[c]] = base + int32(i)
			next[c]++
		}
	}
	for c, x := range v.dict {
		lo, hi := start[c], start[c+1]
		if lo == hi {
			continue
		}
		// an entry's first postings alias rows; a later append copies
		p := ix.strs[x]
		if p == nil {
			p = rows[lo:hi:hi]
		} else {
			p = append(p, rows[lo:hi]...)
		}
		ix.strs[x] = p
	}
}

// joinKind reports whether a right key column of kind rkind can be the
// hash-join build side for a left key column of kind lkind (colKind of
// each). Both must be uniformly int or uniformly string, all-NULL columns
// aside. Floats are excluded: keyString distinguishes +0 from -0 and NaN
// from NaN, which a float map cannot reproduce.
func joinKind(rkind, lkind vecKind) bool {
	keyed := func(k vecKind) bool { return k == vkInt || k == vkStr || k == vkEmpty }
	return keyed(rkind) && keyed(lkind) && (rkind == vkEmpty || lkind == vkEmpty || rkind == lkind)
}

// --- whole-predicate fast paths over the selection bitmap ---

// trySortedPred answers a lowered predicate without scanning when it
// reduces to one contiguous row range over sorted columns (binary search).
// Returns true when out holds the final selection bitmap.
func trySortedPred(p vecPred, st *colStore, out []uint64) bool {
	lo, hi, ok := sortedPredRange(p, st)
	if !ok {
		return false
	}
	fillRange(out, lo, hi)
	if _, isConst := p.(*vecConst); !isConst {
		st.ix.stats.add(&st.ix.stats.Hits, 1)
	}
	return true
}

// sortedPredRange reduces a predicate tree to a single contiguous row range
// [lo, hi) when every leaf resolves over sorted columns. Comparison leaves
// binary-search the global row order (compareVals is a total order and the
// column is non-decreasing, so every operator's row set is a prefix, suffix,
// or contiguous middle); AND intersects ranges, OR unions overlapping ones.
func sortedPredRange(p vecPred, st *colStore) (lo, hi int, ok bool) {
	n := st.numRows()
	switch x := p.(type) {
	case *vecConst:
		if x.t {
			return 0, n, true
		}
		return 0, 0, true
	case *vecIsNull:
		if x.k != nil || !st.sortedCol(x.col) {
			return 0, 0, false
		}
		// sorted ⇒ no NULLs
		if x.not {
			return 0, n, true
		}
		return 0, 0, true
	case *vecCmp:
		if !st.sortedCol(x.col) {
			return 0, 0, false
		}
		return sortedCmpRange(st, x.col, x.op, x.konst)
	case *vecAnd:
		llo, lhi, lok := sortedPredRange(x.l, st)
		if !lok {
			return 0, 0, false
		}
		rlo, rhi, rok := sortedPredRange(x.r, st)
		if !rok {
			return 0, 0, false
		}
		if rlo > llo {
			llo = rlo
		}
		if rhi < lhi {
			lhi = rhi
		}
		if llo > lhi {
			llo, lhi = 0, 0
		}
		return llo, lhi, true
	case *vecOr:
		llo, lhi, lok := sortedPredRange(x.l, st)
		if !lok {
			return 0, 0, false
		}
		rlo, rhi, rok := sortedPredRange(x.r, st)
		if !rok {
			return 0, 0, false
		}
		if llo == lhi {
			return rlo, rhi, true
		}
		if rlo == rhi {
			return llo, lhi, true
		}
		if rlo > lhi || llo > rhi {
			return 0, 0, false // disjoint ranges: not contiguous
		}
		if rlo < llo {
			llo = rlo
		}
		if rhi > lhi {
			lhi = rhi
		}
		return llo, lhi, true
	}
	return 0, 0, false
}

// sortedBound returns the first row index of a sorted column whose cell is
// >= konst (or > konst when strict) under compareVals. Segments are pruned
// first through their resident zone metadata — stubs carry min/max, so the
// walk does no I/O — and only the one segment that can contain the bound has
// its cells probed, faulting at most that segment of this column. A constant
// outside every zone resolves with zero faults. Zone maps are exact over a
// sorted column's appends, so both prune directions are sound: a segment
// whose max is below the bound holds no qualifying cell, and one whose min is
// past it holds only qualifying cells.
func sortedBound(st *colStore, col int, konst any, strict bool) int {
	over := func(v any) bool {
		c := compareVals(v, konst)
		if strict {
			return c > 0
		}
		return c >= 0
	}
	nsegs := st.numSegs()
	for si := 0; si < nsegs; si++ {
		sg := st.peekSeg(si)
		mn, mx := sg.vecs[col].minV, sg.vecs[col].maxV
		if mx != nil && !over(mx) {
			continue // every cell here is below the bound
		}
		lo := si * segSize
		if mn != nil && over(mn) {
			return lo // every cell here is at or past the bound
		}
		k := sort.Search(sg.n, func(i int) bool { return over(st.cellAt(lo+i, col)) })
		if k < sg.n {
			return lo + k
		}
	}
	return st.n
}

// sortedCmpRange locates the rows satisfying `cell op konst` on a sorted
// column by two zone-guided binary searches.
func sortedCmpRange(st *colStore, col int, op string, konst any) (lo, hi int, ok bool) {
	n := st.numRows()
	lb := sortedBound(st, col, konst, false)
	ub := lb
	if lb < n {
		ub = sortedBound(st, col, konst, true)
	}
	switch op {
	case "=":
		return lb, ub, true
	case "<":
		return 0, lb, true
	case "<=":
		return 0, ub, true
	case ">":
		return ub, n, true
	case ">=":
		return lb, n, true
	case "<>":
		if lb == ub {
			return 0, n, true // no equal rows: everything matches
		}
		if lb == 0 {
			return ub, n, true
		}
		if ub == n {
			return 0, lb, true
		}
		return 0, 0, false // a middle run of equals: not contiguous
	}
	return 0, 0, false
}

// fillRange sets bits [lo, hi) word-at-a-time.
func fillRange(out []uint64, lo, hi int) {
	if lo >= hi {
		return
	}
	lw, hw := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - uint(hi-1)&63)
	if lw == hw {
		out[lw] |= loMask & hiMask
		return
	}
	out[lw] |= loMask
	for w := lw + 1; w < hw; w++ {
		out[w] = ^uint64(0)
	}
	out[hw] |= hiMask
}

// --- as-of bucket cache ---

// asofIndex is the typed build side of a fused as-of join: row ids bucketed
// by a string key column, each bucket ascending by an integer time column —
// compared through float64 as compareVals does, equal times by row id.
// Rows with a NULL time are left out, since `r.t <= l.t` is never TRUE for
// them, and NULL-key rows form their own bucket, which only a null-safe
// probe reads.
type asofIndex struct {
	version uint64
	byKey   map[string]*asofBucket
	nulls   *asofBucket
}

// asofBucket holds one key's rows: ts[i] is the time of row ids[i].
type asofBucket struct {
	ts  []int64
	ids []int32
}

func (b *asofBucket) Len() int { return len(b.ids) }

func (b *asofBucket) Less(i, j int) bool {
	fi, fj := float64(b.ts[i]), float64(b.ts[j])
	return fi < fj || fi == fj && b.ids[i] < b.ids[j]
}

func (b *asofBucket) Swap(i, j int) {
	b.ts[i], b.ts[j] = b.ts[j], b.ts[i]
	b.ids[i], b.ids[j] = b.ids[j], b.ids[i]
}

// latest returns the row of the last entry at or before time t, or -1.
func (b *asofBucket) latest(t int64) int32 {
	ft := float64(t)
	lo, hi := 0, len(b.ts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if float64(b.ts[mid]) <= ft {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return -1
	}
	return b.ids[lo-1]
}

// cachedAsofIndex returns table st's as-of index over key column kc and
// time column tc, so repeated as-of joins against an unchanged table skip
// the group-and-sort. An entry is valid while the table's mutation version
// stands still; a version bump replaces it, it never mutates one.
func (st *colStore) cachedAsofIndex(kc, tc int) *asofIndex {
	desc := [2]int{kc, tc}
	st.ix.asofMu.Lock()
	defer st.ix.asofMu.Unlock()
	if e := st.ix.asof[desc]; e != nil && e.version == st.ix.version {
		st.ix.stats.add(&st.ix.stats.AsofHits, 1)
		return e
	}
	e := buildAsofIndex(st, kc, tc)
	e.version = st.ix.version
	if st.ix.asof == nil {
		st.ix.asof = map[[2]int]*asofIndex{}
	}
	st.ix.asof[desc] = e
	st.ix.stats.add(&st.ix.stats.AsofBuilds, 1)
	return e
}

// buildAsofIndex buckets the rows of st, faulting in only its key and time
// columns. kc must hold strings or NULLs and tc integers or NULLs.
func buildAsofIndex(st *colStore, kc, tc int) *asofIndex {
	ix := &asofIndex{byKey: map[string]*asofBucket{}}
	cols := []int{kc, tc}
	var entries []*asofBucket
	for si := 0; si < st.numSegs(); si++ {
		seg := st.segCols(si, cols)
		kv, tv := &seg.vecs[kc], &seg.vecs[tc]
		base := int32(si * segSize)
		// entries[code] is the bucket of a key dictionary entry, resolved
		// on the entry's first row in the segment
		entries = grow(entries, len(kv.dict))
		clear(entries)
		for i := 0; i < seg.n; i++ {
			if tv.isNull(i) {
				continue
			}
			var b *asofBucket
			switch {
			case kv.isNull(i):
				if ix.nulls == nil {
					ix.nulls = &asofBucket{}
				}
				b = ix.nulls
			default:
				if b = entries[kv.codes[i]]; b == nil {
					x := kv.dict[kv.codes[i]]
					if b = ix.byKey[x]; b == nil {
						b = &asofBucket{}
						ix.byKey[x] = b
					}
					entries[kv.codes[i]] = b
				}
			}
			b.ts = append(b.ts, tv.ints[i])
			b.ids = append(b.ids, base+int32(i))
		}
	}
	for _, b := range ix.byKey {
		if !sort.IsSorted(b) {
			sort.Sort(b)
		}
	}
	if ix.nulls != nil && !sort.IsSorted(ix.nulls) {
		sort.Sort(ix.nulls)
	}
	return ix
}
