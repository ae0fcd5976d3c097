package pgdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Columnar table storage: a storedTable keeps its data as typed column
// vectors organized into fixed-size segments, each column carrying a null
// bitmap and a per-segment min/max zone map. The compiled engine's scans
// (vector.go, vecagg.go) read these vectors batch-at-a-time, subqueries and
// equi/as-of joins hand the next operator statement-private stores of the
// same shape (gather.go), and an operator that needs rows boxes only the
// selected rows and read columns (boxSel). The vectors are the only copy of
// a table's data: the interpreter, DML and the row fallbacks of the other
// operators box the rows they need once per statement, into memory the
// statement owns, so nothing outlives it or has to track later writes.

// segSize is the number of rows per segment. It is a multiple of 64 so a
// segment's slice of the global selection bitmap is word-aligned.
const segSize = 4096

// vecKind is the storage class of one column vector within a segment.
type vecKind uint8

const (
	vkEmpty vecKind = iota // no non-null value appended yet
	vkInt
	vkFloat
	vkStr
	vkBool
	vkAny // mixed value types: boxed storage, no zone map
)

// colVec is one column of one segment: a typed vector chosen from the first
// non-null value, with dynamic degradation to boxed storage on a type
// mismatch, a null bitmap, and a conservative min/max zone map.
//
// A string vector is dictionary-encoded, the way kdb+ enumerates a symbol
// column: row i holds dict[codes[i]]. The dictionary is the segment's own,
// so a code fits 16 bits (segSize rows hold at most segSize distinct
// values) and a segment faults in, evicts and persists with its
// dictionary. A NULL row's code is 0, so every code indexes dict whenever
// some row is non-NULL. Kernels over a string vector do their string work
// once per dictionary entry and index by code per row.
type colVec struct {
	kind vecKind
	// stub marks an evicted column: the metadata below (kind, null count,
	// zone bounds) is valid but the data slices are absent; touching its
	// cells must fault this column back in through the store's loader.
	stub   bool
	ints   []int64
	floats []float64
	codes  []uint16
	dict   []string
	// intern maps each dict entry to its code while appends can still
	// reach the vector: only a table's open tail segment keeps one, and it
	// is rebuilt from dict when a restored or faulted-in tail grows.
	intern map[string]uint16
	bools  []bool
	anys   []any
	nulls  []uint64 // bit i set ⇒ row i is NULL
	// nullCnt is exact: appends maintain it.
	nullCnt int
	// minV/maxV bound the non-null values in compareVals order. They only
	// widen (appends, updates), so after deletes rebuild the bounds may be
	// wider than the data — sound for pruning, never narrower. nil when the
	// vector holds no non-null values or has degraded to vkAny.
	minV, maxV any
}

func (v *colVec) isNull(i int) bool {
	w := i >> 6
	return w < len(v.nulls) && v.nulls[w]&(1<<(uint(i)&63)) != 0
}

// nullWord returns word w of the null bitmap (0 if never allocated).
func (v *colVec) nullWord(w int) uint64 {
	if w < len(v.nulls) {
		return v.nulls[w]
	}
	return 0
}

func (v *colVec) setNullBit(i int) {
	w := i >> 6
	for len(v.nulls) <= w {
		v.nulls = append(v.nulls, 0)
	}
	v.nulls[w] |= 1 << (uint(i) & 63)
}

// pad extends the typed storage with one zero placeholder (for a NULL row).
func (v *colVec) pad() {
	switch v.kind {
	case vkInt:
		v.ints = append(v.ints, 0)
	case vkFloat:
		v.floats = append(v.floats, 0)
	case vkStr:
		v.codes = append(v.codes, 0)
	case vkBool:
		v.bools = append(v.bools, false)
	case vkAny:
		v.anys = append(v.anys, nil)
	}
}

// degrade converts the vector to boxed storage (n values appended so far);
// the zone map is dropped — mixed-type bounds cannot prune soundly.
func (v *colVec) degrade(n int) {
	anys := make([]any, n)
	for i := 0; i < n; i++ {
		if v.isNull(i) {
			continue
		}
		switch v.kind {
		case vkInt:
			anys[i] = v.ints[i]
		case vkFloat:
			anys[i] = v.floats[i]
		case vkStr:
			anys[i] = v.dict[v.codes[i]]
		case vkBool:
			anys[i] = v.bools[i]
		}
	}
	v.kind = vkAny
	v.ints, v.floats, v.codes, v.dict, v.intern, v.bools = nil, nil, nil, nil, nil, nil
	v.anys = anys
	v.minV, v.maxV = nil, nil
}

// widenZone extends the min/max bounds to cover a new non-null value.
func (v *colVec) widenZone(val any) {
	if v.kind == vkAny {
		return
	}
	if v.minV == nil {
		v.minV, v.maxV = val, val
		return
	}
	if compareVals(val, v.minV) < 0 {
		v.minV = val
	}
	if compareVals(val, v.maxV) > 0 {
		v.maxV = val
	}
}

// appendVal appends one value at position pos (== values appended so far).
func (v *colVec) appendVal(val any, pos int) {
	if val == nil {
		v.setNullBit(pos)
		v.nullCnt++
		v.pad()
		return
	}
	switch x := val.(type) {
	case int64:
		switch v.kind {
		case vkEmpty:
			v.kind = vkInt
			v.ints = append(make([]int64, pos, pos+1), x)
		case vkInt:
			v.ints = append(v.ints, x)
		case vkAny:
			v.anys = append(v.anys, x)
		default:
			v.degrade(pos)
			v.anys = append(v.anys, x)
		}
	case float64:
		switch v.kind {
		case vkEmpty:
			v.kind = vkFloat
			v.floats = append(make([]float64, pos, pos+1), x)
		case vkFloat:
			v.floats = append(v.floats, x)
		case vkAny:
			v.anys = append(v.anys, x)
		default:
			v.degrade(pos)
			v.anys = append(v.anys, x)
		}
	case string:
		switch v.kind {
		case vkEmpty:
			v.kind = vkStr
			v.codes = make([]uint16, pos, pos+1)
			fallthrough
		case vkStr:
			code, seen := v.internStr(x)
			v.codes = append(v.codes, code)
			if seen {
				return // the zone map already covers a known entry
			}
		case vkAny:
			v.anys = append(v.anys, x)
		default:
			v.degrade(pos)
			v.anys = append(v.anys, x)
		}
	case bool:
		switch v.kind {
		case vkEmpty:
			v.kind = vkBool
			v.bools = append(make([]bool, pos, pos+1), x)
		case vkBool:
			v.bools = append(v.bools, x)
		case vkAny:
			v.anys = append(v.anys, x)
		default:
			v.degrade(pos)
			v.anys = append(v.anys, x)
		}
	default:
		// a value outside the engine's domain: store boxed
		if v.kind != vkAny {
			v.degrade(pos)
		}
		v.anys = append(v.anys, val)
	}
	v.widenZone(val)
}

// internStr returns x's code in the dictionary, adding x (a copy, so the
// entry holds no statement text alive) when it is new; seen reports an
// existing entry.
func (v *colVec) internStr(x string) (code uint16, seen bool) {
	if v.intern == nil {
		v.intern = make(map[string]uint16, len(v.dict)+1)
		for c, s := range v.dict {
			v.intern[s] = uint16(c)
		}
	}
	if code, seen = v.intern[x]; seen {
		return code, true
	}
	code = uint16(len(v.dict))
	x = strings.Clone(x)
	v.dict = append(v.dict, x)
	v.intern[x] = code
	return code, false
}

// get boxes the value at position i.
func (v *colVec) get(i int) any {
	if v.isNull(i) {
		return nil
	}
	switch v.kind {
	case vkInt:
		return v.ints[i]
	case vkFloat:
		return v.floats[i]
	case vkStr:
		return v.dict[v.codes[i]]
	case vkBool:
		return v.bools[i]
	case vkAny:
		return v.anys[i]
	default:
		return nil
	}
}

// segment holds up to segSize rows of every column. Residency is tracked
// per column: each colVec carries its own stub flag, and the segment-level
// stub flag is the OR of them — set when at least one column is evicted.
// A fully evicted segment keeps only the per-vector metadata the planner
// prunes on (kind, null count, zone bounds); touching a stub column's cells
// faults that column back in through the store's loader. Segments are
// immutable once published through the slot pointer while stubbed; faults
// install a copy-on-write replacement, so readers never observe a
// half-built column.
type segment struct {
	n    int
	stub bool
	vecs []colVec
}

// storeFault carries an I/O error out of a cold-segment fault. Segment reads
// happen deep inside scan loops with no error return path, so the fault
// panics and the statement boundary (ExecStmt, trapFault) recovers it into
// a statement error.
type storeFault struct{ err error }

func (f *storeFault) Error() string { return f.err.Error() }

// segSlot is one segment position; the pointer swaps atomically between the
// resident segment and its (possibly partially) evicted form, so concurrent
// readers never observe a half-built segment.
type segSlot struct {
	p atomic.Pointer[segment]
	// mu serializes segment installs (the copy-on-write pointer swap) so
	// concurrent faults of disjoint column sets compose instead of losing
	// each other's columns.
	mu sync.Mutex
	// colMu serializes faults per column, so concurrent statements can
	// reload distinct columns of the same segment concurrently while two
	// faults of the same column do the I/O only once.
	colMu []sync.Mutex
}

// colStore is the columnar storage of one table.
type colStore struct {
	cols  []Column
	slots []*segSlot
	n     int

	// loader faults evicted (stub) segments back in; nil for memory-only
	// stores, which never evict. Faults of the same segment serialize on
	// the slot's own mutex.
	loader SegLoader

	// ix holds the table's access paths: per-column sorted attributes and
	// the as-of bucket cache (index.go).
	ix indexState

	// private marks a statement-private store (gather.go): a subquery's or
	// a join's output, never registered in the catalog, with no access
	// paths; shared marks one that may share a table's vectors. src is set
	// for a private view — an unfiltered projection sharing the vectors of a
	// table store (or of a materialized private store) — and srcCols[c]
	// names the src column behind column c; the view's stub columns fault in
	// through src.
	private bool
	shared  bool
	src     *colStore
	srcCols []int
}

func newColStore(cols []Column) *colStore {
	st := &colStore{cols: cols}
	st.ix.init(len(cols))
	return st
}

func (st *colStore) numRows() int { return st.n }

// sharesTable reports whether st's vectors may be a table's own, which
// INSERT appends to under the statement lock.
func (st *colStore) sharesTable() bool { return !st.private || st.shared }

func (st *colStore) numSegs() int { return len(st.slots) }

// peekSeg returns the segment as resident in memory — possibly a stub — for
// metadata-only inspection (zone pruning, row counts). It never faults.
func (st *colStore) peekSeg(si int) *segment { return st.slots[si].p.Load() }

// seg returns segment si with every column resident, faulting missing ones
// in from the loader. I/O failures surface as a storeFault panic, recovered
// at the statement boundary.
func (st *colStore) seg(si int) *segment {
	if s := st.slots[si].p.Load(); !s.stub {
		return s
	}
	return st.fault(si, nil)
}

// segCols returns segment si with at least the given columns resident
// (nil ⇒ all columns). The vector scan paths pass their referenced
// column set here so a pruned cold scan faults only the WHERE + projected
// columns of each segment.
func (st *colStore) segCols(si int, cols []int) *segment {
	s := st.slots[si].p.Load()
	if !s.stub {
		return s
	}
	if cols == nil {
		return st.fault(si, nil)
	}
	for _, c := range cols {
		if s.vecs[c].stub {
			return st.fault(si, cols)
		}
	}
	return s
}

// fault loads the stub columns among cols (nil ⇒ all columns) of segment si
// and installs a copy-on-write replacement segment. Per-column mutexes are
// taken in ascending column order (deadlock-free); the brief install section
// under slot.mu composes concurrent faults of disjoint column sets.
func (st *colStore) fault(si int, cols []int) *segment {
	slot := st.slots[si]
	var req []int
	if cols == nil {
		req = make([]int, len(st.cols))
		for c := range req {
			req[c] = c
		}
	} else {
		req = append([]int(nil), cols...)
		sort.Ints(req)
		// drop duplicates so a column's mutex is not locked twice
		w := 0
		for i, c := range req {
			if i == 0 || c != req[w-1] {
				req[w] = c
				w++
			}
		}
		req = req[:w]
	}
	for _, c := range req {
		slot.colMu[c].Lock()
	}
	defer func() {
		for _, c := range req {
			slot.colMu[c].Unlock()
		}
	}()
	s := slot.p.Load()
	missing := make([]int, 0, len(req))
	for _, c := range req {
		if s.vecs[c].stub {
			missing = append(missing, c)
		}
	}
	if len(missing) == 0 {
		return s // concurrent faults won every requested column
	}
	loaded := st.load(si, missing)
	slot.mu.Lock()
	defer slot.mu.Unlock()
	cur := slot.p.Load()
	ns := &segment{n: cur.n, vecs: make([]colVec, len(cur.vecs))}
	copy(ns.vecs, cur.vecs)
	for i, c := range missing {
		ns.vecs[c] = loaded[i]
	}
	for c := range ns.vecs {
		if ns.vecs[c].stub {
			ns.stub = true
			break
		}
	}
	slot.p.Store(ns)
	return ns
}

// load reads the missing columns of segment si: a private view through its
// source store, faulting only the mapped columns there, a table through its
// loader.
func (st *colStore) load(si int, missing []int) []colVec {
	out := make([]colVec, len(missing))
	if st.src != nil {
		srcCols := make([]int, len(missing))
		for i, c := range missing {
			srcCols[i] = st.srcCols[c]
		}
		seg := st.src.segCols(si, srcCols)
		for i, c := range srcCols {
			out[i] = seg.vecs[c].clipped()
		}
		return out
	}
	if st.loader == nil {
		panic(&storeFault{err: fmt.Errorf("segment %d is evicted and the store has no loader", si)})
	}
	data, err := st.loader(si, missing)
	if err != nil {
		panic(&storeFault{err: fmt.Errorf("reloading segment %d: %w", si, err)})
	}
	for i, c := range missing {
		if c >= len(data.Vecs) {
			panic(&storeFault{err: fmt.Errorf("reloading segment %d: loader returned %d vectors, need column %d", si, len(data.Vecs), c)})
		}
		out[i] = vecFromData(data.Vecs[c])
	}
	return out
}

// addSeg appends a fresh segment slot holding seg.
func (st *colStore) addSeg(seg *segment) {
	slot := &segSlot{colMu: make([]sync.Mutex, len(st.cols))}
	slot.p.Store(seg)
	st.slots = append(st.slots, slot)
}

// lastSeg returns the open segment, appending a new one when full.
func (st *colStore) lastSeg() *segment {
	if n := len(st.slots); n > 0 {
		if seg := st.seg(n - 1); seg.n < segSize {
			return seg
		}
	}
	seg := &segment{vecs: make([]colVec, len(st.cols))}
	st.addSeg(seg)
	return seg
}

// appendRow appends one row, one value per column.
func (st *colStore) appendRow(row []any) {
	seg := st.lastSeg()
	for c, v := range row {
		seg.vecs[c].appendVal(v, seg.n)
		st.noteAppend(c, v)
	}
	seg.n++
	st.n++
	if seg.n == segSize {
		// a full segment takes no more appends: drop its intern maps
		for c := range seg.vecs {
			seg.vecs[c].intern = nil
		}
	}
	st.noteMutation()
}

// cellAt boxes the value at a global row index, faulting in only that
// column of the segment when it is evicted.
func (st *colStore) cellAt(i, col int) any {
	si := i / segSize
	s := st.slots[si].p.Load()
	if s.stub && s.vecs[col].stub {
		s = st.fault(si, []int{col})
	}
	return s.vecs[col].get(i % segSize)
}

// rowAtCols boxes the given columns of one row (others stay nil), faulting
// only those columns. Aggregate finalization uses this for the group's
// representative row.
func (st *colStore) rowAtCols(i int, cols []int) []any {
	seg := st.segCols(i/segSize, cols)
	pos := i % segSize
	row := make([]any, len(st.cols))
	for _, c := range cols {
		row[c] = seg.vecs[c].get(pos)
	}
	return row
}

// boxSel boxes the rows set in sel (nil: every row) in row order, cell k of
// a row holding column cols[k]: a row is as wide as what is read, not as
// the store. One backing array holds every row. Segments with no selected
// row are skipped before anything faults; the rest fault just cols, once
// per segment.
func (st *colStore) boxSel(sel []uint64, cols []int) [][]any {
	nsel, width := st.n, len(cols)
	if sel != nil {
		nsel = popCount(sel)
	}
	backing := make([]any, nsel*width)
	out := make([][]any, nsel)
	for i := range out {
		out[i] = backing[i*width : (i+1)*width : (i+1)*width]
	}
	lo := 0
	st.selSegs(sel, cols, nil, func(_ int, seg *segment, pos []int32) error {
		rows := out[lo : lo+len(pos)]
		for k, c := range cols {
			v := &seg.vecs[c]
			for j, i := range pos {
				rows[j][k] = v.get(int(i))
			}
		}
		lo += len(pos)
		return nil
	})
	return out
}

// iota32 lists the positions of a full segment, 0 to segSize-1: the
// selection of a segment every row of which is selected.
var iota32 = seq32(segSize)

// seq32 lists 0 to n-1.
func seq32(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// selSegs calls fn for each segment holding a row set in sel (nil: every
// row) with the segment, cols resident, and its selected positions in
// ascending order. Segments with no selected row are skipped before
// anything faults. poll, when set, runs before each call; its error, or
// fn's, stops the walk. pos is valid during the call only.
func (st *colStore) selSegs(sel []uint64, cols []int, poll func() error, fn func(si int, seg *segment, pos []int32) error) error {
	var buf []int32
	for si := range st.slots {
		n := st.peekSeg(si).n
		pos := iota32[:n]
		if sel != nil {
			win := sel[si*segWords : si*segWords+(n+63)/64]
			if windowAllZero(win) {
				continue
			}
			buf = appendSetBits(buf[:0], win)
			pos = buf
		}
		if poll != nil {
			if err := poll(); err != nil {
				return err
			}
		}
		if err := fn(si, st.segCols(si, cols), pos); err != nil {
			return err
		}
	}
	return nil
}

// evictSeg swaps segment si for a metadata-only stub, dropping the data of
// every resident column (partially resident segments evict their remaining
// columns). The caller (the persistence layer) must guarantee the segment is
// durable and clean, and must hold the database's exclusive statement lock.
// Returns the number of columns whose data was dropped (0 if the segment was
// already fully evicted).
func (st *colStore) evictSeg(si int) int {
	s := st.slots[si].p.Load()
	dropped := 0
	for c := range s.vecs {
		if !s.vecs[c].stub {
			dropped++
		}
	}
	if dropped == 0 {
		return 0
	}
	stub := &segment{n: s.n, stub: true, vecs: make([]colVec, len(s.vecs))}
	for c := range s.vecs {
		v := &s.vecs[c]
		stub.vecs[c] = colVec{kind: v.kind, stub: true, nullCnt: v.nullCnt, minV: v.minV, maxV: v.maxV}
	}
	st.slots[si].p.Store(stub)
	return dropped
}

// residentBytes estimates the heap footprint of the resident segment data,
// the quantity the -mem-budget eviction policy bounds. Stub columns carry no
// data slices, so partially resident segments are accounted at column
// granularity for free.
func (st *colStore) residentBytes() int64 {
	var b int64
	for _, sl := range st.slots {
		s := sl.p.Load()
		for c := range s.vecs {
			b += s.vecs[c].memBytes()
		}
	}
	return b
}

func (v *colVec) memBytes() int64 {
	b := int64(len(v.nulls) * 8)
	switch v.kind {
	case vkInt:
		b += int64(len(v.ints) * 8)
	case vkFloat:
		b += int64(len(v.floats) * 8)
	case vkStr:
		b += int64(len(v.codes) * 2)
		for _, s := range v.dict {
			b += int64(len(s)) + 16
		}
	case vkBool:
		b += int64(len(v.bools))
	case vkAny:
		b += int64(len(v.anys) * 16)
	}
	return b
}
