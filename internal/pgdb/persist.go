package pgdb

// Persistence API: the narrow surface internal/persist uses to journal writes,
// snapshot and restore tables, evict cold segments, and replay a WAL. The
// engine stays storage-agnostic — everything durable lives behind the
// Journal interface and the Apply*/Snapshot*/Restore* entry points below.

// SegmentSize exposes the store's fixed segment length so persistence
// layers can map row counts to segment boundaries.
const SegmentSize = segSize

// Journal receives every catalog- or data-changing event on permanent
// relations, after the change has been applied in memory but before the
// statement acknowledges. Calls arrive under the database's exclusive
// statement lock, so implementations see a serial history. A returned error
// fails the statement (memory then runs ahead of the journal until the next
// checkpoint reconciles them).
type Journal interface {
	JournalCreateTable(name string, cols []Column) error
	JournalDrop(name string, view bool) error
	JournalCreateView(name, sql string) error
	JournalAppend(table string, rows [][]any) error
}

// SetJournal installs the INSERT/DDL journal. Pass nil to detach.
func (db *DB) SetJournal(j Journal) {
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	db.journal = j
}

// SetAfterStmt installs a hook that runs after every top-level statement,
// outside the statement lock — the persistence layer uses it for checkpoint
// scheduling and memory-budget eviction.
func (db *DB) SetAfterStmt(fn func()) {
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	db.afterStmt = fn
}

// Exclusive runs fn while holding the database's statement lock exclusively:
// no statement executes concurrently. Checkpoints run under it so the
// snapshot and the WAL position are mutually consistent.
func (db *DB) Exclusive(fn func()) {
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	fn()
}

// VecData is the serializable form of one column vector of one segment:
// the typed slices, null bitmap, and zone metadata round-trip verbatim, so
// a restore re-infers nothing. A string vector is its codes and its
// dictionary: row i holds Dict[Codes[i]], and a NULL row's code is 0.
type VecData struct {
	Kind    uint8
	Ints    []int64
	Floats  []float64
	Codes   []uint16
	Dict    []string
	Bools   []bool
	Anys    []any
	Nulls   []uint64
	NullCnt int
	Min     any
	Max     any
}

// SegmentData is the serializable form of one segment.
type SegmentData struct {
	N    int
	Vecs []VecData
}

// VecMeta is the metadata-only form of a vector — what a stub segment
// carries so zone pruning works without faulting the data in.
type VecMeta struct {
	Kind    uint8
	NullCnt int
	Min     any
	Max     any
}

// SegMeta is the metadata-only form of a segment.
type SegMeta struct {
	N    int
	Vecs []VecMeta
}

func vecToData(v *colVec) VecData {
	return VecData{
		Kind:    uint8(v.kind),
		Ints:    v.ints,
		Floats:  v.floats,
		Codes:   v.codes,
		Dict:    v.dict,
		Bools:   v.bools,
		Anys:    v.anys,
		Nulls:   v.nulls,
		NullCnt: v.nullCnt,
		Min:     v.minV,
		Max:     v.maxV,
	}
}

func vecFromData(d VecData) colVec {
	return colVec{
		kind:    vecKind(d.Kind),
		ints:    d.Ints,
		floats:  d.Floats,
		codes:   d.Codes,
		dict:    d.Dict,
		bools:   d.Bools,
		anys:    d.Anys,
		nulls:   d.Nulls,
		nullCnt: d.NullCnt,
		minV:    d.Min,
		maxV:    d.Max,
	}
}

// SegLoader reloads evicted columns of one segment of a table from durable
// storage. cols is the sorted set of column indexes to load, or nil for all
// columns; the returned SegmentData.Vecs must have one entry per table
// column, with at least the requested indexes populated (the rest are
// ignored). Faulting is column-granular: a pruned scan requests only the
// columns it references.
type SegLoader func(si int, cols []int) (SegmentData, error)

// SnapshotTable returns the live segments of a permanent table. It must run
// inside Exclusive — it takes no locks itself — and faults any evicted
// segments back in (snapshot needs the data). ok is false for an unknown
// table.
func (db *DB) SnapshotTable(name string) (cols []Column, segs []SegmentData, ok bool) {
	t, found := db.tables[name]
	if !found {
		return nil, nil, false
	}
	st := t.store
	segs = make([]SegmentData, st.numSegs())
	for si := range segs {
		seg := st.seg(si)
		sd := SegmentData{N: seg.n, Vecs: make([]VecData, len(seg.vecs))}
		for c := range seg.vecs {
			sd.Vecs[c] = vecToData(&seg.vecs[c])
		}
		segs[si] = sd
	}
	return append([]Column(nil), t.cols...), segs, true
}

// SnapshotViews returns the view definitions (name → SQL). Must run inside
// Exclusive.
func (db *DB) SnapshotViews() map[string]string {
	out := make(map[string]string, len(db.views))
	for n, v := range db.views {
		out[n] = v.sql
	}
	return out
}

// RestoreTableLazy registers a permanent table whose segments are all stubs:
// the metadata (row counts, vector kinds, zone bounds, null counts) is
// resident, and segment data faults in through loader on first touch. Used
// at open so a cold start does no data I/O until a scan needs it.
func (db *DB) RestoreTableLazy(name string, cols []Column, segs []SegMeta, loader SegLoader) {
	st := newColStore(cols)
	st.loader = loader
	st.ix.stats = &db.idxStats
	// the rows bypass appendVecs, so sorted attributes are unknown until the
	// manifest's RestoreAccessMeta re-establishes them
	for c := range st.ix.sorted {
		st.ix.sorted[c] = sortAttr{}
	}
	for _, sm := range segs {
		seg := &segment{n: sm.N, stub: true, vecs: make([]colVec, len(sm.Vecs))}
		for c, vm := range sm.Vecs {
			seg.vecs[c] = colVec{kind: vecKind(vm.Kind), stub: true, nullCnt: vm.NullCnt, minV: vm.Min, maxV: vm.Max}
		}
		st.addSeg(seg)
		st.n += sm.N
	}
	t := &storedTable{name: name, cols: cols, store: st}
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	db.mu.Lock()
	db.tables[name] = t
	db.mu.Unlock()
}

// EvictSegments swaps resident segments [from, to) of a table for stubs,
// dropping their data. Partially resident
// segments (only some columns faulted back in) are evicted too, and the
// accounting is column-granular. The caller must guarantee the range is
// durable and clean, and must run inside Exclusive — that makes the
// clean-check and the eviction atomic with respect to DML. Returns the
// estimated bytes released and the number of column vectors dropped.
func (db *DB) EvictSegments(name string, from, to int) (int64, int) {
	t, ok := db.tables[name]
	if !ok {
		return 0, 0
	}
	st := t.store
	if st.loader == nil {
		return 0, 0 // memory-only store: nothing could reload the data
	}
	if to > st.numSegs() {
		to = st.numSegs()
	}
	var freed int64
	cols := 0
	for si := from; si < to; si++ {
		s := st.peekSeg(si)
		for c := range s.vecs {
			if !s.vecs[c].stub {
				freed += s.vecs[c].memBytes()
			}
		}
		cols += st.evictSeg(si)
	}
	if cols > 0 {
		// as-of buckets pin value copies of the evicted columns; drop them
		// and let the next as-of join rebuild
		st.dropAsofCache()
	}
	return freed, cols
}

// TableAccessMeta reports each column's sorted attribute for
// checkpointing. A sorted flag is only exported when the last segment
// carries usable zone bounds — the restore path re-derives the append
// anchor from them. Must run inside Exclusive.
func (db *DB) TableAccessMeta(name string) (sorted []bool, ok bool) {
	t, found := db.tables[name]
	if !found {
		return nil, false
	}
	st := t.store
	sorted = make([]bool, len(st.cols))
	for c := range st.cols {
		sorted[c] = st.ix.sorted[c].ok &&
			(st.numSegs() == 0 || st.peekSeg(st.numSegs() - 1).vecs[c].maxV != nil)
	}
	return sorted, true
}

// RestoreAccessMeta re-establishes the sorted attributes a checkpoint
// recorded on a lazily restored table: they resume maintenance with their
// append anchor taken from the last segment's zone max (sorted ⇒ no NULLs ⇒
// the segment max is the last value).
func (db *DB) RestoreAccessMeta(name string, sorted []bool) {
	db.mu.RLock()
	t, ok := db.tables[name]
	db.mu.RUnlock()
	if !ok {
		return
	}
	st := t.store
	for c := range st.cols {
		if c < len(sorted) && sorted[c] {
			var last any
			if n := st.numSegs(); n > 0 {
				last = st.peekSeg(n - 1).vecs[c].maxV
			}
			if st.n == 0 || last != nil {
				st.ix.sorted[c] = sortAttr{ok: true, last: last}
			}
		}
	}
}

// SetTableLoader attaches (or replaces) the segment loader of a table —
// checkpoints re-point tables at the new checkpoint's files. Must run
// inside Exclusive.
func (db *DB) SetTableLoader(name string, loader SegLoader) {
	if t, ok := db.tables[name]; ok {
		t.store.loader = loader
	}
}

// ResidentBytes estimates the heap bytes held by resident segment data
// across all permanent tables. Must run inside Exclusive.
func (db *DB) ResidentBytes() map[string]int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string]int64, len(db.tables))
	for n, t := range db.tables {
		out[n] = t.store.residentBytes()
	}
	return out
}

// --- WAL replay entry points ---
//
// The Apply* functions re-execute journaled changes without re-journaling
// them. Each takes the exclusive statement lock and traps segment faults
// like a statement would, and each rejects a record the statement path
// could not have written with a 58030 error instead of applying something
// else.

func (db *DB) applyLocked(fn func() error) (err error) {
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	defer trapFault(&err)
	return fn()
}

// applyToTable runs fn on a permanent table under applyLocked.
func (db *DB) applyToTable(name string, fn func(st *colStore) error) error {
	return db.applyLocked(func() error {
		db.mu.RLock()
		t, ok := db.tables[name]
		db.mu.RUnlock()
		if !ok {
			return errf("42P01", "relation %q does not exist", name)
		}
		return fn(t.store)
	})
}

// ApplyCreateTable creates (or replaces) a permanent table.
func (db *DB) ApplyCreateTable(name string, cols []Column) error {
	return db.applyLocked(func() error {
		db.mu.Lock()
		db.tables[name] = newStoredTable(db, name, cols, nil)
		db.mu.Unlock()
		return nil
	})
}

// ApplyDrop drops a permanent table or view; missing relations are a no-op
// (replay is idempotent past a checkpoint boundary).
func (db *DB) ApplyDrop(name string, view bool) error {
	return db.applyLocked(func() error {
		db.mu.Lock()
		if view {
			delete(db.views, name)
		} else {
			delete(db.tables, name)
		}
		db.mu.Unlock()
		return nil
	})
}

// ApplyCreateView registers a view definition.
func (db *DB) ApplyCreateView(name, sql string) error {
	return db.applyLocked(func() error {
		db.mu.Lock()
		db.views[name] = &storedView{name: name, sql: sql}
		db.mu.Unlock()
		return nil
	})
}

// ApplyAppend appends rows to a permanent table. Every row must be as wide
// as the table, as InsertRows requires.
func (db *DB) ApplyAppend(name string, rows [][]any) error {
	return db.applyToTable(name, func(st *colStore) error {
		// a failed replay fails the open, so rows before a bad one may stay
		for i, r := range rows {
			if len(r) != len(st.cols) {
				return errf("58030", "append replay: row %d has %d values, table %s has %d columns", i, len(r), name, len(st.cols))
			}
			st.appendRow(r)
		}
		return nil
	})
}
