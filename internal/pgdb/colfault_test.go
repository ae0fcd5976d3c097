package pgdb

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// recordingLoader is a fake SegLoader over an in-memory dataset that logs
// every (segment, requested columns) pair, so tests can assert exactly what
// the engine faulted.
type recordingLoader struct {
	mu    sync.Mutex
	calls []struct {
		si   int
		cols []int
	}
	segs []SegmentData
}

func (r *recordingLoader) loader() SegLoader {
	return func(si int, cols []int) (SegmentData, error) {
		r.mu.Lock()
		r.calls = append(r.calls, struct {
			si   int
			cols []int
		}{si, append([]int(nil), cols...)})
		r.mu.Unlock()
		return r.segs[si], nil
	}
}

// restoreLazy registers name as an all-stub table over segs, served by a
// new recording loader.
func restoreLazy(db *DB, name string, cols []Column, segs []SegmentData) *recordingLoader {
	rl := &recordingLoader{segs: segs}
	metas := make([]SegMeta, len(segs))
	for si, sd := range segs {
		metas[si] = SegMeta{N: sd.N, Vecs: make([]VecMeta, len(sd.Vecs))}
		for c, vd := range sd.Vecs {
			metas[si].Vecs[c] = VecMeta{Kind: vd.Kind, NullCnt: vd.NullCnt, Min: vd.Min, Max: vd.Max}
		}
	}
	db.RestoreTableLazy(name, cols, metas, rl.loader())
	return rl
}

// lazyIntTable registers an nSegs × nCols all-stub table where cell (seg,
// col, row) = base pattern values, and returns the recording loader.
func lazyIntTable(t *testing.T, db *DB, name string, nSegs, nCols int) *recordingLoader {
	t.Helper()
	cols := make([]Column, nCols)
	segs := make([]SegmentData, nSegs)
	for si := range segs {
		segs[si] = SegmentData{N: segSize, Vecs: make([]VecData, nCols)}
		for c := 0; c < nCols; c++ {
			vals := make([]int64, segSize)
			for i := range vals {
				// column c's values ≡ c mod nCols: distinguishable, and every
				// segment's zone range overlaps any small constant.
				vals[i] = int64(i*nCols + c)
			}
			segs[si].Vecs[c] = VecData{
				Kind: uint8(vkInt), Ints: vals, Nulls: make([]uint64, segWords),
				Min: vals[0], Max: vals[len(vals)-1],
			}
		}
	}
	for c := range cols {
		cols[c] = Column{Name: fmt.Sprintf("c%d", c), Type: "bigint"}
	}
	return restoreLazy(db, name, cols, segs)
}

// faultedCols is the set of columns the loader was asked for so far (nil
// requests count as every column).
func (r *recordingLoader) faultedCols(width int) map[int]bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[int]bool{}
	for _, call := range r.calls {
		if call.cols == nil {
			for c := 0; c < width; c++ {
				out[c] = true
			}
		}
		for _, c := range call.cols {
			out[c] = true
		}
	}
	return out
}

// requestedCols flattens the loader log into the distinct column sets seen.
func (r *recordingLoader) requested() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]int{}
	for _, call := range r.calls {
		out[fmt.Sprint(call.cols)]++
	}
	return out
}

// TestFaultRequestsOnlyReferencedColumns: a vectorized pruned aggregate over
// a 6-column lazy table asks the loader for exactly the predicate column
// and the aggregated column — never the other four.
func TestFaultRequestsOnlyReferencedColumns(t *testing.T) {
	db := NewDB()
	rl := lazyIntTable(t, db, "t", 3, 6)
	s := db.NewSession()

	res, err := s.Exec("SELECT sum(c2) FROM t WHERE c1 > 100")
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	_ = res
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if len(rl.calls) == 0 {
		t.Fatalf("no loader calls")
	}
	for _, call := range rl.calls {
		if call.cols == nil {
			t.Fatalf("segment %d faulted ALL columns for a 2-column query", call.si)
		}
		for _, c := range call.cols {
			if c != 1 && c != 2 {
				t.Fatalf("segment %d faulted unreferenced column %d (call %v)", call.si, c, call.cols)
			}
		}
	}
}

// TestFaultFallbackRequestsAllColumns: a full-width scan (SELECT *) on a
// stub table ends up requesting every column of every segment, whether the
// engine spells that as nil (all) or as the explicit complete set.
func TestFaultFallbackRequestsAllColumns(t *testing.T) {
	db := NewDB()
	rl := lazyIntTable(t, db, "t", 2, 4)
	s := db.NewSession()
	if _, err := s.Exec("SELECT * FROM t"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	got := map[int]map[int]bool{} // segment → columns requested
	for _, call := range rl.calls {
		cols := call.cols
		if cols == nil {
			cols = []int{0, 1, 2, 3}
		}
		if got[call.si] == nil {
			got[call.si] = map[int]bool{}
		}
		for _, c := range cols {
			got[call.si][c] = true
		}
	}
	if len(got) != 2 {
		t.Fatalf("full scan faulted %d of 2 segments", len(got))
	}
	for si, cols := range got {
		if len(cols) != 4 {
			t.Fatalf("segment %d: full scan materialized %d of 4 columns", si, len(cols))
		}
	}
}

// TestConcurrentDisjointColumnFaults: goroutines faulting different columns
// of the same segment must all see their own column's data — the
// copy-on-write install must compose, not clobber.
func TestConcurrentDisjointColumnFaults(t *testing.T) {
	db := NewDB()
	nCols := 8
	rl := lazyIntTable(t, db, "t", 1, nCols)
	_ = rl
	tbl := db.tables["t"]

	var wg sync.WaitGroup
	errs := make([]error, nCols)
	for c := 0; c < nCols; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer trapFault(&errs[c])
			for i := 0; i < segSize; i += 777 {
				got := tbl.store.cellAt(i, c)
				want := int64(i*nCols + c)
				if got != want {
					errs[c] = fmt.Errorf("cell (%d,%d) = %v, want %d", i, c, got, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("column %d: %v", c, err)
		}
	}
	// After all faults the segment must be fully resident — no stub bit left.
	seg := tbl.store.peekSeg(0)
	if seg.stub {
		t.Fatalf("segment still marked stub after all columns faulted")
	}
}

// TestEvictionIsColumnGranular: evicting a partially resident segment
// reports only the resident columns dropped, and the refault reloads only
// what the next query needs.
func TestEvictionIsColumnGranular(t *testing.T) {
	db := NewDB()
	rl := lazyIntTable(t, db, "t", 2, 5)
	s := db.NewSession()

	if _, err := s.Exec("SELECT sum(c3) FROM t WHERE c0 > 100"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	// Only c0 and c3 are resident in each of the 2 segments.
	var freed int64
	var ncols int
	db.Exclusive(func() {
		freed, ncols = db.EvictSegments("t", 0, 2)
	})
	if ncols != 4 {
		t.Fatalf("evicted %d column vectors, want 4 (2 cols × 2 segs)", ncols)
	}
	if freed == 0 {
		t.Fatalf("eviction reported zero bytes freed")
	}
	db.Exclusive(func() {
		if _, n2 := db.EvictSegments("t", 0, 2); n2 != 0 {
			t.Fatalf("second eviction dropped %d columns from stub segments", n2)
		}
	})

	before := len(rl.calls)
	if _, err := s.Exec("SELECT sum(c1) FROM t WHERE c1 > 100"); err != nil {
		t.Fatalf("refault: %v", err)
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	for _, call := range rl.calls[before:] {
		if !reflect.DeepEqual(call.cols, []int{1}) {
			t.Fatalf("refault requested %v, want [1]", call.cols)
		}
	}
}

// TestZoneSkippedSegmentsNeverFault: when zone metadata alone refutes the
// predicate for a segment, that segment's loader is never called.
func TestZoneSkippedSegmentsNeverFault(t *testing.T) {
	db := NewDB()
	rl := lazyIntTable(t, db, "t", 4, 3)
	s := db.NewSession()

	// Values of c0 run 0·3+0 … within segment-sized windows; every segment
	// holds [c, (segSize-1)*nCols+c], so a negative constant is outside all
	// zones and the scan must answer without any loader call.
	res, err := s.Exec("SELECT count(*) FROM t WHERE c0 < 0")
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if res.Rows[0][0].(int64) != 0 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if len(rl.calls) != 0 {
		t.Fatalf("zone-refuted scan faulted %d segments: %v", len(rl.calls), rl.requested())
	}
}

// TestFallbackBoxesOnlyReadColumns: a shape the vector paths decline still
// runs over a selective lowered filter, and its row-at-a-time operator gets
// only the selected rows with the columns the statement reads — the other
// columns never fault, and the result matches the interpreter over the same
// data.
func TestFallbackBoxesOnlyReadColumns(t *testing.T) {
	for _, c := range []struct {
		sql  string
		read []int
	}{
		{"SELECT c0 + 1 FROM t WHERE c1 > 20000", []int{0, 1}},                                      // computed projection
		{"SELECT c2, c3 FROM t WHERE c1 > 20000 ORDER BY c3 DESC", []int{1, 2, 3}},                  // fused projection + ORDER BY
		{"SELECT c2 % 3, count(*), sum(c4) FROM t WHERE c1 < 5000 GROUP BY c2 % 3", []int{1, 2, 4}}, // expression key
		{"SELECT c5, median(c0) FROM t WHERE c1 < 5000 GROUP BY c5", []int{0, 1, 5}},                // unfused aggregate
	} {
		db, oracle := NewDB(), NewDB()
		oracle.SetExecMode(ExecInterpreted)
		rl := lazyIntTable(t, db, "t", 3, 6)
		lazyIntTable(t, oracle, "t", 3, 6)
		got := mustExec(t, db.NewSession(), c.sql)
		want := mustExec(t, oracle.NewSession(), c.sql)
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Fatalf("%s: %d rows, interpreter %d", c.sql, len(got.Rows), len(want.Rows))
		}
		var faulted []int
		for col := range rl.faultedCols(6) {
			faulted = append(faulted, col)
		}
		sort.Ints(faulted)
		if !reflect.DeepEqual(faulted, c.read) {
			t.Errorf("%s: faulted columns %v, want %v", c.sql, faulted, c.read)
		}
	}
}
