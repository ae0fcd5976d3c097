package persist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hyperq/internal/pgdb"
)

// loadWideTable builds an 8-column table spread over several segments and
// two date partitions, checkpoints it, and closes the store. c1 alternates
// 0/1 (zone-indecisive everywhere), the others are distinct per column so a
// decode mix-up can't go unnoticed.
func loadWideTable(t *testing.T, dir string, opts Options) [][]any {
	t.Helper()
	opts.Dir = dir
	db := pgdb.NewDB()
	st, err := Open(db, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE w (d date, c1 bigint, c2 bigint, c3 double precision,
		c4 varchar, c5 boolean, c6 bigint, c7 varchar)`)
	for day := 0; day < 2; day++ {
		for j := 0; j < 5000; j++ {
			mustExec(t, s, fmt.Sprintf(
				"INSERT INTO w VALUES ('2024-07-%02d', %d, %d, %d.5, 'sym%d', %v, %d, 'x%d')",
				14+day, j%2, j, j, j%5, j%3 == 0, j*7, j))
		}
	}
	want := rowsOf(t, s, "w")
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return want
}

// TestColumnGranularFaultStats: a pruned cold aggregate reading k of the
// table's N columns performs exactly k column faults per scanned segment —
// the predicate faults only its own column, the fused aggregate only the
// aggregated one — and a zone-skipped predicate faults nothing at all.
func TestColumnGranularFaultStats(t *testing.T) {
	for _, mm := range []bool{false, true} {
		t.Run(fmt.Sprintf("mmap=%v", mm), func(t *testing.T) {
			dir := t.TempDir()
			loadWideTable(t, dir, Options{Sync: SyncNone})

			db := pgdb.NewDB()
			st, err := Open(db, Options{Dir: dir, Sync: SyncNone, MMap: mm})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer st.Close()
			s := db.NewSession()
			stats := st.Stats()

			// Zone-map miss: no partition holds that date, so the whole scan
			// answers from stub metadata with zero I/O.
			res := mustExec(t, s, "SELECT count(*) FROM w WHERE d = '2031-01-01'")
			if res.Rows[0][0].(int64) != 0 {
				t.Fatalf("phantom rows: %v", res.Rows[0][0])
			}
			if snap := stats.Snapshot(); snap.SegmentsFaulted != 0 || snap.ColumnsFaulted != 0 {
				t.Fatalf("zone-skipped scan faulted: %+v", snap)
			}

			// Pruned aggregate: WHERE touches c1, SUM touches c2. 10000 rows
			// = 3 segments; c1's zones (0..1) are indecisive everywhere, so
			// the scan faults exactly columns {c1, c2} × 3 segments of the
			// 8-column table.
			res = mustExec(t, s, "SELECT sum(c2) FROM w WHERE c1 = 1")
			wantSum := int64(0)
			for j := 0; j < 5000; j++ {
				if j%2 == 1 {
					wantSum += int64(j) * 2 // both days
				}
			}
			if res.Rows[0][0].(int64) != wantSum {
				t.Fatalf("sum = %v, want %d", res.Rows[0][0], wantSum)
			}
			snap := stats.Snapshot()
			segs := (10000 + pgdb.SegmentSize - 1) / pgdb.SegmentSize
			if snap.ColumnsFaulted != int64(2*segs) {
				t.Fatalf("pruned scan faulted %d columns, want %d (2 cols × %d segs)",
					snap.ColumnsFaulted, 2*segs, segs)
			}
			if snap.ChunksDecoded == 0 {
				t.Fatalf("no chunks decoded: %+v", snap)
			}
			if mm {
				if snap.MMapHits == 0 || snap.BytesRead != 0 {
					t.Fatalf("mmap run should serve all chunks zero-copy: %+v", snap)
				}
			} else {
				if snap.BytesRead == 0 || snap.MMapHits != 0 {
					t.Fatalf("pread run counters off: %+v", snap)
				}
			}

			// Re-running the same query faults nothing: both columns resident.
			mustExec(t, s, "SELECT sum(c2) FROM w WHERE c1 = 1")
			if again := stats.Snapshot(); again.ColumnsFaulted != snap.ColumnsFaulted {
				t.Fatalf("warm rerun faulted %d more columns",
					again.ColumnsFaulted-snap.ColumnsFaulted)
			}
		})
	}
}

// TestPartialResidencyCorrectness: after a column-granular fault leaves a
// segment split between resident and stub columns, row-oriented access
// (SELECT *) must materialize the rest and see exactly the original rows.
func TestPartialResidencyCorrectness(t *testing.T) {
	dir := t.TempDir()
	want := loadWideTable(t, dir, Options{Sync: SyncNone, Compress: true})

	db := pgdb.NewDB()
	st, err := Open(db, Options{Dir: dir, Sync: SyncNone, MMap: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	s := db.NewSession()

	mustExec(t, s, "SELECT sum(c2) FROM w WHERE c1 = 1") // partial residency
	assertSameRows(t, want, rowsOf(t, s, "w"), "full scan over partial segments")

	for _, mode := range []pgdb.ExecMode{pgdb.ExecCompiled, pgdb.ExecInterpreted} {
		db.SetExecMode(mode)
		assertSameRows(t, want, rowsOf(t, s, "w"), fmt.Sprintf("mode %d", mode))
	}
}

// TestCompressedCheckpointRoundTrip writes the same data set with and
// without chunk compression and requires (a) identical query results either
// way, including from a store whose own Compress option differs from the
// writer's, and (b) a strictly smaller on-disk footprint compressed.
func TestCompressedCheckpointRoundTrip(t *testing.T) {
	dirRaw, dirComp := t.TempDir(), t.TempDir()
	want := loadWideTable(t, dirRaw, Options{Sync: SyncNone})
	wantC := loadWideTable(t, dirComp, Options{Sync: SyncNone, Compress: true})
	assertSameRows(t, want, wantC, "pre-checkpoint")

	sizeOf := func(dir string) int64 {
		var total int64
		filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() && strings.HasSuffix(p, ".col") {
				total += info.Size()
			}
			return nil
		})
		return total
	}
	raw, comp := sizeOf(dirRaw), sizeOf(dirComp)
	if comp >= raw {
		t.Fatalf("compressed checkpoint %d B not smaller than raw %d B", comp, raw)
	}

	// A non-compressing, non-mmap store reads the compressed checkpoint.
	for _, opts := range []Options{
		{Dir: dirComp, Sync: SyncNone},
		{Dir: dirComp, Sync: SyncNone, MMap: true},
		{Dir: dirRaw, Sync: SyncNone, Compress: true},
	} {
		db := pgdb.NewDB()
		st, err := Open(db, opts)
		if err != nil {
			t.Fatalf("reopen %+v: %v", opts, err)
		}
		assertSameRows(t, want, rowsOf(t, db.NewSession(), "w"),
			fmt.Sprintf("mmap=%v dir=%s", opts.MMap, opts.Dir))
		st.Close()
	}
}

// TestChunkCodecRoundTrip drives encodeChunk/decodeChunkInto directly over
// every vector kind and the patterns each compressed encoding targets,
// in all four {compress} × {zeroCopy} combinations.
func TestChunkCodecRoundTrip(t *testing.T) {
	const n = 1000
	nulls := make([]uint64, (n+63)/64)
	for i := 0; i < n; i += 97 {
		nulls[i>>6] |= 1 << (uint(i) & 63)
	}
	sorted := make([]int64, n)
	clustered := make([]int64, n)
	wild := make([]int64, n)
	for i := range sorted {
		sorted[i] = 1_000_000 + int64(i)*3
		clustered[i] = 42 + int64(i%7)
		wild[i] = int64(uint64(i) * 0x9E3779B97F4A7C15) // wraps: exercises uint64 FOR
	}
	floats := make([]float64, n)
	for i := range floats {
		floats[i] = float64(i) * 1.5
	}
	floats[3] = math.NaN()
	floats[4] = math.Inf(-1)
	lowCard := make([]string, n)
	uniq := make([]string, n)
	for i := range lowCard {
		lowCard[i] = fmt.Sprintf("sym%d", i%5)
		uniq[i] = fmt.Sprintf("val-%d-%d", i, i*i)
	}
	bools := make([]bool, n)
	for i := range bools {
		bools[i] = i%100 < 90
	}
	anys := make([]any, n)
	for i := range anys {
		switch i % 4 {
		case 0:
			anys[i] = int64(i)
		case 1:
			anys[i] = fmt.Sprintf("a%d", i)
		case 2:
			anys[i] = i%8 == 1
		default:
			anys[i] = nil
		}
	}

	cases := []struct {
		name      string
		v         pgdb.VecData
		wantSmall bool // compressed payload must beat raw
	}{
		{"int-sorted", pgdb.VecData{Kind: 1, Ints: sorted, Nulls: nulls}, true},
		{"int-clustered", pgdb.VecData{Kind: 1, Ints: clustered, Nulls: nulls}, true},
		{"int-wild", pgdb.VecData{Kind: 1, Ints: wild, Nulls: make([]uint64, len(nulls))}, false},
		{"float", pgdb.VecData{Kind: 2, Floats: floats, Nulls: nulls}, false},
		{"str-lowcard", pgdb.VecData{Kind: 3, Strs: lowCard, Nulls: nulls}, true},
		{"str-unique", pgdb.VecData{Kind: 3, Strs: uniq, Nulls: make([]uint64, len(nulls))}, false},
		{"bool-runs", pgdb.VecData{Kind: 4, Bools: bools, Nulls: nulls}, true},
		{"any", pgdb.VecData{Kind: 5, Anys: anys, Nulls: nulls}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rawBuf, err := encodeChunk(tc.v, n, 0, n, false)
			if err != nil {
				t.Fatalf("encode raw: %v", err)
			}
			compBuf, err := encodeChunk(tc.v, n, 0, n, true)
			if err != nil {
				t.Fatalf("encode compressed: %v", err)
			}
			if tc.wantSmall && len(compBuf) >= len(rawBuf) {
				t.Fatalf("compressed %d B >= raw %d B", len(compBuf), len(rawBuf))
			}
			for _, enc := range [][]byte{rawBuf, compBuf} {
				for _, zc := range []bool{false, true} {
					dst := pgdb.VecData{Kind: tc.v.Kind, Nulls: make([]uint64, len(tc.v.Nulls))}
					switch tc.v.Kind {
					case vkInt:
						dst.Ints = make([]int64, n)
					case vkFloat:
						dst.Floats = make([]float64, n)
					case vkStr:
						dst.Strs = make([]string, n)
					case vkBool:
						dst.Bools = make([]bool, n)
					case vkAny:
						dst.Anys = make([]any, n)
					}
					if err := decodeChunkInto(&dst, 0, n, enc, zc); err != nil {
						t.Fatalf("decode (zc=%v): %v", zc, err)
					}
					if !reflect.DeepEqual(dst.Nulls, tc.v.Nulls) {
						t.Fatalf("nulls diverge (zc=%v)", zc)
					}
					var got, want any
					switch tc.v.Kind {
					case vkInt:
						got, want = dst.Ints, tc.v.Ints
					case vkFloat:
						// NaN != NaN under DeepEqual on purpose: compare bits.
						gb := make([]uint64, n)
						wb := make([]uint64, n)
						for i := range gb {
							gb[i] = math.Float64bits(dst.Floats[i])
							wb[i] = math.Float64bits(tc.v.Floats[i])
						}
						got, want = gb, wb
					case vkStr:
						got, want = dst.Strs, tc.v.Strs
					case vkBool:
						got, want = dst.Bools, tc.v.Bools
					case vkAny:
						got, want = dst.Anys, tc.v.Anys
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("data diverges (zc=%v, compressed=%v)", zc, len(enc) == len(compBuf))
					}
				}
			}
		})
	}
}

// TestCorruptColumnFileFault flips the first payload byte of one column
// file and requires a fault through it to fail as a clean statement error
// (SQLSTATE 58030 surface) without installing a partial segment, while
// reads of intact columns keep working.
func TestCorruptColumnFileFault(t *testing.T) {
	dir := t.TempDir()
	loadWideTable(t, dir, Options{Sync: SyncNone})

	// Corrupt c2's file in the first partition: flip the kind byte of the
	// first chunk payload so decoding fails deterministically.
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*", "w", "*", "c2.col"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no c2 column files: %v", err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatalf("read column file: %v", err)
	}
	nChunks := int(binary.LittleEndian.Uint32(raw[4:]))
	payloadOff := 8 + nChunks*28
	raw[payloadOff] ^= 0xFF
	if err := os.WriteFile(matches[0], raw, 0o644); err != nil {
		t.Fatalf("write corrupted file: %v", err)
	}

	db := pgdb.NewDB()
	st, err := Open(db, Options{Dir: dir, Sync: SyncNone})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	s := db.NewSession()

	// Intact columns still serve.
	res := mustExec(t, s, "SELECT sum(c6) FROM w WHERE c1 = 1")
	if res.Rows[0][0] == nil {
		t.Fatalf("intact column scan returned nil")
	}

	// The corrupted column errors cleanly — a statement error, not a panic,
	// and not silently wrong data.
	if _, err := s.Exec("SELECT sum(c2) FROM w WHERE c1 = 1"); err == nil {
		t.Fatalf("corrupted column fault should error")
	} else if !strings.Contains(err.Error(), "chunk kind") {
		t.Fatalf("unexpected error: %v", err)
	}

	// The failed fault must not have installed a partial segment: the same
	// statement over intact columns still answers, and retrying the broken
	// one fails the same way instead of serving half-decoded data.
	res2 := mustExec(t, s, "SELECT sum(c6) FROM w WHERE c1 = 1")
	if !reflect.DeepEqual(res.Rows, res2.Rows) {
		t.Fatalf("post-failure scan diverged: %v vs %v", res2.Rows, res.Rows)
	}
	if _, err := s.Exec("SELECT sum(c2) FROM w WHERE c1 = 1"); err == nil {
		t.Fatalf("retry over corrupted column should error again")
	}
}

// TestCompressedCrashRecovery reruns the checkpoint kill-points with chunk
// compression on and reopens each crash state with mmap on — the torn
// compressed checkpoint must never be visible.
func TestCompressedCrashRecovery(t *testing.T) {
	points := []string{"before-files", "mid-files", "before-manifest", "before-current", "before-wal-reset"}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			_, s, st := openStore(t, dir, Options{Sync: SyncAlways, Compress: true})
			mustExec(t, s, "CREATE TABLE t (d date, v bigint, s varchar)")
			for i := 0; i < 60; i++ {
				mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES ('2024-07-%02d', %d, 'sym%d')", 14+i%3, i, i%4))
			}
			if err := st.Checkpoint(); err != nil {
				t.Fatalf("first checkpoint: %v", err)
			}
			mustExec(t, s, "UPDATE t SET v = v + 1000 WHERE v < 10")
			want := rowsOf(t, s, "t")

			st.SetFailpoint(point)
			if err := st.Checkpoint(); err == nil {
				t.Fatalf("checkpoint should have failed at %s", point)
			}
			st.Close()

			_, s2, st2 := openStore(t, dir, Options{Sync: SyncAlways, Compress: true, MMap: true})
			assertSameRows(t, want, rowsOf(t, s2, "t"), point)
			mustExec(t, s2, "INSERT INTO t VALUES ('2024-07-17', 999, 'z')")
			if err := st2.Checkpoint(); err != nil {
				t.Fatalf("post-recovery checkpoint: %v", err)
			}
			st2.Close()
		})
	}
}

// TestEvictionChurnCompressedMMap drives eviction-and-refault cycles with
// compression and mmap on, checking the stats counters move and results
// stay exact.
func TestEvictionChurnCompressedMMap(t *testing.T) {
	dir := t.TempDir()
	want := loadWideTable(t, dir, Options{Sync: SyncNone, Compress: true})

	db := pgdb.NewDB()
	st, err := Open(db, Options{Dir: dir, Sync: SyncNone, Compress: true, MMap: true, MemBudget: 1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	s := db.NewSession()
	for i := 0; i < 3; i++ {
		assertSameRows(t, want, rowsOf(t, s, "w"), fmt.Sprintf("churn %d", i))
	}
	snap := st.Stats().Snapshot()
	if snap.Evictions == 0 {
		t.Fatalf("budget of 1 byte never evicted: %+v", snap)
	}
	if snap.ColumnsFaulted == 0 || snap.MMapHits == 0 {
		t.Fatalf("churn did not refault through mmap: %+v", snap)
	}
}

// TestServeStats exposes the counters over HTTP and checks the expvar-style
// document reflects a fault.
func TestServeStats(t *testing.T) {
	dir := t.TempDir()
	loadWideTable(t, dir, Options{Sync: SyncNone})
	db := pgdb.NewDB()
	st, err := Open(db, Options{Dir: dir, Sync: SyncNone})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	addr, err := ServeStats("127.0.0.1:0", st.Stats())
	if err != nil {
		t.Fatalf("ServeStats: %v", err)
	}
	mustExec(t, db.NewSession(), "SELECT count(*) FROM w WHERE c1 = 1")

	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var vars map[string]int64
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("unmarshal %q: %v", body, err)
	}
	if vars["persist.columns_faulted"] == 0 || vars["persist.chunks_decoded"] == 0 {
		t.Fatalf("endpoint shows no activity: %v", vars)
	}
}
