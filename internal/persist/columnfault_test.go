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
	dir := t.TempDir()
	loadWideTable(t, dir, Options{Sync: SyncNone})

	db := pgdb.NewDB()
	st, err := Open(db, Options{Dir: dir, Sync: SyncNone})
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

	// Pruned aggregate: WHERE touches c1, SUM touches c2. 10000 rows = 3
	// segments; c1's zones (0..1) are indecisive everywhere, so the scan
	// faults exactly columns {c1, c2} × 3 segments of the 8-column table.
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
	if snap.ChunksDecoded == 0 || snap.BytesRead == 0 {
		t.Fatalf("fault counters off: %+v", snap)
	}

	// Re-running the same query faults nothing: both columns resident.
	mustExec(t, s, "SELECT sum(c2) FROM w WHERE c1 = 1")
	if again := stats.Snapshot(); again.ColumnsFaulted != snap.ColumnsFaulted {
		t.Fatalf("warm rerun faulted %d more columns",
			again.ColumnsFaulted-snap.ColumnsFaulted)
	}
}

// TestPartialResidencyCorrectness: after a column-granular fault leaves a
// segment split between resident and stub columns, row-oriented access
// (SELECT *) must materialize the rest and see exactly the original rows.
func TestPartialResidencyCorrectness(t *testing.T) {
	dir := t.TempDir()
	want := loadWideTable(t, dir, Options{Sync: SyncNone})

	db := pgdb.NewDB()
	st, err := Open(db, Options{Dir: dir, Sync: SyncNone})
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

// TestCompressedCheckpointRoundTrip rewrites the raw checkpoint: the
// writer's per-chunk encodings must leave strictly smaller column files,
// and a cold reopen of them must return the same rows.
func TestCompressedCheckpointRoundTrip(t *testing.T) {
	dir := rawCheckpoint(t)
	_, _, st := openStore(t, dir, Options{Sync: SyncNone})
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st.Close()

	colBytes := func(dir string) int64 {
		var total int64
		filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() && strings.HasSuffix(p, ".col") {
				total += info.Size()
			}
			return nil
		})
		return total
	}
	if raw, comp := colBytes(rawCheckpointDir), colBytes(dir); comp >= raw {
		t.Fatalf("rewritten checkpoint %d B not smaller than raw %d B", comp, raw)
	}

	_, s, st := openStore(t, dir, Options{Sync: SyncNone})
	defer st.Close()
	assertSameRows(t, compatOracle(t), rowsOf(t, s, "compat"), "rewritten checkpoint")
}

// TestChunkCodecRoundTrip drives encodeChunk/decodeChunkInto directly over
// every vector kind and the patterns each encoding targets. Every shape
// decodes both from encodeChunk's output and from an all-raw chunk (raw
// null bitmap, encodeDataRaw data section), so the raw decoder branches stay
// covered for every kind. The writer's choice is never larger than raw, and
// strictly smaller where an encoding fits the pattern.
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
		{"str-lowcard", strVec(lowCard, nulls), true},
		{"str-unique", strVec(uniq, make([]uint64, len(nulls))), false},
		{"bool-runs", pgdb.VecData{Kind: 4, Bools: bools, Nulls: nulls}, true},
		{"any", pgdb.VecData{Kind: 5, Anys: anys, Nulls: nulls}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := encodeChunk(tc.v, 0, n)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			raw := rawChunk(t, tc.v, n)
			if len(enc) > len(raw) || tc.wantSmall && len(enc) == len(raw) {
				t.Fatalf("encoded %d B against raw %d B (want smaller: %v)", len(enc), len(raw), tc.wantSmall)
			}
			for _, chunk := range []struct {
				layout string
				b      []byte
			}{{"encoded", enc}, {"raw", raw}} {
				dst := segVec(tc.v.Kind, n)
				if err := decodeChunkInto(&dst, 0, n, chunk.b); err != nil {
					t.Fatalf("decode %s: %v", chunk.layout, err)
				}
				if !reflect.DeepEqual(dst.Nulls, tc.v.Nulls) {
					t.Fatalf("%s nulls diverge", chunk.layout)
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
					got, want = cellStrs(dst), cellStrs(tc.v)
				case vkBool:
					got, want = dst.Bools, tc.v.Bools
				case vkAny:
					got, want = dst.Anys, tc.v.Anys
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s data diverges", chunk.layout)
				}
			}
		})
	}
}

// strVec is the string vector of vals, NULL where nulls sets a bit: codes
// into a dictionary of the non-NULL values in first-appearance order.
func strVec(vals []string, nulls []uint64) pgdb.VecData {
	v := pgdb.VecData{Kind: vkStr, Codes: make([]uint16, len(vals)), Nulls: nulls}
	idx := map[string]uint16{}
	for i, s := range vals {
		if nullAt(v.Nulls, i) {
			continue
		}
		c, ok := idx[s]
		if !ok {
			c = uint16(len(v.Dict))
			v.Dict = append(v.Dict, s)
			idx[s] = c
		}
		v.Codes[i] = c
	}
	return v
}

// cellStrs lists a string vector's cells, "" for a NULL row.
func cellStrs(v pgdb.VecData) []string {
	out := make([]string, len(v.Codes))
	for i, c := range v.Codes {
		if !nullAt(v.Nulls, i) {
			out[i] = v.Dict[c]
		}
	}
	return out
}

// rawChunk lays rows [0, n) of v out with no encoding at all: a raw null
// bitmap (even when v has no nulls) and encodeDataRaw's data section.
func rawChunk(t *testing.T, v pgdb.VecData, n int) []byte {
	t.Helper()
	buf := append([]byte{v.Kind}, binary.LittleEndian.AppendUint32(nil, uint32(n))...)
	buf = append(buf, nullRaw)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Nulls)))
	for _, w := range v.Nulls {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	data, err := encodeDataRaw(v, 0, n)
	if err != nil {
		t.Fatalf("encode raw: %v", err)
	}
	buf = append(buf, dataRaw)
	return append(buf, data...)
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

// TestCorruptCheckpointMetadata: checkpoint metadata claiming impossible
// extents — a chunk running past its file or negative once read as int64,
// a segment of 2^50 rows, a segment missing column vectors — fails Open or
// the statement that reads it with an error. Trusting any of them panics or
// allocates from the corrupt field, which takes the whole process down.
func TestCorruptCheckpointMetadata(t *testing.T) {
	src := t.TempDir()
	loadWideTable(t, src, Options{Sync: SyncNone})

	rewrite := func(t *testing.T, pattern string, edit func([]byte) []byte) {
		t.Helper()
		matches, err := filepath.Glob(pattern)
		if err != nil || len(matches) == 0 {
			t.Fatalf("no file matches %s: %v", pattern, err)
		}
		raw, err := os.ReadFile(matches[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(matches[0], edit(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	chunkSize := func(size uint64) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			rewrite(t, filepath.Join(dir, "ckpt-*", "w", "*", "c2.col"), func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[8+20:], size) // first entry's size field
				return b
			})
		}
	}
	segment := func(edit func(*manifestSeg)) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			rewrite(t, filepath.Join(dir, "ckpt-*", "manifest.json"), func(b []byte) []byte {
				var m manifest
				if err := json.Unmarshal(b, &m); err != nil {
					t.Fatal(err)
				}
				edit(&m.Tables[0].Segs[0])
				out, err := json.Marshal(&m)
				if err != nil {
					t.Fatal(err)
				}
				return out
			})
		}
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*testing.T, string)
	}{
		{"chunk-past-eof", chunkSize(1 << 62)},
		{"chunk-size-negative", chunkSize(1 << 63)},
		{"segment-rows-huge", segment(func(s *manifestSeg) { s.N = 1 << 50 })},
		{"segment-missing-vecs", segment(func(s *manifestSeg) { s.Vecs = s.Vecs[:3] })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, src, dir)
			tc.corrupt(t, dir)
			db := pgdb.NewDB()
			st, err := Open(db, Options{Dir: dir, Sync: SyncNone})
			if err != nil {
				return // refused at open: the cheapest clean error
			}
			defer st.Close()
			if _, err := db.NewSession().Exec("SELECT * FROM w"); err == nil {
				t.Fatal("corrupt checkpoint served rows without error")
			}
		})
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
