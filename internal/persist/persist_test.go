package persist

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hyperq/internal/pgdb"
)

func mustExec(t *testing.T, s *pgdb.Session, sql string) *pgdb.Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func openStore(t *testing.T, dir string, opts Options) (*pgdb.DB, *pgdb.Session, *Store) {
	t.Helper()
	opts.Dir = dir
	db := pgdb.NewDB()
	st, err := Open(db, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db, db.NewSession(), st
}

// rowsOf fetches a table's full contents in insertion order.
func rowsOf(t *testing.T, s *pgdb.Session, table string) [][]any {
	t.Helper()
	return mustExec(t, s, "SELECT * FROM "+table).Rows
}

func assertSameRows(t *testing.T, want, got [][]any, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: row count %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("%s: row %d: got %v want %v", label, i, got[i], want[i])
		}
	}
}

func TestRoundTripAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	_, s, st := openStore(t, dir, Options{Sync: SyncAlways})
	mustExec(t, s, "CREATE TABLE trades (d date, sym varchar, price double precision, size bigint)")
	for day := 0; day < 3; day++ {
		for i := 0; i < 100; i++ {
			mustExec(t, s, fmt.Sprintf(
				"INSERT INTO trades VALUES ('2024-07-%02d', 'S%d', %d.5, %d)",
				14+day, i%7, i, i*10))
		}
	}
	mustExec(t, s, "CREATE VIEW big AS SELECT sym, price FROM trades WHERE size > 500")
	want := rowsOf(t, s, "trades")
	wantView := rowsOf(t, s, "big")
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	for _, mode := range []pgdb.ExecMode{pgdb.ExecCompiled, pgdb.ExecInterpreted} {
		db2, s2, st2 := openStore(t, dir, Options{Sync: SyncAlways})
		db2.SetExecMode(mode)
		assertSameRows(t, want, rowsOf(t, s2, "trades"), fmt.Sprintf("mode %d", mode))
		assertSameRows(t, wantView, rowsOf(t, s2, "big"), fmt.Sprintf("view mode %d", mode))
		if st2.ReplayedChanges() {
			t.Fatalf("clean checkpointed dir should not report replayed changes")
		}
		st2.Close()
	}

	// Partition dirs exist, splayed one file per column.
	ents, err := os.ReadDir(filepath.Join(dir, "ckpt-00000001", "trades"))
	if err != nil {
		t.Fatalf("checkpoint layout: %v", err)
	}
	if len(ents) != 3 {
		t.Fatalf("want 3 date partitions, got %d", len(ents))
	}
	cols, err := os.ReadDir(filepath.Join(dir, "ckpt-00000001", "trades", ents[0].Name()))
	if err != nil || len(cols) != 4 {
		t.Fatalf("want 4 column files, got %d (%v)", len(cols), err)
	}
}

// TestViewKeepsSourceText: a view is stored as the text of its SELECT as
// written — comments, keyword case, quoted identifiers and a string literal
// holding ';' and '--' included — and that text survives a checkpoint with a
// cold reopen and a WAL replay.
func TestViewKeepsSourceText(t *testing.T) {
	const sel = "Select \"sym\", price -- note; not the end\n" +
		"  FROM trades /* only the\nbig ones */ WHERE note <> 'a;b -- c' AND size > 500"
	create := "CREATE VIEW big AS /* not stored */ " + sel + " ;"
	setup := func(t *testing.T, dir string) ([][]any, *Store) {
		db, s, st := openStore(t, dir, Options{Sync: SyncAlways})
		mustExec(t, s, "CREATE TABLE trades (sym varchar, price double precision, size bigint, note varchar)")
		for i := 0; i < 20; i++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO trades VALUES ('S%d', %d.5, %d, '%s')", i%3, i, i*60, []string{"x", "a;b -- c"}[i%2]))
		}
		mustExec(t, s, create)
		var views map[string]string
		db.Exclusive(func() { views = db.SnapshotViews() })
		if views["big"] != sel {
			t.Fatalf("stored definition %q, want the source slice %q", views["big"], sel)
		}
		want := mustExec(t, s, sel).Rows
		if len(want) == 0 {
			t.Fatal("the inline select returned no rows")
		}
		assertSameRows(t, want, rowsOf(t, s, "big"), "view vs inline select")
		return want, st
	}
	reopened := func(t *testing.T, dir string, want [][]any, replayed bool) {
		db, s, st := openStore(t, dir, Options{Sync: SyncAlways})
		defer st.Close()
		if st.ReplayedChanges() != replayed {
			t.Fatalf("replayed changes = %v, want %v", st.ReplayedChanges(), replayed)
		}
		var views map[string]string
		db.Exclusive(func() { views = db.SnapshotViews() })
		if views["big"] != sel {
			t.Fatalf("reopened definition %q, want %q", views["big"], sel)
		}
		assertSameRows(t, want, rowsOf(t, s, "big"), "reopened view")
	}
	t.Run("checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		want, st := setup(t, dir)
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		reopened(t, dir, want, false)
	})
	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		want, st := setup(t, dir)
		st.Close() // no checkpoint: the view comes back from the WAL
		reopened(t, dir, want, true)
	})
}

func TestWALOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	_, s, st := openStore(t, dir, Options{Sync: SyncAlways})
	mustExec(t, s, "CREATE TABLE t (a bigint, b varchar)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 'x'), (2, NULL), (3, 'z')")
	// every record kind: CREATE, APPEND, CTAS (CREATE + APPEND), view, DROP
	mustExec(t, s, "CREATE TABLE u AS SELECT a, b FROM t WHERE a > 1")
	mustExec(t, s, "CREATE VIEW v AS SELECT a FROM u WHERE b IS NULL")
	mustExec(t, s, "CREATE TABLE gone (a bigint)")
	mustExec(t, s, "INSERT INTO gone VALUES (7)")
	mustExec(t, s, "DROP TABLE gone")
	mustExec(t, s, "INSERT INTO t VALUES (4, 'w')")
	want, wantU, wantV := rowsOf(t, s, "t"), rowsOf(t, s, "u"), rowsOf(t, s, "v")
	st.Close() // no checkpoint: everything must come back from the WAL

	_, s2, st2 := openStore(t, dir, Options{Sync: SyncAlways})
	if !st2.ReplayedChanges() {
		t.Fatalf("expected replayed changes")
	}
	assertSameRows(t, want, rowsOf(t, s2, "t"), "wal-only t")
	assertSameRows(t, wantU, rowsOf(t, s2, "u"), "wal-only ctas")
	assertSameRows(t, wantV, rowsOf(t, s2, "v"), "wal-only view")
	if _, err := s2.Exec("SELECT * FROM gone"); err == nil {
		t.Fatal("a dropped table came back from the WAL")
	}
	st2.Close()
}

// TestCrashMidWALAppend is the kill-at-fault-point torture test for the
// log: a statement dies mid-append at every byte offset in a window, and
// after each crash the reopened store must equal the in-memory oracle of
// acked statements exactly — torn tails truncated, no acked row lost.
func TestCrashMidWALAppend(t *testing.T) {
	stmts := func(i int) string {
		return fmt.Sprintf("INSERT INTO t VALUES (%d, 'row-%d')", i, i)
	}
	for fail := int64(1); fail < 400; fail += 13 {
		dir := t.TempDir()
		_, s, st := openStore(t, dir, Options{Sync: SyncAlways})
		mustExec(t, s, "CREATE TABLE t (a bigint, b varchar)")

		oracle := pgdb.NewDB()
		os0 := oracle.NewSession()
		mustExec(t, os0, "CREATE TABLE t (a bigint, b varchar)")

		st.FailWALAfter(st.WALSize() + fail)
		acked := 0
		for i := 0; i < 40; i++ {
			if _, err := s.Exec(stmts(i)); err != nil {
				break // crashed mid-append: statement not acked
			}
			mustExec(t, os0, stmts(i))
			acked++
		}
		st.Close()

		_, s2, st2 := openStore(t, dir, Options{Sync: SyncAlways})
		got := rowsOf(t, s2, "t")
		want := rowsOf(t, os0, "t")
		assertSameRows(t, want, got, fmt.Sprintf("fail@+%d (acked %d)", fail, acked))
		// the store must be writable again after recovery
		mustExec(t, s2, stmts(1000))
		st2.Close()
	}
}

// TestCrashMidCheckpoint kills the checkpoint at each injected fault point
// and verifies recovery sees either the old or the new checkpoint — never
// a half state — and always row-for-row matches the oracle.
func TestCrashMidCheckpoint(t *testing.T) {
	crashMidCheckpoint(t, "", func(int) string { return "" })
}

// TestCompressedCrashRecovery reruns the kill-points over string and bool
// columns, whose chunks take the dictionary and run-length encodings.
func TestCompressedCrashRecovery(t *testing.T) {
	crashMidCheckpoint(t, ", s varchar, b boolean", func(i int) string { return fmt.Sprintf(", 'sym%d', %v", i%4, i < 20) })
}

// crashMidCheckpoint runs the kill-points over table t (d date, v bigint
// plus extraCols), with extraVals(i) rendering row i's extra values.
func crashMidCheckpoint(t *testing.T, extraCols string, extraVals func(i int) string) {
	points := []string{"before-files", "mid-files", "before-manifest", "before-current", "before-wal-reset"}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			_, s, st := openStore(t, dir, Options{Sync: SyncAlways})
			mustExec(t, s, "CREATE TABLE t (d date, v bigint"+extraCols+")")
			for i := 0; i < 50; i++ {
				mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES ('2024-07-%02d', %d%s)", 14+i%3, i, extraVals(i)))
			}
			if err := st.Checkpoint(); err != nil {
				t.Fatalf("first checkpoint: %v", err)
			}
			mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES ('2024-07-18', 1000%s), ('2024-07-13', -1%s)", extraVals(1000), extraVals(1001)))
			mustExec(t, s, "CREATE TABLE side AS SELECT * FROM t WHERE v < 10")
			mustExec(t, s, "DROP TABLE side")
			want := rowsOf(t, s, "t")

			st.SetFailpoint(point)
			if err := st.Checkpoint(); err == nil {
				t.Fatalf("checkpoint should have failed at %s", point)
			}
			st.Close()

			_, s2, st2 := openStore(t, dir, Options{Sync: SyncAlways})
			assertSameRows(t, want, rowsOf(t, s2, "t"), point)
			// and the reopened store can checkpoint + keep going
			mustExec(t, s2, fmt.Sprintf("INSERT INTO t VALUES ('2024-07-17', 999%s)", extraVals(999)))
			if err := st2.Checkpoint(); err != nil {
				t.Fatalf("post-recovery checkpoint: %v", err)
			}
			st2.Close()
		})
	}
}

func TestEvictionAndReload(t *testing.T) {
	dir := t.TempDir()
	db, s, st := openStore(t, dir, Options{Sync: SyncNone, MemBudget: 1})
	mustExec(t, s, "CREATE TABLE t (d date, v bigint)")
	for i := 0; i < 3; i++ {
		for lo := 0; lo < 5000; lo += 500 {
			vals := make([]string, 500)
			for j := range vals {
				vals[j] = fmt.Sprintf("('2024-07-%02d', %d)", 14+i, lo+j)
			}
			mustExec(t, s, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
		}
	}
	want := rowsOf(t, s, "t")
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	mustExec(t, s, "SELECT count(*) FROM t") // afterStmt runs eviction

	var resident int64
	db.Exclusive(func() {
		for _, b := range db.ResidentBytes() {
			resident += b
		}
	})
	// Budget of 1 byte: everything checkpointed and full should be evicted
	// (only the partial tail segment may stay).
	if resident > 1<<20 {
		t.Fatalf("eviction left %d resident bytes", resident)
	}
	// Each full scan faults the evicted segments back and the next
	// statement evicts them again.
	for i := 0; i < 3; i++ {
		assertSameRows(t, want, rowsOf(t, s, "t"), fmt.Sprintf("reload %d after eviction", i))
	}
	if snap := st.Stats().Snapshot(); snap.Evictions == 0 || snap.ColumnsFaulted == 0 {
		t.Fatalf("churn did not evict and refault: %+v", snap)
	}

	// Rows appended after the checkpoint sit past its segments: eviction
	// beside them keeps the table intact.
	mustExec(t, s, "INSERT INTO t VALUES ('2024-07-20', 17), ('2024-07-21', NULL)")
	want2 := rowsOf(t, s, "t")
	mustExec(t, s, "SELECT count(*) FROM t")
	assertSameRows(t, want2, rowsOf(t, s, "t"), "appended table intact")
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after insert: %v", err)
	}
	assertSameRows(t, want2, rowsOf(t, s, "t"), "after second checkpoint")
	st.Close()
}

// TestColdOpenPrunesWithoutFaulting: after a restart every segment is a
// stub carrying only zone metadata; a selective vectorized scan must answer
// from a subset of partitions, leaving most of the table on disk.
func TestColdOpenPrunesWithoutFaulting(t *testing.T) {
	dir := t.TempDir()
	{
		_, s, st := openStore(t, dir, Options{Sync: SyncNone})
		mustExec(t, s, "CREATE TABLE t (d date, v bigint)")
		for i := 0; i < 5; i++ {
			for j := 0; j < 5000; j++ {
				mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES ('2024-07-%02d', %d)", 10+i, i*5000+j))
			}
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		st.Close()
	}

	db, s, st := openStore(t, dir, Options{Sync: SyncNone})
	defer st.Close()
	var totalBytes int64
	db.Exclusive(func() {
		for _, b := range db.ResidentBytes() {
			totalBytes += b
		}
	})
	if totalBytes != 0 {
		t.Fatalf("cold open should be all stubs, found %d resident bytes", totalBytes)
	}
	res := mustExec(t, s, "SELECT count(*) FROM t WHERE d = '2024-07-12'")
	if res.Rows[0][0].(int64) != 5000 {
		t.Fatalf("pruned count = %v", res.Rows[0][0])
	}
	var after int64
	db.Exclusive(func() {
		for _, b := range db.ResidentBytes() {
			after += b
		}
	})
	// 1/5th of the dates → roughly 1/5th of the segments faulted; anything
	// under half proves zone pruning survived the round-trip.
	full := int64(25000 / 4096 * 40000) // loose scale reference; just bound it
	_ = full
	if after == 0 {
		t.Fatalf("scan should have faulted the matching partition in")
	}
	var segsResident, segsTotal int
	db.Exclusive(func() {
		segsTotal = 25000/pgdb.SegmentSize + 1
	})
	_ = segsResident
	// 5000 matching rows span ≤ 3 segments of 4096; allow 4.
	maxBytes := int64(4) * int64(pgdb.SegmentSize) * 16 * 4
	if after > maxBytes {
		t.Fatalf("pruned cold scan faulted %d bytes (limit %d) of %d segs", after, maxBytes, segsTotal)
	}
}

// TestDifferentialOracle runs a seeded random write workload — INSERTs,
// CTAS, views and DROPs — against a persisted database with periodic
// checkpoints and restarts, comparing it after every restart to a
// memory-only oracle that saw the same acked statements, under both
// execution engines.
func TestDifferentialOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			oracle := pgdb.NewDB()
			osess := oracle.NewSession()
			db, s, st := openStore(t, dir, Options{Sync: SyncAlways})

			ddl := "CREATE TABLE t (d date, sym varchar, v bigint, p double precision)"
			mustExec(t, osess, ddl)
			mustExec(t, s, ddl)

			step := func(sql string) {
				mustExec(t, osess, sql)
				mustExec(t, s, sql)
			}
			for i := 0; i < 600; i++ {
				switch r := rng.Intn(10); {
				case r < 6:
					step(fmt.Sprintf("INSERT INTO t VALUES ('2024-07-%02d', 'S%d', %d, %d.25)",
						10+rng.Intn(5), rng.Intn(5), rng.Intn(1000), rng.Intn(100)))
				case r < 8:
					step(fmt.Sprintf("INSERT INTO t VALUES ('2024-07-%02d', 'S%d', %d, NULL), (NULL, NULL, NULL, %d.5)",
						10+rng.Intn(5), rng.Intn(5), rng.Intn(1000), rng.Intn(100)))
				case r < 9:
					step("DROP TABLE IF EXISTS side")
					step(fmt.Sprintf("CREATE TABLE side AS SELECT sym, v FROM t WHERE v %% 97 = %d", rng.Intn(97)))
				default:
					step("DROP VIEW IF EXISTS sv")
					step(fmt.Sprintf("CREATE VIEW sv AS SELECT v FROM t WHERE sym = 'S%d'", rng.Intn(5)))
				}
				if i%150 == 149 {
					if rng.Intn(2) == 0 {
						if err := st.Checkpoint(); err != nil {
							t.Fatalf("Checkpoint: %v", err)
						}
					}
					st.Close()
					db, s, st = openStore(t, dir, Options{Sync: SyncAlways})
					for _, mode := range []pgdb.ExecMode{pgdb.ExecCompiled, pgdb.ExecInterpreted} {
						db.SetExecMode(mode)
						for _, rel := range []string{"t", "side", "sv"} {
							if _, err := osess.Exec("SELECT * FROM " + rel); err != nil {
								continue // not created yet
							}
							assertSameRows(t, rowsOf(t, osess, rel), rowsOf(t, s, rel),
								fmt.Sprintf("%s at step %d mode %d", rel, i, mode))
						}
					}
					db.SetExecMode(pgdb.ExecCompiled)
				}
			}
			st.Close()
		})
	}
}

func TestSyncModesAndBatchCommit(t *testing.T) {
	for _, mode := range []SyncMode{SyncAlways, SyncBatch, SyncNone} {
		dir := t.TempDir()
		_, s, st := openStore(t, dir, Options{Sync: mode})
		mustExec(t, s, "CREATE TABLE t (a bigint)")
		done := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func(g int) {
				sess := s
				_ = sess
				s2 := stSessionDB(st).NewSession()
				var err error
				for i := 0; i < 25; i++ {
					if _, err = s2.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d)", g*100+i)); err != nil {
						break
					}
				}
				done <- err
			}(g)
		}
		for g := 0; g < 8; g++ {
			if err := <-done; err != nil {
				t.Fatalf("mode %v: %v", mode, err)
			}
		}
		got := mustExec(t, s, "SELECT count(*) FROM t").Rows[0][0].(int64)
		if got != 200 {
			t.Fatalf("mode %v: count = %d", mode, got)
		}
		st.Close()

		_, s2, st2 := openStore(t, dir, Options{Sync: mode})
		got2 := mustExec(t, s2, "SELECT count(*) FROM t").Rows[0][0].(int64)
		if got2 != 200 {
			t.Fatalf("mode %v after reopen: count = %d", mode, got2)
		}
		st2.Close()
	}
}

// stSessionDB exposes the store's DB for spawning extra sessions in tests.
func stSessionDB(st *Store) *pgdb.DB { return st.db }

func TestParseSyncMode(t *testing.T) {
	for in, want := range map[string]SyncMode{"always": SyncAlways, "batch": SyncBatch, "": SyncBatch, "none": SyncNone} {
		got, err := ParseSyncMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncMode("bogus"); err == nil {
		t.Fatalf("expected error for bogus mode")
	}
}

func TestValueCodecRoundTrip(t *testing.T) {
	vals := []any{nil, int64(0), int64(-5), int64(1) << 62, 3.14159, -0.0, "", "héllo", true, false}
	var buf []byte
	var err error
	for _, v := range vals {
		if buf, err = appendValue(buf, v); err != nil {
			t.Fatalf("append %v: %v", v, err)
		}
	}
	off := 0
	for _, want := range vals {
		var got any
		if got, off, err = readValue(buf, off); err != nil {
			t.Fatalf("read: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round-trip: got %v want %v", got, want)
		}
	}
	if off != len(buf) {
		t.Fatalf("trailing bytes: %d != %d", off, len(buf))
	}
}
