package persist

import (
	"fmt"
	"testing"

	"hyperq/internal/pgdb"
)

// TestAccessMetaRoundTrip: sorted attributes and index hints survive a
// checkpoint and cold reopen. The reopened database is left at the default
// index row threshold — far above this table's size — so the only way a
// hash index can build after restart is the manifest's hint, and the only
// way a range scan can hit an access path is the restored sorted attribute.
func TestAccessMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, s, st := openStore(t, dir, Options{Sync: SyncAlways})
	db.SetIndexMinRows(0)
	mustExec(t, s, "CREATE TABLE kv (k bigint, s varchar, v bigint)")
	for lo := 0; lo < 600; lo += 200 {
		sql := "INSERT INTO kv VALUES "
		for i := lo; i < lo+200; i++ {
			if i > lo {
				sql += ","
			}
			// k ascending keeps its sorted attribute; s cycles so it is
			// unsorted and the point lookup below must build a hash index
			sql += fmt.Sprintf("(%d,'s%d',%d)", i, i%7, i*3)
		}
		mustExec(t, s, sql)
	}
	mustExec(t, s, "SELECT count(*) FROM kv WHERE s = 's3'")
	if db.IndexStats().Builds.Load() == 0 {
		t.Fatalf("seed lookup did not build an index")
	}
	wantPoint := mustExec(t, s, "SELECT count(*) FROM kv WHERE s = 's3'").Rows[0][0]
	wantRange := mustExec(t, s, "SELECT count(*) FROM kv WHERE k >= 550").Rows[0][0]
	wantRows := rowsOf(t, s, "kv")
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2, s2, st2 := openStore(t, dir, Options{Sync: SyncAlways})
	defer st2.Close()
	stats := db2.IndexStats()

	// restored sorted attribute answers the range predicate with no build
	if got := mustExec(t, s2, "SELECT count(*) FROM kv WHERE k >= 550").Rows[0][0]; got != wantRange {
		t.Fatalf("cold range count = %v, want %v", got, wantRange)
	}
	if stats.Hits.Load() == 0 {
		t.Fatalf("range scan after reopen did not hit the restored sorted attribute")
	}
	if stats.Builds.Load() != 0 {
		t.Fatalf("range scan built an index (builds=%d)", stats.Builds.Load())
	}

	// the hint rebuilds the hash index even though 600 rows is far below
	// the default threshold
	if got := mustExec(t, s2, "SELECT count(*) FROM kv WHERE s = 's3'").Rows[0][0]; got != wantPoint {
		t.Fatalf("cold point count = %v, want %v", got, wantPoint)
	}
	if stats.Builds.Load() != 1 {
		t.Fatalf("hinted point lookup builds = %d, want 1", stats.Builds.Load())
	}

	// incremental maintenance on the rebuilt index: one more matching row,
	// no rebuild
	mustExec(t, s2, "INSERT INTO kv VALUES (600,'s3',1800)")
	got := mustExec(t, s2, "SELECT count(*) FROM kv WHERE s = 's3'").Rows[0][0]
	if got != wantPoint.(int64)+1 {
		t.Fatalf("post-insert point count = %v, want %v", got, wantPoint.(int64)+1)
	}
	if stats.Builds.Load() != 1 {
		t.Fatalf("insert forced a rebuild (builds=%d)", stats.Builds.Load())
	}

	// full-table parity across every engine
	for _, mode := range []pgdb.ExecMode{pgdb.ExecCompiled, pgdb.ExecInterpreted} {
		db2.SetExecMode(mode)
		got := rowsOf(t, s2, "kv")
		assertSameRows(t, wantRows, got[:len(wantRows)], fmt.Sprintf("mode %d", mode))
	}
}
