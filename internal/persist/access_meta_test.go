package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hyperq/internal/pgdb"
)

// TestAccessMetaRoundTrip: sorted attributes survive a checkpoint and cold
// reopen. The reopened table's rows bypass the append path, so the only way
// a range predicate can hit an access path after restart is the manifest's
// restored sorted flag; the unsorted column stays unsorted, and appends
// keep maintaining the restored attribute.
func TestAccessMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, s, st := openStore(t, dir, Options{Sync: SyncAlways})
	mustExec(t, s, "CREATE TABLE kv (k bigint, s varchar, v bigint)")
	for lo := 0; lo < 600; lo += 200 {
		sql := "INSERT INTO kv VALUES "
		for i := lo; i < lo+200; i++ {
			if i > lo {
				sql += ","
			}
			// k and v ascend, keeping their sorted attributes; s cycles
			sql += fmt.Sprintf("(%d,'s%d',%d)", i, i%7, i*3)
		}
		mustExec(t, s, sql)
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
	manifests, _ := filepath.Glob(filepath.Join(dir, "ckpt-*", "manifest.json"))
	if len(manifests) == 0 {
		t.Fatal("the checkpoint wrote no manifest")
	}
	for _, m := range manifests {
		b, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Tables []map[string]json.RawMessage `json:"tables"`
		}
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		for _, tm := range got.Tables {
			var sorted []bool
			if err := json.Unmarshal(tm["sorted"], &sorted); err != nil {
				t.Fatal(err)
			}
			// k and v ascend, s cycles
			if _, ok := tm["indexed"]; ok || fmt.Sprint(sorted) != "[true false true]" {
				t.Fatalf("%s records sorted %v and indexed %s, want sorted [true false true] and no indexed",
					m, sorted, tm["indexed"])
			}
		}
	}

	db2, s2, st2 := openStore(t, dir, Options{Sync: SyncAlways})
	defer st2.Close()
	stats := db2.IndexStats()

	// restored sorted attribute answers the range predicate
	if got := mustExec(t, s2, "SELECT count(*) FROM kv WHERE k >= 550").Rows[0][0]; got != wantRange {
		t.Fatalf("cold range count = %v, want %v", got, wantRange)
	}
	hits := stats.Hits.Load()
	if hits == 0 {
		t.Fatalf("range scan after reopen did not hit the restored sorted attribute")
	}

	// the unsorted column scans
	if got := mustExec(t, s2, "SELECT count(*) FROM kv WHERE s = 's3'").Rows[0][0]; got != wantPoint {
		t.Fatalf("cold point count = %v, want %v", got, wantPoint)
	}
	if stats.Hits.Load() != hits {
		t.Fatalf("an equality on the unsorted column hit an access path")
	}

	// an in-order append keeps the restored attribute
	mustExec(t, s2, "INSERT INTO kv VALUES (600,'s3',1800)")
	if got := mustExec(t, s2, "SELECT count(*) FROM kv WHERE k >= 550").Rows[0][0]; got != wantRange.(int64)+1 {
		t.Fatalf("post-insert range count = %v, want %v", got, wantRange.(int64)+1)
	}
	if stats.Hits.Load() != hits+1 {
		t.Fatalf("the append dropped the restored sorted attribute")
	}

	// full-table parity across every engine
	for _, mode := range []pgdb.ExecMode{pgdb.ExecCompiled, pgdb.ExecInterpreted} {
		db2.SetExecMode(mode)
		got := rowsOf(t, s2, "kv")
		assertSameRows(t, wantRows, got[:len(wantRows)], fmt.Sprintf("mode %d", mode))
	}
}
