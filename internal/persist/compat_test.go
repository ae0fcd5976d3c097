package persist

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hyperq/internal/pgdb"
)

// rawCheckpointDir holds a checkpoint of compatRows whose every chunk is in
// the raw layout, null bitmaps included — what stores wrote before the
// writer chose an encoding per chunk. It is committed, not regenerated, so
// it pins the read path of data directories that already exist.
const rawCheckpointDir = "testdata/rawckpt"

// compatCols and compatRows are the table in rawCheckpointDir: three date
// partitions splitting one segment, and one column per vector kind — the
// all-NULL z stays vkEmpty, the mixed-type m degrades to vkAny — with NULLs
// in most of them.
var compatCols = []pgdb.Column{
	{Name: "d", Type: "date"},
	{Name: "k", Type: "bigint"},
	{Name: "i", Type: "bigint"},
	{Name: "f", Type: "double precision"},
	{Name: "s", Type: "varchar"},
	{Name: "u", Type: "varchar"},
	{Name: "b", Type: "boolean"},
	{Name: "m", Type: "varchar"},
	{Name: "z", Type: "bigint"},
}

func compatRows() [][]any {
	rows := make([][]any, 240)
	for r := range rows {
		row := []any{
			fmt.Sprintf("2024-07-%02d", 14+r/100),
			int64(r),
			int64(r*37 - 500),
			float64(r) * 0.25,
			fmt.Sprintf("sym%d", r%4),
			fmt.Sprintf("u-%d-é", r*r),
			r%3 == 0,
			nil,
			nil,
		}
		switch r % 4 {
		case 0:
			row[7] = int64(r)
		case 1:
			row[7] = fmt.Sprintf("m%d", r)
		case 2:
			row[7] = float64(r) + 0.5
		}
		if r%11 == 0 {
			row[2] = nil
		}
		if r%13 == 0 {
			row[3] = nil
		}
		if r%7 == 0 {
			row[4] = nil
		}
		if r%5 == 0 {
			row[6] = nil
		}
		rows[r] = row
	}
	rows[1][3] = math.Inf(1)
	rows[2][3] = math.Inf(-1)
	rows[3][5] = ""
	rows[5][7] = true
	return rows
}

// compatOracle returns compatRows as a memory-only engine serves them.
func compatOracle(t *testing.T) [][]any {
	t.Helper()
	db := pgdb.NewDB()
	db.CreateTable("compat", compatCols)
	if err := db.InsertRows("compat", compatRows()); err != nil {
		t.Fatal(err)
	}
	return rowsOf(t, db.NewSession(), "compat")
}

// rawCheckpoint copies rawCheckpointDir to a fresh directory, since Open
// writes to the directory it opens.
func rawCheckpoint(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	copyDir(t, rawCheckpointDir, dir)
	return dir
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatalf("copy %s: %v", src, err)
	}
}

// TestRawCheckpointCompat cold-opens the committed raw checkpoint: the
// manifest's zone maps prune without I/O, and every row of every vector
// kind comes back exactly.
func TestRawCheckpointCompat(t *testing.T) {
	_, s, st := openStore(t, rawCheckpoint(t), Options{Sync: SyncNone})
	defer st.Close()
	if st.ReplayedChanges() {
		t.Fatal("a checkpointed directory replayed WAL records")
	}

	res := mustExec(t, s, "SELECT count(*) FROM compat WHERE k > 1000")
	if n := res.Rows[0][0].(int64); n != 0 {
		t.Fatalf("k > 1000 counted %d rows", n)
	}
	if snap := st.Stats().Snapshot(); snap.SegmentsFaulted != 0 {
		t.Fatalf("zone-skipped scan faulted: %+v", snap)
	}

	assertSameRows(t, compatOracle(t), rowsOf(t, s, "compat"), "raw checkpoint")
	// one chunk per column in each of the three date partitions
	if snap := st.Stats().Snapshot(); snap.ChunksDecoded != int64(3*len(compatCols)) {
		t.Fatalf("decoded %d chunks, want %d", snap.ChunksDecoded, 3*len(compatCols))
	}
}
