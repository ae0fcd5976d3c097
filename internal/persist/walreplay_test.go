package persist

import (
	"errors"
	"path/filepath"
	"testing"

	"hyperq/internal/pgdb"
)

// TestReplayRejectsImpossibleRecords writes WAL records no statement could
// have journaled — valid framing and CRCs, bodies that do not fit the table
// — and requires Open to fail with SQLSTATE 58030 instead of restoring a
// table that silently differs from the one the log describes.
func TestReplayRejectsImpossibleRecords(t *testing.T) {
	cols := []pgdb.Column{{Name: "a", Type: "bigint"}, {Name: "b", Type: "varchar"}}
	appendRec := func(rows ...[]any) func(t *testing.T) (byte, []byte) {
		return func(t *testing.T) (byte, []byte) {
			body, err := encodeAppend("t", rows)
			if err != nil {
				t.Fatal(err)
			}
			return recAppend, body
		}
	}
	deleteRec := func(removed ...int) func(t *testing.T) (byte, []byte) {
		return func(*testing.T) (byte, []byte) { return recDelete, encodeDelete("t", removed) }
	}
	for _, tc := range []struct {
		name string
		rec  func(t *testing.T) (byte, []byte)
	}{
		{"narrow rows", appendRec([]any{int64(3)}, []any{int64(4)})},
		{"wide rows", appendRec([]any{int64(3), "z", int64(5)})},
		{"delete past the end", deleteRec(0, 2)},
		{"delete negative", deleteRec(-1)},
		{"delete descending", deleteRec(1, 0)},
		{"delete twice", deleteRec(1, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := openWAL(filepath.Join(dir, "wal.log"), SyncNone, 1)
			if err != nil {
				t.Fatal(err)
			}
			good, err := encodeAppend("t", [][]any{{int64(1), "x"}, {int64(2), "y"}})
			if err != nil {
				t.Fatal(err)
			}
			typ, bad := tc.rec(t)
			for _, r := range []struct {
				typ  byte
				body []byte
			}{{recCreateTable, encodeCreateTable("t", cols)}, {recAppend, good}, {typ, bad}} {
				if _, err := w.append(r.typ, r.body); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
			st, err := Open(pgdb.NewDB(), Options{Dir: dir, Sync: SyncNone})
			if err == nil {
				st.Close()
				t.Fatal("Open replayed the record")
			}
			var pe *pgdb.Error
			if !errors.As(err, &pe) || pe.Code != "58030" {
				t.Fatalf("Open failed with %v, want SQLSTATE 58030", err)
			}
		})
	}
}
