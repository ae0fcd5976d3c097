package persist

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"hyperq/internal/pgdb"
)

// TestReplayRejectsImpossibleRecords writes WAL records no statement could
// have journaled — valid framing and CRCs, bodies that do not fit the table,
// and the retired UPDATE and DELETE records, whatever their bodies say —
// and requires Open to fail with SQLSTATE 58030 instead of restoring a
// table that silently differs from the one the log describes. A retired
// record's error names it.
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
	// retired records in the layout they had: table, count, then the
	// removed row indexes (DELETE) or row, column and value triples (UPDATE)
	retired := func(typ byte, ints ...int) func(t *testing.T) (byte, []byte) {
		return func(*testing.T) (byte, []byte) {
			b := binary.LittleEndian.AppendUint32(appendString(nil, "t"), uint32(len(ints)))
			for _, n := range ints {
				b = binary.LittleEndian.AppendUint32(b, uint32(n))
			}
			return typ, b
		}
	}
	for _, tc := range []struct {
		name    string
		rec     func(t *testing.T) (byte, []byte)
		retired string
	}{
		{"narrow rows", appendRec([]any{int64(3)}, []any{int64(4)}), ""},
		{"wide rows", appendRec([]any{int64(3), "z", int64(5)}), ""},
		{"delete past the end", retired(recDelete, 0, 2), "DELETE"},
		{"delete negative", retired(recDelete, -1), "DELETE"},
		{"delete descending", retired(recDelete, 1, 0), "DELETE"},
		{"delete twice", retired(recDelete, 1, 1), "DELETE"},
		{"delete in range", retired(recDelete, 0), "DELETE"},
		{"update", retired(recUpdate, 0, 1), "UPDATE"},
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
			if tc.retired != "" && !strings.Contains(err.Error(), "retired "+tc.retired+" record") {
				t.Fatalf("Open failed with %v, want it to name the retired %s record", err, tc.retired)
			}
		})
	}
}
