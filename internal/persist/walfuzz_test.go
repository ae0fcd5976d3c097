package persist

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"hyperq/internal/pgdb"
)

// FuzzWALReplay reads a wal.log the way Open does: replayWAL frames the
// records and applyRecord decodes and applies each one to a fresh database.
// An input either fails the open or applies; none panics. Decoding every
// record allocates at most 64 bytes per input byte plus the harness's own
// file read, so no count in a record is trusted before the bytes back it:
// anyone who can write wal.log can compute a frame's CRC.
func FuzzWALReplay(f *testing.F) {
	for _, seed := range walSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		bound := uint64(64*len(in) + 64<<10)
		if n := allocBytes(func() { replayWAL(path, 0, decodeRecord) }); n > bound {
			t.Fatalf("decoding %d bytes of records allocated %d (bound %d)", len(in), n, bound)
		}
		if st, err := Open(pgdb.NewDB(), Options{Dir: dir, Sync: SyncNone, CheckpointBytes: -1}); err == nil {
			st.Close()
		}
	})
}

// decodeRecord decodes one record's body as applyRecord would, applying
// nothing.
func decodeRecord(rec walRecord) error {
	var err error
	switch rec.typ {
	case recCreateTable:
		_, _, err = decodeCreateTable(rec.body)
	case recDrop:
		_, _, err = decodeDrop(rec.body)
	case recCreateView:
		_, _, err = decodeCreateView(rec.body)
	case recAppend:
		_, _, err = decodeAppend(rec.body)
	}
	return err
}

// walSeeds returns a real WAL holding every record type and value kind, the
// same log with a torn tail, one holding a retired UPDATE record, and
// records whose counts claim far more columns or rows than their bytes
// hold.
func walSeeds(f *testing.F) [][]byte {
	dir := f.TempDir()
	db := pgdb.NewDB()
	st, err := Open(db, Options{Dir: dir, Sync: SyncNone, CheckpointBytes: -1})
	if err != nil {
		f.Fatal(err)
	}
	s := db.NewSession()
	for _, sql := range []string{
		"CREATE TABLE t (i bigint, f double precision, s varchar, b boolean)",
		"INSERT INTO t VALUES (1, 1.5, 'a', true), (NULL, -0.25, NULL, false), (-7, NULL, 'bc', NULL)",
		"CREATE TABLE u AS SELECT i, s FROM t WHERE i IS NOT NULL",
		"CREATE VIEW v AS SELECT i FROM t",
		"DROP VIEW v",
		"DROP TABLE u",
	} {
		if _, err := s.Exec(sql); err != nil {
			f.Fatalf("%s: %v", sql, err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		f.Fatal(err)
	}
	claims := func(counts ...uint32) []byte {
		b := appendString(nil, "t")
		for _, c := range counts {
			b = binary.LittleEndian.AppendUint32(b, c)
		}
		return append(b, tagNil)
	}
	return [][]byte{
		wal,
		wal[:len(wal)-5],
		append(wal, walFrame(99, recUpdate, appendString(nil, "t"))...),
		walFrame(1, recCreateTable, claims(1<<20)),
		walFrame(1, recAppend, claims(1<<20, 1)),
		walFrame(1, recAppend, claims(1<<20, 0)),
	}
}
