package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"hyperq/internal/pgdb"
)

// Write-ahead log. Every DML/DDL statement on a permanent relation appends
// one record before the statement acknowledges. Record framing:
//
//	u32 len | u32 crc32(payload) | payload
//	payload: u64 lsn | u8 type | body
//
// Replay-on-open reads sequentially until the first short read or CRC
// mismatch — a torn tail from a crash mid-append — and truncates there.
// LSNs are monotonic across checkpoints (the log is reset after a
// checkpoint but the sequence continues), so replay filters records with
// lsn <= the manifest's lsn and stays idempotent even when a crash lands
// between the CURRENT switch and the log reset.

// SyncMode controls when WAL appends reach stable storage.
type SyncMode int

const (
	// SyncAlways fsyncs on every append before acknowledging.
	SyncAlways SyncMode = iota
	// SyncBatch group-commits: concurrent appenders share one fsync —
	// each append still waits for a sync covering its record, but a
	// single syscall can cover many records.
	SyncBatch
	// SyncNone never fsyncs (crash may lose acked statements).
	SyncNone
)

// ParseSyncMode maps the -wal-sync flag values to a SyncMode.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch", "":
		return SyncBatch, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("persist: unknown wal sync mode %q (want always, batch or none)", s)
}

const (
	recCreateTable byte = iota + 1
	recDrop
	recCreateView
	recAppend
	// recUpdate and recDelete are retired with SQL UPDATE and DELETE: tables
	// are append-only. The two bytes stay reserved, and a WAL holding either
	// fails Open.
	recUpdate
	recDelete
)

type walRecord struct {
	lsn  uint64
	typ  byte
	body []byte
}

type walWriter struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	nextLSN uint64
	size    int64

	mode SyncMode
	// group-commit state (SyncBatch)
	cond        *sync.Cond
	syncing     bool
	appendedLSN uint64 // highest LSN written to the OS
	syncedLSN   uint64 // highest LSN known durable

	// fault injection: once cumulative bytes written would exceed
	// failAfterBytes, write only the remaining budget (a torn record)
	// and fail permanently — simulating a crash mid-append.
	failAfterBytes int64 // < 0: disabled
	failed         error
}

func openWAL(path string, mode SyncMode, nextLSN uint64) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &walWriter{
		f:              f,
		path:           path,
		nextLSN:        nextLSN,
		size:           st.Size(),
		mode:           mode,
		failAfterBytes: -1,
	}
	w.cond = sync.NewCond(&w.mu)
	if nextLSN > 0 {
		w.appendedLSN = nextLSN - 1
		w.syncedLSN = nextLSN - 1
	}
	return w, nil
}

// append frames, writes and (per mode) syncs one record. Returns its LSN.
func (w *walWriter) append(typ byte, body []byte) (uint64, error) {
	w.mu.Lock()
	if w.failed != nil {
		w.mu.Unlock()
		return 0, w.failed
	}
	lsn := w.nextLSN
	w.nextLSN++
	rec := walFrame(lsn, typ, body)

	if w.failAfterBytes >= 0 && w.size+int64(len(rec)) > w.failAfterBytes {
		// torn write: emit only the byte budget left, then die.
		keep := w.failAfterBytes - w.size
		if keep < 0 {
			keep = 0
		}
		if keep > 0 {
			w.f.Write(rec[:keep])
			w.f.Sync()
			w.size += keep
		}
		w.failed = fmt.Errorf("persist: injected wal failure at %d bytes", w.failAfterBytes)
		w.mu.Unlock()
		return 0, w.failed
	}

	if _, err := w.f.Write(rec); err != nil {
		w.failed = err
		w.mu.Unlock()
		return 0, err
	}
	w.size += int64(len(rec))
	w.appendedLSN = lsn

	switch w.mode {
	case SyncNone:
		w.mu.Unlock()
		return lsn, nil
	case SyncAlways:
		err := w.f.Sync()
		if err != nil {
			w.failed = err
		} else {
			w.syncedLSN = lsn
		}
		w.mu.Unlock()
		return lsn, err
	}

	// SyncBatch group commit: wait until some syncer covers our LSN; if
	// nobody is syncing, become the syncer for everything appended so far.
	for w.syncedLSN < lsn && w.failed == nil {
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		high := w.appendedLSN
		w.mu.Unlock()
		err := w.f.Sync()
		w.mu.Lock()
		w.syncing = false
		if err != nil {
			w.failed = err
		} else if high > w.syncedLSN {
			w.syncedLSN = high
		}
		w.cond.Broadcast()
	}
	err := w.failed
	w.mu.Unlock()
	return lsn, err
}

// lastLSN reports the most recently assigned LSN (0 if none ever).
func (w *walWriter) lastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

func (w *walWriter) sizeBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// reset truncates the log after a checkpoint made its contents redundant.
// The LSN sequence keeps counting.
func (w *walWriter) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	if err := w.f.Truncate(0); err != nil {
		w.failed = err
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		w.failed = err
		return err
	}
	w.size = 0
	return w.f.Sync()
}

func (w *walWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// walFrame frames one record: u32 len | u32 crc32(payload) | payload, the
// payload being u64 lsn | u8 type | body.
func walFrame(lsn uint64, typ byte, body []byte) []byte {
	rec := make([]byte, 8, 17+len(body))
	rec = binary.LittleEndian.AppendUint64(rec, lsn)
	rec = append(append(rec, typ), body...)
	binary.LittleEndian.PutUint32(rec, uint32(len(rec)-8))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[8:]))
	return rec
}

// replayWAL scans a log, invoking apply for every intact record with
// lsn > minLSN. It returns the highest LSN seen (0 if none) and the byte
// offset of the first torn or corrupt record, which the caller truncates
// to so the next append starts on a clean tail.
func replayWAL(path string, minLSN uint64, apply func(walRecord) error) (lastLSN uint64, goodSize int64, err error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	off := 0
	for {
		if off+8 > len(b) {
			break
		}
		n := int(binary.LittleEndian.Uint32(b[off:]))
		crc := binary.LittleEndian.Uint32(b[off+4:])
		if n < 9 || off+8+n > len(b) {
			break // torn tail
		}
		payload := b[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != crc {
			break // corrupt tail
		}
		rec := walRecord{
			lsn:  binary.LittleEndian.Uint64(payload),
			typ:  payload[8],
			body: payload[9:],
		}
		off += 8 + n
		if rec.lsn > lastLSN {
			lastLSN = rec.lsn
		}
		if rec.lsn > minLSN {
			if err := apply(rec); err != nil {
				return lastLSN, int64(off), err
			}
		}
	}
	return lastLSN, int64(off), nil
}

// truncateWAL drops a torn tail in place.
func truncateWAL(path string, goodSize int64) error {
	st, err := os.Stat(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if st.Size() <= goodSize {
		return nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(goodSize); err != nil {
		return err
	}
	return f.Sync()
}

// --- record bodies ---

func encodeCreateTable(name string, cols []pgdb.Column) []byte {
	b := appendString(nil, name)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cols)))
	for _, c := range cols {
		b = appendString(b, c.Name)
		b = appendString(b, c.Type)
	}
	return b
}

func decodeCreateTable(b []byte) (string, []pgdb.Column, error) {
	name, off, err := readString(b, 0)
	if err != nil {
		return "", nil, err
	}
	if off+4 > len(b) {
		return "", nil, fmt.Errorf("persist: truncated create_table record")
	}
	n := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	// a column is at least its name's and type's 4-byte headers: a count
	// the bytes left cannot back is corrupt, whatever the CRC says
	if n > (len(b)-off)/8 {
		return "", nil, fmt.Errorf("persist: create_table record claims %d columns in %d bytes", n, len(b)-off)
	}
	cols := make([]pgdb.Column, n)
	for i := range cols {
		if cols[i].Name, off, err = readString(b, off); err != nil {
			return "", nil, err
		}
		if cols[i].Type, off, err = readString(b, off); err != nil {
			return "", nil, err
		}
	}
	return name, cols, nil
}

func encodeDrop(name string, view bool) []byte {
	b := appendString(nil, name)
	if view {
		return append(b, 1)
	}
	return append(b, 0)
}

func decodeDrop(b []byte) (string, bool, error) {
	name, off, err := readString(b, 0)
	if err != nil {
		return "", false, err
	}
	if off >= len(b) {
		return "", false, fmt.Errorf("persist: truncated drop record")
	}
	return name, b[off] != 0, nil
}

func encodeCreateView(name, sql string) []byte {
	return appendString(appendString(nil, name), sql)
}

func decodeCreateView(b []byte) (string, string, error) {
	name, off, err := readString(b, 0)
	if err != nil {
		return "", "", err
	}
	sql, _, err := readString(b, off)
	return name, sql, err
}

func encodeAppend(table string, rows [][]any) ([]byte, error) {
	b := appendString(nil, table)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rows)))
	ncols := 0
	if len(rows) > 0 {
		ncols = len(rows[0])
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(ncols))
	var err error
	for _, r := range rows {
		for _, cell := range r {
			if b, err = appendValue(b, cell); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

func decodeAppend(b []byte) (string, [][]any, error) {
	table, off, err := readString(b, 0)
	if err != nil {
		return "", nil, err
	}
	if off+8 > len(b) {
		return "", nil, fmt.Errorf("persist: truncated append record")
	}
	nrows := int(binary.LittleEndian.Uint32(b[off:]))
	ncols := int(binary.LittleEndian.Uint32(b[off+4:]))
	off += 8
	// a cell is at least its tag byte: counts the bytes left cannot back
	// are corrupt, whatever the CRC says
	switch {
	case ncols == 0 && nrows > 0:
		return "", nil, fmt.Errorf("persist: append record claims %d rows of no columns", nrows)
	case uint64(nrows)*uint64(ncols) > uint64(len(b)-off):
		return "", nil, fmt.Errorf("persist: append record claims %d×%d cells in %d bytes", nrows, ncols, len(b)-off)
	}
	rows := make([][]any, nrows)
	cells := make([]any, nrows*ncols)
	for i := range rows {
		rows[i] = cells[i*ncols : (i+1)*ncols : (i+1)*ncols]
		for c := 0; c < ncols; c++ {
			if rows[i][c], off, err = readValue(b, off); err != nil {
				return "", nil, err
			}
		}
	}
	return table, rows, nil
}
