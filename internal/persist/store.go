package persist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hyperq/internal/pgdb"
)

// On-disk layout:
//
//	dataDir/
//	  CURRENT              → name of the live checkpoint dir ("ckpt-%08d")
//	  wal.log              → records since that checkpoint
//	  ckpt-00000003/
//	    manifest.json      → schema, views, per-segment metadata, LSN
//	    trades/
//	      2024-07-14/      → one dir per date partition ("all" if none)
//	        c0.col c1.col …  one splayed file per column
//
// A checkpoint becomes live only when CURRENT is atomically renamed over;
// anything not referenced by CURRENT is garbage and removed at open.

// Options configures a Store. How checkpoints are stored is not an option:
// the writer encodes every chunk in the smallest of its kind's layouts
// (FOR/delta ints, dictionary strings, run-length bools and null bitmaps,
// or raw), and the reader preads chunks through a bounded descriptor cache
// and decodes every layout, so checkpoints written all-raw open unchanged.
type Options struct {
	Dir  string
	Sync SyncMode
	// MemBudget caps resident column-vector bytes; 0 disables eviction.
	MemBudget int64
	// CheckpointBytes triggers an automatic checkpoint once the WAL grows
	// past it; 0 means the 64 MB default. Negative disables auto-checkpoint.
	CheckpointBytes int64
}

const defaultCheckpointBytes = 64 << 20

// Store is the durable backend for one pgdb.DB: it implements pgdb.Journal,
// owns the WAL and checkpoints, and drives bounded-memory eviction.
type Store struct {
	db    *pgdb.DB
	opts  Options
	wal   *walWriter
	stats Stats
	fds   *fdCache

	mu            sync.Mutex
	ckptSeq       uint64
	ckptDir       string // live checkpoint dir name, "" when none
	tables        map[string]*tableState
	checkpointing bool
	broken        error
	failAt        string // checkpoint fault-injection point

	replayed bool
}

// tableState tracks how one table relates to the live checkpoint.
type tableState struct {
	cols     []pgdb.Column
	ckptRows int            // rows covered by the live checkpoint
	segs     []pgdb.SegMeta // checkpoint-time metadata, indexed by segment
	chunks   [][]chunkLoc   // per column, sorted by (SegIdx, StartInSeg)
}

type chunkLoc struct {
	path string
	ref  chunkRef
}

// Open attaches durable storage rooted at opts.Dir to an (empty) database:
// it restores the catalog from the live checkpoint with every segment
// evicted (cold open does no column I/O), replays the WAL tail, truncates
// any torn record, and installs itself as the database's journal.
func Open(db *pgdb.DB, opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("persist: empty data dir")
	}
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = defaultCheckpointBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	st := &Store{db: db, opts: opts, tables: make(map[string]*tableState), fds: newFDCache()}

	var m *manifest
	cur, err := os.ReadFile(filepath.Join(opts.Dir, "CURRENT"))
	if err == nil {
		name := strings.TrimSpace(string(cur))
		mb, err := os.ReadFile(filepath.Join(opts.Dir, name, "manifest.json"))
		if err != nil {
			return nil, fmt.Errorf("persist: CURRENT points at %s but: %w", name, err)
		}
		m = &manifest{}
		if err := json.Unmarshal(mb, m); err != nil {
			return nil, fmt.Errorf("persist: manifest: %w", err)
		}
		st.ckptSeq = m.Seq
		st.ckptDir = name
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	st.removeStaleCheckpoints()

	var minLSN uint64
	if m != nil {
		minLSN = m.LSN
		if err := st.restoreManifest(m); err != nil {
			return nil, err
		}
	}

	// Replay the WAL tail over the restored catalog, then truncate any torn
	// record so the next append starts on a clean boundary.
	walPath := filepath.Join(opts.Dir, "wal.log")
	applied := 0
	lastLSN, goodSize, err := replayWAL(walPath, minLSN, func(rec walRecord) error {
		applied++
		return st.applyRecord(rec)
	})
	if err != nil {
		return nil, fmt.Errorf("persist: wal replay: %w", err)
	}
	if err := truncateWAL(walPath, goodSize); err != nil {
		return nil, err
	}
	st.replayed = applied > 0

	next := minLSN
	if lastLSN > next {
		next = lastLSN
	}
	st.wal, err = openWAL(walPath, opts.Sync, next+1)
	if err != nil {
		return nil, err
	}

	db.SetJournal(st)
	db.SetAfterStmt(st.maintain)
	return st, nil
}

func (st *Store) restoreManifest(m *manifest) error {
	for _, tm := range m.Tables {
		cols := make([]pgdb.Column, len(tm.Cols))
		for i, c := range tm.Cols {
			cols[i] = pgdb.Column{Name: c.Name, Type: c.Type}
		}
		segs := make([]pgdb.SegMeta, len(tm.Segs))
		for i, sm := range tm.Segs {
			// N sizes the fault-in buffers and Vecs is indexed by column:
			// both must be sane before anything trusts them.
			if sm.N < 0 || sm.N > pgdb.SegmentSize || len(sm.Vecs) != len(cols) {
				return fmt.Errorf("persist: manifest: table %s segment %d has %d rows in %d vectors, want at most %d rows in %d",
					tm.Name, i, sm.N, len(sm.Vecs), pgdb.SegmentSize, len(cols))
			}
			vecs := make([]pgdb.VecMeta, len(sm.Vecs))
			for c, vm := range sm.Vecs {
				minV, err := valFromJSON(vm.Min)
				if err != nil {
					return err
				}
				maxV, err := valFromJSON(vm.Max)
				if err != nil {
					return err
				}
				vecs[c] = pgdb.VecMeta{Kind: vm.Kind, NullCnt: vm.NullCnt, Min: minV, Max: maxV}
			}
			segs[i] = pgdb.SegMeta{N: sm.N, Vecs: vecs}
		}
		ts := &tableState{cols: cols, ckptRows: tm.Rows, segs: segs}
		ts.chunks = make([][]chunkLoc, len(cols))
		for _, p := range tm.Parts {
			pdir := filepath.Join(st.opts.Dir, st.ckptDir, dirNameOf(tm.Name), p.Name)
			for c := range cols {
				path := filepath.Join(pdir, fmt.Sprintf("c%d.col", c))
				refs, err := readColFileDir(path)
				if err != nil {
					return fmt.Errorf("persist: %s: %w", path, err)
				}
				for _, r := range refs {
					ts.chunks[c] = append(ts.chunks[c], chunkLoc{path: path, ref: r})
				}
			}
		}
		for c := range ts.chunks {
			sortChunks(ts.chunks[c])
		}
		st.tables[tm.Name] = ts
		st.db.RestoreTableLazy(tm.Name, cols, segs, st.loaderFor(tm.Name))
		if tm.Sorted != nil {
			st.db.RestoreAccessMeta(tm.Name, tm.Sorted)
		}
	}
	viewNames := make([]string, 0, len(m.Views))
	for n := range m.Views {
		viewNames = append(viewNames, n)
	}
	sort.Strings(viewNames)
	for _, n := range viewNames {
		if err := st.db.ApplyCreateView(n, m.Views[n]); err != nil {
			return err
		}
	}
	return nil
}

func (st *Store) applyRecord(rec walRecord) error {
	switch rec.typ {
	case recCreateTable:
		name, cols, err := decodeCreateTable(rec.body)
		if err != nil {
			return err
		}
		if err := st.db.ApplyCreateTable(name, cols); err != nil {
			return err
		}
		st.tables[name] = &tableState{cols: cols, chunks: make([][]chunkLoc, len(cols))}
		return nil
	case recDrop:
		name, view, err := decodeDrop(rec.body)
		if err != nil {
			return err
		}
		if err := st.db.ApplyDrop(name, view); err != nil {
			return err
		}
		if !view {
			delete(st.tables, name)
		}
		return nil
	case recCreateView:
		name, sql, err := decodeCreateView(rec.body)
		if err != nil {
			return err
		}
		return st.db.ApplyCreateView(name, sql)
	case recAppend:
		name, rows, err := decodeAppend(rec.body)
		if err != nil {
			return err
		}
		return st.db.ApplyAppend(name, rows)
	case recUpdate, recDelete:
		kind := map[byte]string{recUpdate: "UPDATE", recDelete: "DELETE"}[rec.typ]
		return &pgdb.Error{Code: "58030", Msg: fmt.Sprintf("wal record %d is a retired %s record (type %d): tables are append-only", rec.lsn, kind, rec.typ)}
	}
	return fmt.Errorf("persist: unknown wal record type %d", rec.typ)
}

// ReplayedChanges reports whether open applied any WAL records — the
// catalog differs from the last checkpoint, so query caches keyed on it
// must be invalidated.
func (st *Store) ReplayedChanges() bool { return st.replayed }

// Close syncs and closes the WAL and drops cached column descriptors. The
// database keeps running in memory.
func (st *Store) Close() error {
	st.fds.closeAll()
	return st.wal.close()
}

// --- pgdb.Journal ---

func (st *Store) appendRec(typ byte, body []byte, err error) error {
	if err != nil {
		return err
	}
	st.mu.Lock()
	if b := st.broken; b != nil {
		st.mu.Unlock()
		return b
	}
	st.mu.Unlock()
	_, werr := st.wal.append(typ, body)
	return werr
}

func (st *Store) JournalCreateTable(name string, cols []pgdb.Column) error {
	if err := st.appendRec(recCreateTable, encodeCreateTable(name, cols), nil); err != nil {
		return err
	}
	st.mu.Lock()
	st.tables[name] = &tableState{cols: cols, chunks: make([][]chunkLoc, len(cols))}
	st.mu.Unlock()
	return nil
}

func (st *Store) JournalDrop(name string, view bool) error {
	if err := st.appendRec(recDrop, encodeDrop(name, view), nil); err != nil {
		return err
	}
	if !view {
		st.mu.Lock()
		delete(st.tables, name)
		st.mu.Unlock()
	}
	return nil
}

func (st *Store) JournalCreateView(name, sql string) error {
	return st.appendRec(recCreateView, encodeCreateView(name, sql), nil)
}

func (st *Store) JournalAppend(table string, rows [][]any) error {
	body, err := encodeAppend(table, rows)
	return st.appendRec(recAppend, body, err)
}

// --- segment fault-in ---

func (st *Store) loaderFor(name string) pgdb.SegLoader {
	return func(si int, cols []int) (pgdb.SegmentData, error) {
		st.mu.Lock()
		ts := st.tables[name]
		st.mu.Unlock()
		if ts == nil {
			return pgdb.SegmentData{}, fmt.Errorf("persist: no state for table %s", name)
		}
		return st.loadSegment(ts, si, cols)
	}
}

// loadSegment materializes the requested columns (all when cols is nil) of
// one checkpointed segment. Each column decodes independently from its own
// chunks, so a pruned scan's I/O is proportional to the columns it touches,
// and concurrent faults of different columns never contend on a shared
// descriptor: chunk reads go through the store-wide bounded fd cache.
func (st *Store) loadSegment(ts *tableState, si int, cols []int) (pgdb.SegmentData, error) {
	if si >= len(ts.segs) {
		return pgdb.SegmentData{}, fmt.Errorf("persist: segment %d beyond checkpoint", si)
	}
	meta := ts.segs[si]
	sd := pgdb.SegmentData{N: meta.N, Vecs: make([]pgdb.VecData, len(ts.cols))}
	if cols == nil {
		cols = make([]int, len(ts.cols))
		for c := range cols {
			cols[c] = c
		}
	}
	st.stats.SegmentsFaulted.Add(1)
	var buf []byte // chunk read buffer, reused across columns
	for _, c := range cols {
		if c < 0 || c >= len(ts.cols) {
			return sd, fmt.Errorf("persist: segment %d: column %d out of range", si, c)
		}
		vm := meta.Vecs[c]
		dst := segVec(vm.Kind, meta.N)
		dst.NullCnt, dst.Min, dst.Max = vm.NullCnt, vm.Min, vm.Max
		covered := 0
		for _, loc := range chunksForSeg(ts.chunks[c], si) {
			payload, err := st.readChunk(loc, &buf)
			if err != nil {
				return sd, err
			}
			if err := decodeChunkInto(&dst, loc.ref.StartInSeg, loc.ref.Rows, payload); err != nil {
				return sd, err
			}
			st.stats.ChunksDecoded.Add(1)
			covered += loc.ref.Rows
		}
		if covered != meta.N {
			return sd, fmt.Errorf("persist: segment %d column %d: chunks cover %d of %d rows", si, c, covered, meta.N)
		}
		sd.Vecs[c] = dst
		st.stats.ColumnsFaulted.Add(1)
	}
	return sd, nil
}

// segVec returns an n-row vector of the given kind for chunks to decode
// into: its null bitmap and the kind's data slice allocated, zeroed.
func segVec(kind uint8, n int) pgdb.VecData {
	v := pgdb.VecData{Kind: kind, Nulls: make([]uint64, (n+63)/64)}
	switch kind {
	case vkInt:
		v.Ints = make([]int64, n)
	case vkFloat:
		v.Floats = make([]float64, n)
	case vkStr:
		v.Codes = make([]uint16, n)
	case vkBool:
		v.Bools = make([]bool, n)
	case vkAny:
		v.Anys = make([]any, n)
	}
	return v
}

// readChunk preads one chunk payload into the caller's reusable buffer
// through the bounded fd cache. readColFileDir has already held the chunk's
// extent to its file.
func (st *Store) readChunk(loc chunkLoc, buf *[]byte) ([]byte, error) {
	if int64(cap(*buf)) < loc.ref.Size {
		*buf = make([]byte, loc.ref.Size)
	}
	payload := (*buf)[:loc.ref.Size]
	e, err := st.fds.acquire(loc.path)
	if err != nil {
		return nil, err
	}
	_, err = e.f.ReadAt(payload, loc.ref.Offset)
	st.fds.release(e)
	if err != nil {
		return nil, err
	}
	st.stats.BytesRead.Add(loc.ref.Size)
	return payload, nil
}

func chunksForSeg(chunks []chunkLoc, si int) []chunkLoc {
	lo := sort.Search(len(chunks), func(i int) bool { return chunks[i].ref.SegIdx >= si })
	hi := lo
	for hi < len(chunks) && chunks[hi].ref.SegIdx == si {
		hi++
	}
	return chunks[lo:hi]
}

// readColFileDir reads only the header and chunk directory of a column
// file — never the data section, so opening a catalog stays proportional to
// the number of chunks, not the number of bytes on disk. Every directory
// entry must address bytes of the data section: the fault path sizes its
// read buffer from Size and trusts the extent from then on.
func readColFileDir(path string) ([]chunkRef, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var hdr [8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("persist: column header: %w", err)
	}
	if [4]byte(hdr[:4]) != colMagic {
		return nil, fmt.Errorf("persist: bad column file magic")
	}
	n := int64(binary.LittleEndian.Uint32(hdr[4:]))
	dirEnd := 8 + n*colDirEntry
	if dirEnd > fi.Size() {
		return nil, fmt.Errorf("persist: %d-entry chunk directory overruns a %d-byte file", n, fi.Size())
	}
	buf := make([]byte, dirEnd)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(f, buf[8:]); err != nil {
		return nil, fmt.Errorf("persist: chunk directory: %w", err)
	}
	refs, err := readColDir(buf)
	if err != nil {
		return nil, err
	}
	for _, r := range refs {
		// Offset >= dirEnd > 0, so Size() - Offset cannot overflow
		if r.Offset < dirEnd || r.Size < 0 || r.Size > fi.Size()-r.Offset {
			return nil, fmt.Errorf("persist: chunk at offset %d size %d lies outside the data section of a %d-byte file",
				r.Offset, r.Size, fi.Size())
		}
	}
	return refs, nil
}

func sortChunks(chunks []chunkLoc) {
	sort.Slice(chunks, func(i, j int) bool {
		a, b := chunks[i].ref, chunks[j].ref
		if a.SegIdx != b.SegIdx {
			return a.SegIdx < b.SegIdx
		}
		return a.StartInSeg < b.StartInSeg
	})
}

// --- maintenance: auto-checkpoint + eviction ---

func (st *Store) maintain() {
	st.mu.Lock()
	broken := st.broken != nil
	st.mu.Unlock()
	if broken {
		return
	}
	if st.opts.CheckpointBytes > 0 && st.wal.sizeBytes() > st.opts.CheckpointBytes {
		st.Checkpoint() // error already recorded in st.broken
	}
	if st.opts.MemBudget > 0 {
		st.evictToBudget()
	}
}

// evictToBudget drops cold checkpointed segments, oldest partitions first,
// until resident vector bytes fit the budget. Only segments the live
// checkpoint covers in full are candidates: tables are append-only, so an
// INSERT never writes into one.
func (st *Store) evictToBudget() {
	budget := st.opts.MemBudget
	st.db.Exclusive(func() {
		resident := st.db.ResidentBytes()
		var total int64
		for _, b := range resident {
			total += b
		}
		if total <= budget {
			return
		}
		st.mu.Lock()
		names := make([]string, 0, len(st.tables))
		for n := range st.tables {
			names = append(names, n)
		}
		sort.Strings(names)
		type cand struct {
			name string
			segs int
		}
		var cands []cand
		for _, n := range names {
			if full := st.tables[n].ckptRows / pgdb.SegmentSize; full > 0 {
				cands = append(cands, cand{n, full})
			}
		}
		st.mu.Unlock()
		for _, c := range cands {
			for lo := 0; lo < c.segs && total > budget; lo += 64 {
				hi := lo + 64
				if hi > c.segs {
					hi = c.segs
				}
				freed, ncols := st.db.EvictSegments(c.name, lo, hi)
				total -= freed
				if ncols > 0 {
					st.stats.Evictions.Add(int64(ncols))
				}
			}
			if total <= budget {
				break
			}
		}
	})
}

// --- checkpoint ---

// SetFailpoint arms checkpoint fault injection: the next Checkpoint fails
// at the named step ("before-files", "mid-files", "before-manifest",
// "before-current", "before-wal-reset"), leaving the directory exactly as a
// crash there would. Tests reopen the directory afterwards.
func (st *Store) SetFailpoint(name string) {
	st.mu.Lock()
	st.failAt = name
	st.mu.Unlock()
}

// FailWALAfter arms WAL fault injection: once the log would exceed n bytes,
// the append writes only the remaining budget (a torn record) and the store
// fails permanently — simulating a crash mid-append.
func (st *Store) FailWALAfter(n int64) {
	st.wal.mu.Lock()
	st.wal.failAfterBytes = n
	st.wal.mu.Unlock()
}

// WALSize reports the current WAL length in bytes.
func (st *Store) WALSize() int64 { return st.wal.sizeBytes() }

func (st *Store) failpoint(name string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failAt == name {
		st.broken = fmt.Errorf("persist: injected checkpoint failure at %s", name)
		return st.broken
	}
	return nil
}

// Checkpoint writes a full splayed snapshot, switches CURRENT to it, and
// resets the WAL. It runs under the database's exclusive lock, so the
// snapshot and the WAL position are mutually consistent; an acked
// statement is therefore either in the snapshot or ahead of manifest.LSN
// in the log.
func (st *Store) Checkpoint() error {
	st.mu.Lock()
	if st.broken != nil {
		defer st.mu.Unlock()
		return st.broken
	}
	if st.checkpointing {
		st.mu.Unlock()
		return nil
	}
	st.checkpointing = true
	seq := st.ckptSeq + 1
	oldDir := st.ckptDir
	st.mu.Unlock()
	defer func() {
		st.mu.Lock()
		st.checkpointing = false
		st.mu.Unlock()
	}()

	var err error
	st.db.Exclusive(func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("persist: checkpoint snapshot: %v", r)
			}
		}()
		err = st.checkpointLocked(seq, oldDir)
	})
	if err != nil {
		st.mu.Lock()
		if st.broken == nil {
			st.broken = err
		}
		st.mu.Unlock()
	}
	return err
}

func (st *Store) checkpointLocked(seq uint64, oldDir string) error {
	dirName := fmt.Sprintf("ckpt-%08d", seq)
	ckDir := filepath.Join(st.opts.Dir, dirName)
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		return err
	}
	if err := st.failpoint("before-files"); err != nil {
		return err
	}

	var lsn uint64
	if st.wal != nil {
		lsn = st.wal.lastLSN()
	}
	m := manifest{Seq: seq, LSN: lsn, Views: st.db.SnapshotViews()}
	newStates := make(map[string]*tableState)

	first := true
	for _, name := range st.db.TableNames() {
		cols, segs, ok := st.db.SnapshotTable(name)
		if !ok {
			continue
		}
		nrows := 0
		for _, s := range segs {
			nrows += s.N
		}
		partCol, parts := partitionRanges(cols, segs, nrows)

		tm := manifestTable{Name: name, Rows: nrows, PartCol: partCol}
		if sorted, ok := st.db.TableAccessMeta(name); ok {
			tm.Sorted = sorted
		}
		for _, c := range cols {
			tm.Cols = append(tm.Cols, manifestCol{Name: c.Name, Type: c.Type})
		}
		ts := &tableState{cols: cols, ckptRows: nrows}
		ts.chunks = make([][]chunkLoc, len(cols))
		ts.segs = make([]pgdb.SegMeta, len(segs))
		for si, s := range segs {
			sm := manifestSeg{N: s.N}
			vecs := make([]pgdb.VecMeta, len(s.Vecs))
			for c, v := range s.Vecs {
				sm.Vecs = append(sm.Vecs, manifestVec{
					Kind: v.Kind, NullCnt: v.NullCnt,
					Min: valToJSON(v.Min), Max: valToJSON(v.Max),
				})
				vecs[c] = pgdb.VecMeta{Kind: v.Kind, NullCnt: v.NullCnt, Min: v.Min, Max: v.Max}
			}
			tm.Segs = append(tm.Segs, sm)
			ts.segs[si] = pgdb.SegMeta{N: s.N, Vecs: vecs}
		}

		tdir := filepath.Join(ckDir, dirNameOf(name))
		for _, p := range parts {
			pdir := filepath.Join(tdir, p.name)
			if err := os.MkdirAll(pdir, 0o755); err != nil {
				return err
			}
			tm.Parts = append(tm.Parts, manifestPart{Name: p.name, Key: p.key, Start: p.start, Rows: p.rows})
			for c := range cols {
				refs, payloads, err := buildColChunks(segs, c, p.start, p.start+p.rows)
				if err != nil {
					return err
				}
				path := filepath.Join(pdir, fmt.Sprintf("c%d.col", c))
				if err := writeFileSync(path, encodeColFile(refs, payloads)); err != nil {
					return err
				}
				for _, r := range refs {
					ts.chunks[c] = append(ts.chunks[c], chunkLoc{path: path, ref: r})
				}
				if first {
					first = false
					if err := st.failpoint("mid-files"); err != nil {
						return err
					}
				}
			}
		}
		for c := range ts.chunks {
			sortChunks(ts.chunks[c])
		}
		m.Tables = append(m.Tables, tm)
		newStates[name] = ts
	}

	if err := st.failpoint("before-manifest"); err != nil {
		return err
	}
	mb, err := json.MarshalIndent(&m, "", " ")
	if err != nil {
		return err
	}
	if err := writeFileSync(filepath.Join(ckDir, "manifest.json"), mb); err != nil {
		return err
	}
	if err := st.failpoint("before-current"); err != nil {
		return err
	}

	// The atomic switch: once CURRENT names the new dir, recovery uses it.
	curTmp := filepath.Join(st.opts.Dir, "CURRENT.tmp")
	if err := writeFileSync(curTmp, []byte(dirName+"\n")); err != nil {
		return err
	}
	if err := os.Rename(curTmp, filepath.Join(st.opts.Dir, "CURRENT")); err != nil {
		return err
	}
	syncDir(st.opts.Dir)
	if err := st.failpoint("before-wal-reset"); err != nil {
		return err
	}
	if st.wal != nil {
		if err := st.wal.reset(); err != nil {
			return err
		}
	}

	st.mu.Lock()
	st.ckptSeq = seq
	st.ckptDir = dirName
	st.tables = newStates
	st.mu.Unlock()
	for name := range newStates {
		st.db.SetTableLoader(name, st.loaderFor(name))
	}
	if oldDir != "" && oldDir != dirName {
		os.RemoveAll(filepath.Join(st.opts.Dir, oldDir))
	}
	return nil
}

// buildColChunks slices column c of the snapshot into the chunks that fall
// inside partition rows [pstart, pend).
func buildColChunks(segs []pgdb.SegmentData, c, pstart, pend int) ([]chunkRef, [][]byte, error) {
	var refs []chunkRef
	var payloads [][]byte
	for si := pstart / pgdb.SegmentSize; si*pgdb.SegmentSize < pend && si < len(segs); si++ {
		segBase := si * pgdb.SegmentSize
		lo := pstart - segBase
		if lo < 0 {
			lo = 0
		}
		hi := pend - segBase
		if hi > segs[si].N {
			hi = segs[si].N
		}
		if hi <= lo {
			continue
		}
		payload, err := encodeChunk(segs[si].Vecs[c], lo, hi)
		if err != nil {
			return nil, nil, err
		}
		refs = append(refs, chunkRef{SegIdx: si, StartInSeg: lo, Rows: hi - lo})
		payloads = append(payloads, payload)
	}
	return refs, payloads, nil
}

// --- date partitioning ---

type partRange struct {
	name  string
	key   string
	start int
	rows  int
}

// partitionRanges finds the table's date-partition column — the first
// "date" column whose values are non-null and non-decreasing in insertion
// order — and splits the row space at value changes, kdb+-style. Tables
// without such a column (or with pathologically many distinct dates) get a
// single "all" partition.
func partitionRanges(cols []pgdb.Column, segs []pgdb.SegmentData, nrows int) (int, []partRange) {
	if nrows == 0 {
		return -1, nil
	}
	single := func() (int, []partRange) {
		return -1, []partRange{{name: "all", start: 0, rows: nrows}}
	}
	dateCol := -1
	for c, col := range cols {
		if col.Type == "date" {
			dateCol = c
			break
		}
	}
	if dateCol < 0 {
		return single()
	}
	const maxParts = 4096
	var parts []partRange
	var prev any
	base := 0
	start := 0
	for _, s := range segs {
		v := s.Vecs[dateCol]
		// dates live either as ISO strings (which sort chronologically) or
		// as day numbers; anything else falls back to one partition.
		if s.N > 0 && (v.NullCnt != 0 || (v.Kind != vkInt && v.Kind != vkStr)) {
			return single()
		}
		for i := 0; i < s.N; i++ {
			// a row repeating the one above neither moves the date nor
			// breaks the order: skip it before boxing its value
			if i > 0 && (v.Kind == vkInt && v.Ints[i] == v.Ints[i-1] || v.Kind == vkStr && v.Codes[i] == v.Codes[i-1]) {
				continue
			}
			var d any
			if v.Kind == vkInt {
				d = v.Ints[i]
			} else {
				d = v.Dict[v.Codes[i]]
			}
			if prev != nil && dateLess(d, prev) {
				return single() // out of order: not partitionable
			}
			if d != prev {
				if prev != nil {
					parts = append(parts, partRange{
						name: dateName(prev), key: dateKey(prev),
						start: start, rows: base + i - start,
					})
					if len(parts) >= maxParts {
						return single()
					}
					start = base + i
				}
				prev = d
			}
		}
		base += s.N
	}
	parts = append(parts, partRange{
		name: dateName(prev), key: dateKey(prev),
		start: start, rows: nrows - start,
	})
	return dateCol, parts
}

func dateLess(a, b any) bool {
	switch x := a.(type) {
	case int64:
		y, ok := b.(int64)
		return ok && x < y
	case string:
		y, ok := b.(string)
		return ok && x < y
	}
	return false
}

func dateKey(d any) string {
	switch x := d.(type) {
	case int64:
		return strconv.FormatInt(x, 10)
	case string:
		return x
	}
	return ""
}

// dateName renders a date cell as a directory name: ISO strings pass
// through (hex-escaped if unsafe), day numbers since 2000-01-01 render as
// ISO, e.g. 8961 → "2024-07-14".
func dateName(d any) string {
	switch x := d.(type) {
	case string:
		return dirNameSafe(x)
	case int64:
		return time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC).
			AddDate(0, 0, int(x)).Format("2006-01-02")
	}
	return "all"
}

func dirNameSafe(name string) string {
	for _, r := range name {
		if !(r == '_' || r == '-' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
			return "d" + fmt.Sprintf("%x", []byte(name))
		}
	}
	if name == "" {
		return "d-empty"
	}
	return name
}

// --- small file helpers ---

func writeFileSync(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync()
		f.Close()
	}
}

// dirNameOf maps a table name to a safe directory name (SQL identifiers
// are almost always already safe; anything else is hex-escaped).
func dirNameOf(name string) string {
	safe := true
	for _, r := range name {
		if !(r == '_' || r >= 'a' && r <= 'z' || r >= '0' && r <= '9') {
			safe = false
			break
		}
	}
	if safe && name != "" {
		return name
	}
	return "t" + fmt.Sprintf("%x", []byte(name))
}

func (st *Store) removeStaleCheckpoints() {
	entries, err := os.ReadDir(st.opts.Dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "ckpt-") && e.Name() != st.ckptDir {
			os.RemoveAll(filepath.Join(st.opts.Dir, e.Name()))
		}
	}
	os.Remove(filepath.Join(st.opts.Dir, "CURRENT.tmp"))
}

// --- manifest ---

type manifest struct {
	Seq    uint64            `json:"seq"`
	LSN    uint64            `json:"lsn"`
	Tables []manifestTable   `json:"tables,omitempty"`
	Views  map[string]string `json:"views,omitempty"`
}

type manifestTable struct {
	Name    string         `json:"name"`
	Cols    []manifestCol  `json:"cols"`
	Rows    int            `json:"rows"`
	PartCol int            `json:"part_col"`
	Parts   []manifestPart `json:"parts,omitempty"`
	Segs    []manifestSeg  `json:"segs,omitempty"`
	// Sorted records each column's sorted attribute at checkpoint time, so
	// a cold open restores it without a scan. Absent in old manifests (nil →
	// all false), which is always sound. Manifests written before the hash
	// index was deleted also carry an "indexed" list, which decoding ignores.
	Sorted []bool `json:"sorted,omitempty"`
}

type manifestCol struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type manifestPart struct {
	Name  string `json:"name"`
	Key   string `json:"key,omitempty"`
	Start int    `json:"start"`
	Rows  int    `json:"rows"`
}

type manifestSeg struct {
	N    int           `json:"n"`
	Vecs []manifestVec `json:"vecs"`
}

type manifestVec struct {
	Kind    uint8 `json:"kind"`
	NullCnt int   `json:"nulls"`
	Min     *jval `json:"min,omitempty"`
	Max     *jval `json:"max,omitempty"`
}

// jval is a tagged JSON value: int64 travels as a string so it survives
// JSON's float64 round-trip losslessly.
type jval struct {
	T string `json:"t"`
	V string `json:"v,omitempty"`
}

func valToJSON(v any) *jval {
	switch x := v.(type) {
	case nil:
		return nil
	case int64:
		return &jval{T: "i", V: strconv.FormatInt(x, 10)}
	case float64:
		return &jval{T: "f", V: strconv.FormatFloat(x, 'g', -1, 64)}
	case string:
		return &jval{T: "s", V: x}
	case bool:
		if x {
			return &jval{T: "b", V: "1"}
		}
		return &jval{T: "b", V: "0"}
	}
	return nil // unreachable for the storable domain
}

func valFromJSON(j *jval) (any, error) {
	if j == nil {
		return nil, nil
	}
	switch j.T {
	case "i":
		return strconv.ParseInt(j.V, 10, 64)
	case "f":
		return strconv.ParseFloat(j.V, 64)
	case "s":
		return j.V, nil
	case "b":
		return j.V == "1", nil
	}
	return nil, fmt.Errorf("persist: unknown value tag %q", j.T)
}
