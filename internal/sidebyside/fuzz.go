package sidebyside

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"hyperq/internal/config"
	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/persist"
	"hyperq/internal/pgdb"
	"hyperq/internal/qgen"
	"hyperq/internal/qlang/interp"
	"hyperq/internal/qlang/qval"
)

// openFramework builds a fresh side-by-side framework over the embedded
// engine e describes, running the exec engine — one Hyper-Q session reading
// its results over PG v3 from an in-process gateway, no state shared with
// any previous framework except the kdb+ substrate the caller passes. The
// fuzz driver rebuilds frameworks regularly so a corrupted global cannot
// poison later iterations. index builds hash indexes at any table size
// (FuzzConfig.Index). The caller closes the framework, and then owns the
// returned instance's store, if e has a DataDir.
func openFramework(kdb *interp.Interp, e config.Engine, exec pgdb.ExecMode, index bool) (*Framework, *config.Instance, error) {
	in, err := e.Open()
	if err != nil {
		return nil, nil, err
	}
	in.DB.SetExecMode(exec)
	if index {
		in.DB.SetIndexMinRows(0)
	}
	b, err := pipe(in.DB)
	if err != nil {
		in.Close()
		return nil, nil, err
	}
	s := core.NewPlatform().NewSession(b, core.Config{})
	return New(kdb, s, b), in, nil
}

// pipe opens a framework's backend: a gateway to db over an in-process PG v3
// connection. Tests wrap it to watch the results cross the wire.
var pipe = func(db *pgdb.DB) (core.Backend, error) {
	return gateway.Pipe(context.Background(), db)
}

// FuzzConfig controls a qdiff run.
type FuzzConfig struct {
	Seed int64
	N    int // number of queries
	// Shrink minimizes each failing case before reporting it.
	Shrink bool
	// ReloadEvery regenerates the dataset and framework every k queries
	// (default 25), so table shapes vary across one run.
	ReloadEvery int
	// MaxRows bounds generated fact tables (default qgen's 12).
	MaxRows int
	// ShrinkBudget bounds the number of comparisons one shrink may spend
	// (default 400).
	ShrinkBudget int
	// Engine configures the embedded engine under test, the way the
	// servers' flags would. The zero value is the engine in memory. Fuzz
	// uses DataDir and MemBudget and sets the rest itself: Sync is off
	// because every dataset is checkpointed explicitly.
	//
	// DataDir, when non-empty, backs every framework's database with the
	// durable store under a fresh subdirectory of it: the dataset is
	// checkpointed to splayed column files after loading and the framework
	// under test is cold-opened from that directory, so every query faults
	// its vectors back through the persist codec, evicted and refaulted
	// under MemBudget.
	config.Engine
	// Exec selects the execution engine under test (default ExecCompiled,
	// the serving engine; ExecInterpreted pins the reference walker).
	Exec pgdb.ExecMode
	// Index force-enables secondary indexes in every embedded database
	// (SetIndexMinRows(0), so even the tiny generated tables index) and loads
	// each table in two halves around an index-building probe: the first
	// half is inserted, a self-join on the key column builds its hash index,
	// and the second half's inserts then dirty that index — so the run
	// exercises incrementally-maintained indexes, not freshly built ones.
	Index bool
}

// FuzzCase is one divergence, minimized if shrinking was on. Tables holds
// the dataset the query ran against in corpus JSON form, so the case
// replays standalone.
type FuzzCase struct {
	Seed      int64            `json:"seed"`
	Iteration int              `json:"iteration"`
	Query     string           `json:"query"`
	Class     string           `json:"class"`
	Diffs     []string         `json:"diffs"`
	Tables    []qgen.TableJSON `json:"tables"`
}

// FuzzReport summarizes a qdiff run.
type FuzzReport struct {
	Seed       int64      `json:"seed"`
	N          int        `json:"n"`
	Matches    int        `json:"matches"`
	BothError  int        `json:"both_error"`
	Mismatches []FuzzCase `json:"mismatches"`
}

// divergenceClass buckets a non-matching report for triage.
func divergenceClass(rep *Report) string {
	if len(rep.Diffs) == 0 {
		return "value"
	}
	d := rep.Diffs[0]
	switch {
	case strings.HasPrefix(d, "error class divergence"):
		return "error-class"
	case strings.HasPrefix(d, "error divergence"):
		return "error"
	case strings.HasPrefix(d, "row count") || strings.HasPrefix(d, "length mismatch"):
		return "rowcount"
	case strings.HasPrefix(d, "column") || strings.HasPrefix(d, "shape mismatch"):
		return "shape"
	default:
		return "value"
	}
}

// Fuzz runs cfg.N generated queries through both engines and collects the
// divergences. Same seed, same report — the generator is the only source of
// randomness.
func Fuzz(ctx context.Context, cfg FuzzConfig) (*FuzzReport, error) {
	if cfg.ReloadEvery <= 0 {
		cfg.ReloadEvery = 25
	}
	if cfg.ShrinkBudget <= 0 {
		cfg.ShrinkBudget = 400
	}
	cfg.Sync = persist.SyncNone
	g := qgen.New(qgen.Config{Seed: cfg.Seed, MaxRows: cfg.MaxRows})
	rep := &FuzzReport{Seed: cfg.Seed, N: cfg.N, Mismatches: []FuzzCase{}}
	var f *Framework
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	var ds *qgen.Dataset
	for i := 0; i < cfg.N; i++ {
		if f == nil || i%cfg.ReloadEvery == 0 {
			if f != nil {
				f.Close()
			}
			ds = g.Dataset()
			var err error
			f, err = loadDataset(ctx, ds, cfg)
			if err != nil {
				return nil, fmt.Errorf("iteration %d: load dataset: %w", i, err)
			}
		}
		q := g.Query()
		r, err := f.Compare(ctx, q.Q())
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %s: %w", i, q.Q(), err)
		}
		if r.Match {
			rep.Matches++
			if r.KdbErr != ClassNone {
				rep.BothError++
			}
			continue
		}
		class := divergenceClass(r)
		sq, sds := q, ds
		if cfg.Shrink {
			sq, sds = shrinkCase(ctx, q, ds, class, cfg.ShrinkBudget, cfg)
			// re-derive the diffs for the minimized case
			if mf, err := loadDataset(ctx, sds, cfg); err == nil {
				if mr, err := mf.Compare(ctx, sq.Q()); err == nil && !mr.Match {
					r = mr
				}
				mf.Close()
			}
		}
		tables, err := qgen.EncodeDataset(sds)
		if err != nil {
			return nil, fmt.Errorf("iteration %d: encode: %w", i, err)
		}
		rep.Mismatches = append(rep.Mismatches, FuzzCase{
			Seed:      cfg.Seed,
			Iteration: i,
			Query:     sq.Q(),
			Class:     class,
			Diffs:     r.Diffs,
			Tables:    tables,
		})
	}
	return rep, nil
}

// persistSeq numbers the per-framework data directories of one process, so
// shrink reloads never reuse (and re-replay) an earlier framework's WAL.
var persistSeq atomic.Int64

// loadDataset builds a fresh framework with the dataset installed; the
// caller closes it.
func loadDataset(ctx context.Context, ds *qgen.Dataset, cfg FuzzConfig) (*Framework, error) {
	if cfg.DataDir != "" {
		return loadDatasetPersist(ctx, ds, cfg)
	}
	f, _, err := openFramework(interp.New(), cfg.Engine, cfg.Exec, cfg.Index)
	if err != nil {
		return nil, err
	}
	if err := loadTables(ctx, f, ds, cfg.Index); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// loadTables installs every table of ds on f. Index-enabled runs build each
// table's index mid-load (see FuzzConfig.Index).
func loadTables(ctx context.Context, f *Framework, ds *qgen.Dataset, index bool) error {
	for _, name := range ds.Names() {
		t, ok := ds.Tables[name]
		if !ok {
			continue
		}
		var err error
		if index {
			err = f.LoadTableStaged(ctx, name, t, indexProbe(name))
		} else {
			err = f.LoadTable(ctx, name, t)
		}
		if err != nil {
			return fmt.Errorf("load %s: %w", name, err)
		}
	}
	return nil
}

// indexProbe is the SQL statement an index-enabled load runs between the two
// halves of a table: a self-join on the symbol key column, which builds the
// column's hash index (join build side), so the tail inserts maintain a live
// index.
// Every generated table (t, d, qts) keys on column s.
func indexProbe(name string) string {
	return fmt.Sprintf("SELECT count(*) FROM %s a JOIN %s b ON a.s = b.s WHERE a.s = 'a'", name, name)
}

// loadDatasetPersist is loadDataset's disk-backed variant: the dataset is
// loaded through a staging database opened on a fresh durable store,
// checkpointed to splayed column files, and then a second database is
// cold-opened on the same directory — every table in the framework under
// test starts as on-disk stubs, so each query faults its vectors back
// through the persist codec. The kdb substrate is loaded once and shared
// by the staging and final frameworks, since both sides see the same data.
func loadDatasetPersist(ctx context.Context, ds *qgen.Dataset, cfg FuzzConfig) (*Framework, error) {
	e := cfg.Engine
	e.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("db%06d", persistSeq.Add(1)))
	staging := e // only written and checkpointed: the budget waits for the reopen
	staging.MemBudget = 0
	kdb := interp.New()
	loader, in, err := openFramework(kdb, staging, cfg.Exec, cfg.Index)
	if err != nil {
		return nil, err
	}
	// with Index the checkpoint records the indexes built mid-load, so the
	// cold reopen exercises the manifest's access-path round-trip
	err = loadTables(ctx, loader, ds, cfg.Index)
	loader.Close() // the loading session ends before the checkpoint
	if err != nil {
		in.Close()
		return nil, err
	}
	if err := in.Close(); err != nil {
		return nil, fmt.Errorf("checkpoint dataset: %w", err)
	}
	// Cold reopen: a fresh database restored purely from the on-disk
	// catalog. The corpus is read-only after load, so the reopened store's
	// WAL handle can be released immediately too.
	f, in, err := openFramework(kdb, e, cfg.Exec, cfg.Index)
	if err != nil {
		return nil, fmt.Errorf("cold reopen: %w", err)
	}
	if err := in.Store.Close(); err != nil {
		f.Close()
		return nil, fmt.Errorf("close reopened store: %w", err)
	}
	return f, nil
}

// reproduces reports whether the (query, dataset) pair still shows a
// divergence of the same class.
func reproduces(ctx context.Context, q *qgen.Query, ds *qgen.Dataset, class string, budget *int, cfg FuzzConfig) bool {
	if *budget <= 0 {
		return false
	}
	*budget--
	f, err := loadDataset(ctx, ds, cfg)
	if err != nil {
		return false
	}
	defer f.Close()
	r, err := f.Compare(ctx, q.Q())
	if err != nil || r.Match {
		return false
	}
	return divergenceClass(r) == class
}

// shrinkCase minimizes a failing (query, dataset) pair: alternately shrink
// the query structure (drop where conjuncts, select columns, by, join;
// replace expressions by sub-expressions) and the table rows (delta
// debugging: halves, then single rows), until neither makes progress or the
// budget runs out.
func shrinkCase(ctx context.Context, q *qgen.Query, ds *qgen.Dataset, class string, budget int, cfg FuzzConfig) (*qgen.Query, *qgen.Dataset) {
	for {
		progressed := false
		// query-level shrinks to a fixpoint
		for {
			var next *qgen.Query
			for _, cand := range q.Shrinks() {
				if reproduces(ctx, cand, ds, class, &budget, cfg) {
					next = cand
					break
				}
			}
			if next == nil {
				break
			}
			q = next
			progressed = true
		}
		// row-level shrinks, one table at a time
		for _, name := range ds.Names() {
			t := ds.Tables[name]
			if t == nil || t.Len() == 0 {
				continue
			}
			if small := shrinkRows(ctx, q, ds, name, class, &budget, cfg); small != nil {
				ds = small
				progressed = true
			}
		}
		if !progressed || budget <= 0 {
			return q, ds
		}
	}
}

// shrinkRows delta-debugs one table's rows; returns a smaller dataset or
// nil when no deletion reproduces.
func shrinkRows(ctx context.Context, q *qgen.Query, ds *qgen.Dataset, name, class string, budget *int, cfg FuzzConfig) *qgen.Dataset {
	cur := ds
	improved := false
	for chunk := cur.Tables[name].Len() / 2; chunk >= 1; chunk /= 2 {
		for lo := 0; lo+chunk <= cur.Tables[name].Len(); {
			cand := withTableRows(cur, name, deleteRange(cur.Tables[name].Len(), lo, lo+chunk))
			if reproduces(ctx, q, cand, class, budget, cfg) {
				cur = cand
				improved = true
				// same lo now addresses the next chunk
			} else {
				lo += chunk
			}
			if *budget <= 0 {
				break
			}
		}
		if *budget <= 0 {
			break
		}
	}
	if !improved {
		return nil
	}
	return cur
}

// deleteRange lists the row indexes of 0..n-1 with [lo,hi) removed.
func deleteRange(n, lo, hi int) []int {
	out := make([]int, 0, n-(hi-lo))
	for i := 0; i < n; i++ {
		if i >= lo && i < hi {
			continue
		}
		out = append(out, i)
	}
	return out
}

// withTableRows returns a dataset where table name keeps only rows idx.
func withTableRows(ds *qgen.Dataset, name string, idx []int) *qgen.Dataset {
	out := &qgen.Dataset{Tables: map[string]*qval.Table{}}
	for n, t := range ds.Tables {
		out.Tables[n] = t
	}
	t := ds.Tables[name]
	data := make([]qval.Value, len(t.Data))
	for c := range t.Data {
		data[c] = qval.TakeIndexes(t.Data[c], idx)
	}
	out.Tables[name] = qval.NewTable(append([]string(nil), t.Cols...), data)
	return out
}

// ---------- regression corpus ----------

// CorpusEntry is one checked-in reproducer: a query plus its dataset. The
// corpus replay test asserts every entry MATCHES — each file documents a
// divergence that was found by qdiff and then fixed.
type CorpusEntry struct {
	Name   string           `json:"name"`
	Note   string           `json:"note,omitempty"`
	Query  string           `json:"query"`
	Tables []qgen.TableJSON `json:"tables"`
}

// WriteCorpusEntry persists an entry as dir/<name>.json.
func WriteCorpusEntry(dir string, e *CorpusEntry) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	text, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, e.Name+".json"), append(text, '\n'), 0o644)
}

// LoadCorpus reads every *.json entry under dir, sorted by name. Unknown
// fields are an error: an entry carrying a mode no replayer reads fails
// loudly instead of replaying in a different mode than it was found in.
func LoadCorpus(dir string) ([]*CorpusEntry, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []*CorpusEntry
	for _, p := range paths {
		text, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var e CorpusEntry
		dec := json.NewDecoder(bytes.NewReader(text))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &e)
	}
	return out, nil
}

// ReplayEntry runs one corpus entry through a fresh framework (compiled
// engine) and returns the comparison report.
func ReplayEntry(ctx context.Context, e *CorpusEntry) (*Report, error) {
	return ReplayEntryEngine(ctx, e, config.Defaults(), pgdb.ExecCompiled, false)
}

// ReplayEntryEngine is ReplayEntry on an engine configured as eng running
// exec, with hash indexes at any table size when index is set.
func ReplayEntryEngine(ctx context.Context, e *CorpusEntry, eng config.Engine, exec pgdb.ExecMode, index bool) (*Report, error) {
	ds, err := qgen.DecodeDataset(e.Tables)
	if err != nil {
		return nil, err
	}
	f, _, err := openFramework(interp.New(), eng, exec, index)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	for _, tj := range e.Tables {
		if err := f.LoadTable(ctx, tj.Name, ds.Tables[tj.Name]); err != nil {
			return nil, fmt.Errorf("load %s: %w", tj.Name, err)
		}
	}
	return f.Compare(ctx, e.Query)
}
