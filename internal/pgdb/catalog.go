package pgdb

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hyperq/internal/pgdb/sqlparse"
)

// ExecMode selects which execution engine runs statements.
type ExecMode int32

const (
	// ExecCompiled is the default and only serving engine: the vector paths,
	// with the AST walker (eval.go) as their only row fallback. Base-table
	// scans read the column vectors directly: WHERE clauses that lower to
	// bitmap kernels (vector.go) skip segments by zone map or answer from
	// sorted attributes (index.go), aggregations whose keys and arguments
	// lower to columns or value kernels (kernel.go) fold over the selection
	// bitmap (vecagg.go), and projections of columns and value kernels
	// gather only the selected cells. Shapes that do not lower run
	// the walker over boxed rows that hold only the selected rows and the
	// columns the statement reads.
	ExecCompiled ExecMode = iota
	// ExecInterpreted runs the walker alone, with none of the vector paths,
	// over rows it boxes from the vectors per statement. It is the reference
	// implementation for differential parity testing (internal/sidebyside,
	// qdiff -exec interpreted); no server serves with it.
	ExecInterpreted
)

// execModeNames is the one spelling of each engine, indexed by ExecMode.
var execModeNames = [...]string{"compiled", "interpreted"}

func (m ExecMode) String() string {
	if m < 0 || int(m) >= len(execModeNames) {
		return fmt.Sprintf("ExecMode(%d)", int32(m))
	}
	return execModeNames[m]
}

// ParseExecMode maps a qdiff -exec flag value to an ExecMode.
func ParseExecMode(s string) (ExecMode, error) {
	for m, name := range execModeNames {
		if s == name {
			return ExecMode(m), nil
		}
	}
	return 0, fmt.Errorf("unknown exec mode %q (want compiled or interpreted)", s)
}

// storedTable is a heap table in the catalog. Its data lives only in a
// columnar store (colstore.go); row-at-a-time consumers box the rows they
// read once per statement.
type storedTable struct {
	name  string
	cols  []Column
	store *colStore
}

// newStoredTable creates a table and bulk-loads the given rows. The table's
// access paths report to db's index counters.
func newStoredTable(db *DB, name string, cols []Column, rows [][]any) *storedTable {
	t := &storedTable{name: name, cols: cols, store: newColStore(cols)}
	t.store.ix.stats = &db.idxStats
	for _, r := range rows {
		t.store.appendRow(r)
	}
	return t
}

// storedView is a named view definition.
type storedView struct {
	name string
	sql  string
}

// DB is the embedded database: a catalog of tables and views plus the query
// engine. It is safe for concurrent use; statements take a coarse
// reader/writer lock — catalog-writing statements run exclusively, reads run
// concurrently — which is adequate for the analytics workloads this
// reproduction runs.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*storedTable
	views  map[string]*storedView
	// execMode is read per statement and settable at any time, hence an
	// atomic rather than a field under mu.
	execMode atomic.Int32

	// stmtMu is the coarse statement lock: statements that mutate permanent
	// relations (INSERT, DDL) hold it exclusively for their whole execution;
	// everything else holds it shared. This closes the window where a
	// concurrent scan could observe a half-applied append: scans read the
	// vectors without locking them.
	stmtMu sync.RWMutex
	// journal, when set, receives every permanent-relation change under the
	// exclusive statement lock (see persist.go). afterStmt runs after each
	// top-level statement outside the lock.
	journal   Journal
	afterStmt func()

	// idxStats collects database-wide access-path and fallback counters.
	idxStats IndexStats
}

// NewDB creates an empty database. The default execution mode is
// ExecCompiled — vector scans, fused aggregates, column-granular fault-in
// and sorted-attribute access paths included.
func NewDB() *DB {
	return &DB{tables: map[string]*storedTable{}, views: map[string]*storedView{}}
}

// IndexStats exposes the database's access-path counters; the pointer stays
// valid for the database's lifetime.
func (db *DB) IndexStats() *IndexStats { return &db.idxStats }

// SetExecMode selects the execution engine for subsequent statements.
func (db *DB) SetExecMode(m ExecMode) { db.execMode.Store(int32(m)) }

// ExecutionMode reports the current execution engine.
func (db *DB) ExecutionMode() ExecMode { return ExecMode(db.execMode.Load()) }

// SetParallelism does nothing: a statement runs on its session's goroutine.
// It remains for callers written against the former worker-count setting.
func (db *DB) SetParallelism(int) {}

// SetIndexMinRows does nothing: a table keeps no hash index. It and
// DefaultIndexMinRows remain for callers written against the former index
// row threshold.
func (db *DB) SetIndexMinRows(int) {}

// DefaultIndexMinRows was the former hash index's row threshold; nothing
// reads it.
const DefaultIndexMinRows = segSize

// interpretedMode reports whether the session's database runs the retained
// AST-walking engine instead of the compiled one.
func (s *Session) interpretedMode() bool {
	return s.db.ExecutionMode() == ExecInterpreted
}

// Session is a connection-scoped view of the database holding temporary
// tables, which shadow catalog tables by name and disappear with the
// session — the substrate for Hyper-Q's physical materialization (§4.3).
type Session struct {
	db   *DB
	temp map[string]*storedTable
	// ctx is the context of the statement currently executing (installed by
	// ExecContext); tick polls it at row-batch boundaries. A session executes
	// one statement at a time, so a plain field suffices.
	ctx   context.Context
	ticks int
	// lockDepth tracks nested ExecStmt calls (view expansion re-enters the
	// executor): only the outermost acquires the database's statement lock.
	lockDepth int
	// strProbes counts the string-map probes that single-key string GROUP
	// BYs made, one per dictionary entry per segment (tests read it).
	strProbes int
}

// NewSession opens a session on the database.
func (db *DB) NewSession() *Session {
	return &Session{db: db, temp: map[string]*storedTable{}}
}

// Close drops all temporary tables of the session.
func (s *Session) Close() { s.temp = map[string]*storedTable{} }

// lookupTable resolves a table name: session temp tables first, then the
// shared catalog.
func (s *Session) lookupTable(name string) (*storedTable, bool) {
	if t, ok := s.temp[name]; ok {
		return t, true
	}
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	t, ok := s.db.tables[name]
	return t, ok
}

func (s *Session) lookupView(name string) (*storedView, bool) {
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	v, ok := s.db.views[name]
	return v, ok
}

// CreateTable registers a permanent table with the given schema, replacing
// any previous definition.
func (db *DB) CreateTable(name string, cols []Column) {
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	db.mu.Lock()
	db.tables[name] = newStoredTable(db, name, cols, nil)
	db.mu.Unlock()
	if db.journal != nil {
		db.journal.JournalCreateTable(name, cols)
	}
}

// InsertRows bulk-loads rows into a permanent table.
func (db *DB) InsertRows(name string, rows [][]any) error {
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	db.mu.Lock()
	t, ok := db.tables[name]
	db.mu.Unlock()
	if !ok {
		return errf("42P01", "relation %q does not exist", name)
	}
	for _, r := range rows {
		if len(r) != len(t.cols) {
			return errf("42601", "row width %d != %d columns", len(r), len(t.cols))
		}
	}
	for _, r := range rows {
		t.store.appendRow(r)
	}
	if db.journal != nil && len(rows) > 0 {
		return db.journal.JournalAppend(name, rows)
	}
	return nil
}

// TableNames lists permanent tables (sorted).
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TableColumns returns the schema of a table (or temp table via session).
func (db *DB) TableColumns(name string) ([]Column, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, false
	}
	return append([]Column(nil), t.cols...), true
}

// informationSchema serves information_schema.columns, the metadata query
// the MDI issues (paper §3.2.3: binding resolves variables by querying the
// PG catalog).
func (s *Session) informationSchema(rel string) (*Result, error) {
	if rel != "columns" {
		return nil, errf("42P01", "relation information_schema.%s does not exist", rel)
	}
	res := &Result{Cols: []Column{
		{Name: "table_schema", Type: "varchar"},
		{Name: "table_name", Type: "varchar"},
		{Name: "column_name", Type: "varchar"},
		{Name: "ordinal_position", Type: "bigint"},
		{Name: "data_type", Type: "varchar"},
	}}
	var rows [][]any
	emit := func(schema string, t *storedTable) {
		for i, c := range t.cols {
			rows = append(rows, []any{schema, t.name, c.Name, int64(i + 1), c.Type})
		}
	}
	s.db.mu.RLock()
	for _, t := range s.db.tables {
		emit("public", t)
	}
	s.db.mu.RUnlock()
	for _, t := range s.temp {
		emit("pg_temp", t)
	}
	// by table name, then ordinal position
	res.store = columnize(res.Cols, rows)
	ids, err := s.sortedIDs(res.store, nil, []sortKey{{col: 1}, {col: 3}})
	if err != nil {
		return nil, err
	}
	if ids != nil {
		res.store = gatherAll(res.Cols, res.store, ids)
	}
	return res, nil
}

// resolveRelation materializes a named relation: temp table, base table,
// view (re-executed), or information_schema virtual table. A name under any
// other schema is refused.
func (s *Session) resolveRelation(schema, name string) (*Result, error) {
	switch schema {
	case "":
	case "information_schema":
		return s.informationSchema(name)
	default:
		return nil, errf("42P01", "relation %s.%s does not exist", schema, name)
	}
	if t, ok := s.lookupTable(name); ok {
		// the compiled engine scans the column vectors directly and prunes
		// segments by zone map; rows are boxed — faulting every evicted
		// segment — only if a consumer needs them (relation.rowsView)
		return &Result{Cols: append([]Column(nil), t.cols...), store: t.store}, nil
	}
	if v, ok := s.lookupView(name); ok {
		// re-execute the view definition under the current statement's
		// context (s.ctx stays installed; going through Exec would reset it)
		stmt, err := sqlparse.Parse(v.sql)
		if err != nil {
			return nil, errf("42601", "%v", err)
		}
		sel, ok := stmt.(*sqlparse.SelectStmt)
		if !ok {
			return nil, errf("42601", "view %s is not a SELECT", name)
		}
		return s.execSelect(sel)
	}
	return nil, errf("42P01", "relation %q does not exist", strings.TrimSpace(name))
}
