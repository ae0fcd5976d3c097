package pgdb

import (
	"context"
	"fmt"

	"hyperq/internal/pgdb/sqlparse"
)

// Exec parses and executes one SQL statement in the session, returning a
// result set for queries and a command tag for DML/DDL. It runs without a
// deadline; request-scoped execution goes through ExecContext.
func (s *Session) Exec(sql string) (*Result, error) {
	return s.ExecContext(context.Background(), sql)
}

// ExecContext is Exec bounded by a context: execution checks ctx at
// row-batch boundaries, so a runaway scan or join over the embedded engine
// is abortable the same way a networked backend query is.
func (s *Session) ExecContext(ctx context.Context, sql string) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, errf("42601", "%v", err)
	}
	return boxed(s.execStmtContext(ctx, stmt))
}

// boxed is the exported entry points' boundary: a columnar result leaves
// them with its rows boxed.
func boxed(res *Result, err error) (*Result, error) {
	if res != nil && res.store != nil {
		res.Rows, res.store = res.store.boxSel(nil, seq(0, len(res.Cols))), nil
	}
	return res, err
}

// execStmtContext is execTop bounded by a context, for a statement parsed
// ahead of its execution.
func (s *Session) execStmtContext(ctx context.Context, stmt sqlparse.Stmt) (*Result, error) {
	prev, prevTicks := s.ctx, s.ticks
	s.ctx, s.ticks = ctx, 0
	defer func() { s.ctx, s.ticks = prev, prevTicks }()
	return s.execTop(stmt)
}

// ctxCheckRows is how many row visits pass between context checks — the
// row-batch boundary: frequent enough to abort a runaway scan promptly,
// rare enough to stay off the per-row hot path.
const ctxCheckRows = 1024

// tick is called once per row visited by scans, joins and projections; every
// ctxCheckRows visits it polls the execution context.
func (s *Session) tick() error {
	s.ticks++
	if s.ticks%ctxCheckRows != 0 {
		return nil
	}
	return s.poll()
}

// poll checks the execution context now. Loops that box a segment at a time
// call it once per segment.
func (s *Session) poll() error {
	if s.ctx == nil {
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("pgdb: query aborted: %w", err)
	}
	return nil
}

// ExecScript executes a semicolon-separated batch, returning the result of
// each statement.
func (s *Session) ExecScript(sql string) ([]*Result, error) {
	return s.ExecScriptContext(context.Background(), sql)
}

// ExecScriptContext is ExecScript bounded by a context; the whole batch
// shares one deadline.
func (s *Session) ExecScriptContext(ctx context.Context, sql string) ([]*Result, error) {
	out, err := s.execScript(ctx, sql)
	for _, r := range out {
		boxed(r, nil)
	}
	return out, err
}

// execScript is ExecScriptContext without the boxing.
func (s *Session) execScript(ctx context.Context, sql string) ([]*Result, error) {
	prev, prevTicks := s.ctx, s.ticks
	s.ctx, s.ticks = ctx, 0
	defer func() { s.ctx, s.ticks = prev, prevTicks }()
	stmts, err := sqlparse.ParseScript(sql)
	if err != nil {
		return nil, errf("42601", "%v", err)
	}
	out := make([]*Result, 0, len(stmts))
	for _, st := range stmts {
		r, err := s.execTop(st)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ExecStmt executes a parsed statement. The outermost call takes the
// database's coarse statement lock — exclusively for statements that mutate
// permanent relations, shared otherwise — so concurrent sessions never race
// a scan against a half-applied append. Nested calls (view expansion) run
// under the outer statement's lock.
func (s *Session) ExecStmt(stmt sqlparse.Stmt) (*Result, error) {
	return boxed(s.execTop(stmt))
}

// execTop is ExecStmt without the boxing: a SELECT's result is a private
// column store that shares no table's vectors.
func (s *Session) execTop(stmt sqlparse.Stmt) (*Result, error) {
	if s.lockDepth > 0 {
		return s.execStmt(stmt)
	}
	res, err := func() (*Result, error) {
		if s.stmtWrites(stmt) {
			s.db.stmtMu.Lock()
			defer s.db.stmtMu.Unlock()
		} else {
			s.db.stmtMu.RLock()
			defer s.db.stmtMu.RUnlock()
		}
		s.lockDepth++
		defer func() { s.lockDepth-- }()
		return s.execStmt(stmt)
	}()
	// the after-statement hook (checkpoint scheduling, memory-budget
	// eviction) runs outside the lock: it may take it exclusively itself
	if after := s.db.afterStmt; after != nil {
		after()
	}
	return res, err
}

// stmtWrites reports whether a statement mutates shared (non-temp) catalog
// state and therefore needs the exclusive statement lock. An INSERT into a
// session temp table stays shared: temp tables are session-local.
func (s *Session) stmtWrites(stmt sqlparse.Stmt) bool {
	isTemp := func(name string) bool { _, ok := s.temp[name]; return ok }
	switch st := stmt.(type) {
	case *sqlparse.InsertStmt:
		return !isTemp(st.Table)
	case *sqlparse.CreateTableStmt:
		return !st.Temp
	case *sqlparse.CreateViewStmt:
		return true
	case *sqlparse.DropStmt:
		return st.View || !isTemp(st.Name)
	}
	return false
}

// trapFault converts a storeFault panic (cold-segment reload failure) into
// a statement error at a boundary that has an error return.
func trapFault(err *error) {
	if r := recover(); r != nil {
		if f, ok := r.(*storeFault); ok {
			*err = errf("58030", "storage fault: %v", f.err)
			return
		}
		panic(r)
	}
}

func (s *Session) execStmt(stmt sqlparse.Stmt) (res *Result, err error) {
	defer trapFault(&err)
	switch st := stmt.(type) {
	case *sqlparse.SelectStmt:
		res, err := s.execSelect(st)
		if err != nil {
			return nil, err
		}
		if res.store.sharesTable() {
			// the result is read after the statement lock is released, and
			// INSERT writes a table's tail vectors in place
			if err := s.poll(); err != nil {
				return nil, err
			}
			res.store = gatherAll(res.Cols, res.store, seq32(res.store.n))
		}
		res.Tag = fmt.Sprintf("SELECT %d", res.store.n)
		return res, nil
	case *sqlparse.CreateTableStmt:
		return s.execCreateTable(st)
	case *sqlparse.CreateViewStmt:
		s.db.mu.Lock()
		s.db.views[st.Name] = &storedView{name: st.Name, sql: st.Source}
		s.db.mu.Unlock()
		if j := s.db.journal; j != nil {
			if jerr := j.JournalCreateView(st.Name, st.Source); jerr != nil {
				return nil, errf("58030", "journal: %v", jerr)
			}
		}
		return &Result{Tag: "CREATE VIEW"}, nil
	case *sqlparse.DropStmt:
		return s.execDrop(st)
	case *sqlparse.InsertStmt:
		return s.execInsert(st)
	default:
		return nil, errf("0A000", "unsupported statement %T", stmt)
	}
}

func (s *Session) execCreateTable(st *sqlparse.CreateTableStmt) (*Result, error) {
	if _, exists := s.lookupTable(st.Name); exists {
		if _, isTemp := s.temp[st.Name]; !isTemp && !st.Temp {
			return nil, errf("42P07", "relation %q already exists", st.Name)
		}
	}
	var t *storedTable
	var initRows [][]any
	if st.AsSelect != nil {
		res, err := s.execSelect(st.AsSelect)
		if err != nil {
			return nil, err
		}
		initRows = res.store.boxSel(nil, seq(0, len(res.Cols)))
		t = newStoredTable(s.db, st.Name, res.Cols, initRows)
	} else {
		t = newStoredTable(s.db, st.Name, append([]Column(nil), columnDefs(st.Cols)...), nil)
	}
	if st.Temp {
		s.temp[st.Name] = t
	} else {
		s.db.mu.Lock()
		s.db.tables[st.Name] = t
		s.db.mu.Unlock()
		if j := s.db.journal; j != nil {
			// CTAS journals as CREATE + APPEND; both records fsync before
			// the statement acknowledges
			if jerr := j.JournalCreateTable(st.Name, t.cols); jerr != nil {
				return nil, errf("58030", "journal: %v", jerr)
			}
			if len(initRows) > 0 {
				if jerr := j.JournalAppend(st.Name, initRows); jerr != nil {
					return nil, errf("58030", "journal: %v", jerr)
				}
			}
		}
	}
	return &Result{Tag: "CREATE TABLE"}, nil
}

func columnDefs(defs []sqlparse.ColumnDef) []Column {
	out := make([]Column, len(defs))
	for i, d := range defs {
		out[i] = Column{Name: d.Name, Type: normalizeType(d.Type)}
	}
	return out
}

func normalizeType(t string) string {
	switch t {
	case "int", "int4", "integer":
		return "integer"
	case "int8", "bigint":
		return "bigint"
	case "int2", "smallint":
		return "smallint"
	case "float4", "real":
		return "real"
	case "float8", "double precision", "float":
		return "double precision"
	case "bool", "boolean":
		return "boolean"
	case "text", "varchar", "char", "character", "bpchar":
		return "varchar"
	default:
		return t
	}
}

func (s *Session) execDrop(st *sqlparse.DropStmt) (*Result, error) {
	if st.View {
		s.db.mu.Lock()
		_, ok := s.db.views[st.Name]
		delete(s.db.views, st.Name)
		s.db.mu.Unlock()
		if !ok && !st.IfExists {
			return nil, errf("42P01", "view %q does not exist", st.Name)
		}
		if j := s.db.journal; j != nil && ok {
			if jerr := j.JournalDrop(st.Name, true); jerr != nil {
				return nil, errf("58030", "journal: %v", jerr)
			}
		}
		return &Result{Tag: "DROP VIEW"}, nil
	}
	if _, ok := s.temp[st.Name]; ok {
		delete(s.temp, st.Name)
		return &Result{Tag: "DROP TABLE"}, nil
	}
	s.db.mu.Lock()
	_, ok := s.db.tables[st.Name]
	delete(s.db.tables, st.Name)
	s.db.mu.Unlock()
	if !ok && !st.IfExists {
		return nil, errf("42P01", "table %q does not exist", st.Name)
	}
	if j := s.db.journal; j != nil && ok {
		if jerr := j.JournalDrop(st.Name, false); jerr != nil {
			return nil, errf("58030", "journal: %v", jerr)
		}
	}
	return &Result{Tag: "DROP TABLE"}, nil
}

func (s *Session) execInsert(st *sqlparse.InsertStmt) (*Result, error) {
	t, ok := s.lookupTable(st.Table)
	if !ok {
		return nil, errf("42P01", "relation %q does not exist", st.Table)
	}
	// every row evaluates before the first append: a failing INSERT leaves
	// the table as it was
	appended := make([][]any, 0, len(st.Rows))
	for _, rowExprs := range st.Rows {
		if len(rowExprs) != len(t.cols) {
			return nil, errf("42601", "INSERT has %d expressions but %d target columns", len(rowExprs), len(t.cols))
		}
		row := make([]any, len(rowExprs))
		for i, e := range rowExprs {
			v, err := evalExpr(e, nil, nil)
			if err != nil {
				return nil, err
			}
			row[i] = coerceToColumn(v, t.cols[i].Type)
		}
		appended = append(appended, row)
	}
	for _, row := range appended {
		t.store.appendRow(row)
	}
	_, isTemp := s.temp[st.Table]
	if j := s.db.journal; j != nil && !isTemp && len(appended) > 0 {
		if jerr := j.JournalAppend(st.Table, appended); jerr != nil {
			return nil, errf("58030", "journal: %v", jerr)
		}
	}
	return &Result{Tag: fmt.Sprintf("INSERT 0 %d", len(appended))}, nil
}

// coerceToColumn nudges a value toward its column's storage type so that
// integer columns hold int64 and float columns hold float64.
func coerceToColumn(v any, typ string) any {
	if v == nil {
		return nil
	}
	switch typ {
	case "smallint", "integer", "bigint", "date", "time", "timestamp", "interval":
		if f, ok := v.(float64); ok {
			return int64(f)
		}
	case "real", "double precision", "numeric":
		if n, ok := v.(int64); ok {
			return float64(n)
		}
	}
	return v
}
