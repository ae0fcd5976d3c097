package pgdb

import "hyperq/internal/pgdb/sqlparse"

// Hooks for the external pgdb_test package, whose tests drive the engine
// through internal/core (which imports pgdb, so they cannot live in package
// pgdb itself).

// RelazyTable re-registers a loaded table as all-stub segments served from
// its current data by a recording loader, and returns a function naming the
// columns faulted in since.
func RelazyTable(db *DB, name string) (faulted func() []string) {
	var cols []Column
	var segs []SegmentData
	db.Exclusive(func() { cols, segs, _ = db.SnapshotTable(name) })
	rl := restoreLazy(db, name, cols, segs)
	return func() []string {
		var names []string
		got := rl.faultedCols(len(cols))
		for c := range cols {
			if got[c] {
				names = append(names, cols[c].Name)
			}
		}
		return names
	}
}

// LowersToVector reports whether a WHERE clause over a table lowers to a
// bitmap program, so the compiled engine scans it without boxing a row.
func LowersToVector(db *DB, table, where string) bool {
	stmt, err := sqlparse.Parse("SELECT * FROM " + table + " WHERE " + where)
	if err != nil {
		return false
	}
	db.mu.RLock()
	t := db.tables[table]
	db.mu.RUnlock()
	_, ok := lowerVecPred(stmt.(*sqlparse.SelectStmt).Where, schemaOf(t.cols, table), t.store)
	return ok
}

// GroupsInVector reports whether the grouped SELECT innermost in sql — the
// translator nests it as a FROM subquery — folds in the vector engine
// rather than in the walker.
func GroupsInVector(db *DB, sql string) (bool, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return false, err
	}
	sel := stmt.(*sqlparse.SelectStmt)
	for {
		sub, ok := sel.From.(*sqlparse.SubqueryRef)
		if !ok {
			break
		}
		sel = sub.Query
	}
	s := db.NewSession()
	rel, err := s.buildFrom(sel.From)
	if err != nil || rel.store == nil {
		return false, err
	}
	var selBits []uint64
	if sel.Where != nil {
		p, ok := lowerVecPred(sel.Where, rel.schema, rel.store)
		if !ok {
			return false, nil
		}
		if selBits, err = s.evalVecPred(p, rel.store); err != nil {
			return false, err
		}
	}
	_, ok, err := s.execGroupedVec(sel, rel, selBits)
	return ok, err
}

// SortsRows reports whether the ORDER BY of sql, one SELECT block, moves
// any of the rows the block produces: false when they arrive in its order,
// and the tail then neither sorts nor gathers them.
func SortsRows(db *DB, sql string) (bool, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return false, err
	}
	sel, ok := stmt.(*sqlparse.SelectStmt)
	if !ok || sel.Union != nil {
		return false, errf("0A000", "SortsRows wants one SELECT block")
	}
	block := *sel
	block.OrderBy, block.Limit = nil, nil
	s := db.NewSession()
	res, err := s.execTop(&block)
	if err != nil {
		return false, err
	}
	keys, err := orderKeys(sel.OrderBy, res.Cols)
	if err != nil {
		return false, err
	}
	ids, err := s.sortedIDs(res.store, nil, keys)
	return ids != nil, err
}
