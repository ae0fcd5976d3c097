package pgdb

import (
	"fmt"

	"hyperq/internal/pgdb/sqlparse"
)

// wherePred returns a per-row keep test for a WHERE or join predicate with
// 3VL semantics: only TRUE keeps, and a nil predicate keeps every row.
// Every row loop funnels through it or tick, so it doubles as the row-batch
// context checkpoint.
func (s *Session) wherePred(e sqlparse.Expr, schema []colBinding) func(row []any) (bool, error) {
	return func(row []any) (bool, error) {
		if err := s.tick(); err != nil {
			return false, err
		}
		if e == nil {
			return true, nil
		}
		v, err := evalExpr(e, schema, row)
		b, ok := v.(bool)
		return ok && b && err == nil, err // NULL (nil) and FALSE both reject
	}
}

// filterRows is the row-at-a-time WHERE operator.
func (s *Session) filterRows(where sqlparse.Expr, schema []colBinding, rows [][]any) ([][]any, error) {
	match := s.wherePred(where, schema)
	kept := make([][]any, 0, len(rows))
	for _, row := range rows {
		ok, err := match(row)
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, row)
		}
	}
	return kept, nil
}

// evalVecPred runs a lowered predicate over every segment of a column store,
// returning the global selection bitmap: the rows where it is TRUE. The
// WHERE keeps TRUE &^ NULL, which is TRUE alone, so the NULL window is
// never asked for.
//
// Evicted (stub) segments answer from metadata when the predicate's
// stubSeg verdict is decisive — a zone-pruned cold segment costs no I/O —
// and fault their data in only when a per-row scan is unavoidable.
func (s *Session) evalVecPred(p vecPred, st *colStore) ([]uint64, error) {
	n := st.numRows()
	out := make([]uint64, (n+63)/64)
	// access-path pre-pass: a predicate over sorted columns resolves to one
	// contiguous range by binary search, and no segment is scanned
	var idxErr error
	var idxDone bool
	func() {
		defer trapFault(&idxErr)
		idxDone = trySortedPred(p, st, out)
	}()
	if idxErr != nil {
		return nil, idxErr
	}
	if idxDone {
		return out, nil
	}
	pcols := colsOf(p)
	ctx := s.ctx
	var err error
	func() {
		defer trapFault(&err)
		for si := 0; si < st.numSegs(); si++ {
			if ctx != nil {
				if cerr := ctx.Err(); cerr != nil {
					err = fmt.Errorf("pgdb: query aborted: %w", cerr)
					return
				}
			}
			// a stub answers from metadata when it can; otherwise only the
			// predicate's columns fault in
			seg := st.peekSeg(si)
			window := out[si*segWords : si*segWords+(seg.n+63)/64]
			if seg.stub {
				if p.stubSeg(seg, window, nil) {
					continue
				}
				seg = st.segCols(si, pcols)
			}
			p.evalSeg(seg, window, nil)
		}
	}()
	if err != nil {
		return nil, err
	}
	return out, nil
}
