package pgdb

import (
	"fmt"
	"sync"

	"hyperq/internal/pgdb/sqlparse"
)

// parallelMinRows is the input size below which a parallel scan is not worth
// the goroutine fan-out; small inputs run the sequential loop.
const parallelMinRows = 4096

// wherePred lowers a WHERE, join or DML predicate once and returns a per-row
// keep test with 3VL semantics: only TRUE keeps, and a nil predicate keeps
// every row. Every row loop funnels through it or tick, so it doubles as
// the row-batch context checkpoint.
func (s *Session) wherePred(e sqlparse.Expr, schema []colBinding) func(row []any) (bool, error) {
	var pred exprFn
	if e != nil {
		pred = s.lowerExpr(e, schema)
	}
	ec := &evalCtx{s: s, rowIdx: -1}
	return func(row []any) (bool, error) {
		if err := s.tick(); err != nil {
			return false, err
		}
		if pred == nil {
			return true, nil
		}
		v, err := pred(ec, row)
		b, ok := v.(bool)
		return ok && b && err == nil, err // NULL (nil) and FALSE both reject
	}
}

// filterRows is the row-at-a-time WHERE operator. In the compiled engine,
// large inputs with a pure predicate fan out across the database's
// configured parallelism.
func (s *Session) filterRows(where sqlparse.Expr, schema []colBinding, rows [][]any) ([][]any, error) {
	if workers := s.db.Parallelism(); !s.interpretedMode() && workers > 1 && len(rows) >= parallelMinRows {
		if pred := compileExpr(where, schema); pred.pure {
			return s.filterParallel(pred.fn, rows, workers)
		}
	}
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

// filterParallel partitions the input across workers, each filling a private
// range of a shared keep-bitmap — no synchronization on the hot path. Only
// pure predicates reach here (they touch no session state), so the scan is
// race-free; workers poll the statement context directly at batch
// boundaries instead of the session tick counter. Errors are reported
// deterministically: the error of the lowest failing row index wins, which
// is the row the sequential scan would have failed on.
func (s *Session) filterParallel(pred exprFn, rows [][]any, workers int) ([][]any, error) {
	n := len(rows)
	keep := make([]bool, n)
	// Chunks round up to segment multiples so each worker's row range maps to
	// whole segments of the columnar store the rows were materialized from.
	chunk := (n + workers - 1) / workers
	if rem := chunk % segSize; rem != 0 {
		chunk += segSize - rem
	}
	errs := make([]error, workers)
	errRows := make([]int, workers)
	ctx := s.ctx
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			errRows[w] = -1
			continue
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errRows[w] = -1
			for i := lo; i < hi; i++ {
				if ctx != nil && (i-lo)%ctxCheckRows == ctxCheckRows-1 {
					if err := ctx.Err(); err != nil {
						errs[w] = fmt.Errorf("pgdb: query aborted: %w", err)
						errRows[w] = i
						return
					}
				}
				v, err := pred(nil, rows[i])
				if err != nil {
					errs[w] = err
					errRows[w] = i
					return
				}
				if b, ok := v.(bool); ok && b {
					keep[i] = true
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	firstErr := -1
	for w := range errs {
		if errs[w] != nil && (firstErr < 0 || errRows[w] < errRows[firstErr]) {
			firstErr = w
		}
	}
	if firstErr >= 0 {
		return nil, errs[firstErr]
	}
	cnt := 0
	for _, k := range keep {
		if k {
			cnt++
		}
	}
	kept := make([][]any, 0, cnt)
	for i, k := range keep {
		if k {
			kept = append(kept, rows[i])
		}
	}
	return kept, nil
}

// evalVecPred runs a lowered predicate over every segment of a column store,
// returning the global selection bitmap. Large multi-segment stores fan out
// across the configured parallelism; segment windows of the bitmap are
// disjoint word ranges, so workers never share a word.
//
// Evicted (stub) segments answer from metadata when the predicate's
// stubSeg verdict is decisive — a zone-pruned cold segment costs no I/O —
// and fault their data in only when a per-row scan is unavoidable.
func (s *Session) evalVecPred(p vecPred, st *colStore) ([]uint64, error) {
	n := st.numRows()
	out := make([]uint64, (n+63)/64)
	// access-path pre-pass: a predicate over sorted columns resolves to one
	// contiguous range by binary search, and a top-level equality or IN on an
	// indexed column reads its postings — either way no segment is scanned
	var idxErr error
	var idxDone bool
	func() {
		defer trapFault(&idxErr)
		idxDone = s.tryIndexPred(p, st, out)
	}()
	if idxErr != nil {
		return nil, idxErr
	}
	if idxDone {
		return out, nil
	}
	pcols := colsOf(p)
	if workers := s.db.Parallelism(); workers > 1 && n >= parallelMinRows && st.numSegs() > 1 {
		if err := s.evalVecPredParallel(p, pcols, st, out, workers); err != nil {
			return nil, err
		}
		return out, nil
	}
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
			evalPredSeg(p, pcols, st, si, out)
		}
	}()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// evalPredSeg evaluates the predicate over one segment's bitmap window,
// trying the metadata-only stub path first so pruned cold segments stay on
// disk; when a per-row scan is unavoidable it faults in only the predicate's
// referenced columns (pcols).
func evalPredSeg(p vecPred, pcols []int, st *colStore, si int, out []uint64) {
	seg := st.peekSeg(si)
	base := si * segWords
	window := out[base : base+(seg.n+63)/64]
	if seg.stub {
		if done := p.stubSeg(seg, window); done {
			return
		}
		seg = st.segCols(si, pcols)
	}
	p.evalSeg(seg, window)
}

// evalVecPredParallel assigns segments round-robin to workers. Lowered
// kernels cannot error, so the failures are statement cancellation — every
// worker reports the same error class, no ordering needed — and cold-
// segment reload faults, which the workers trap locally (a panic would
// escape the goroutine and kill the process). Workers fault distinct
// segments' columns concurrently: fault serialization is per (segment,
// column), so a cold parallel scan keeps the I/O paths of different
// partitions independent.
func (s *Session) evalVecPredParallel(p vecPred, pcols []int, st *colStore, out []uint64, workers int) error {
	ctx := s.ctx
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer trapFault(&errs[w])
			for si := w; si < st.numSegs(); si += workers {
				if ctx != nil {
					if err := ctx.Err(); err != nil {
						errs[w] = fmt.Errorf("pgdb: query aborted: %w", err)
						return
					}
				}
				evalPredSeg(p, pcols, st, si, out)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
