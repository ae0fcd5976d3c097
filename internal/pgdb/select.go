package pgdb

import (
	"fmt"
	"math"
	"strings"

	"hyperq/internal/pgdb/sqlparse"
)

// colBinding is one column visible to expression evaluation, qualified by
// the table alias it came from.
type colBinding struct {
	table string
	name  string
	typ   string
}

func schemaOf(cols []Column, alias string) []colBinding {
	out := make([]colBinding, len(cols))
	for i, c := range cols {
		out[i] = colBinding{table: alias, name: c.Name, typ: c.Type}
	}
	return out
}

// relation is a block's input: bound columns plus their rows. store is set
// for a columnar relation — a base-table scan, a catalog read, or a
// subquery's or join's statement-private store (gather.go) — whose columns
// line up with schema and which the compiled engine scans through the
// vector paths. Only a row join's output, a walker WHERE's kept rows and
// the one empty row of a SELECT without FROM are boxed rows alone. A
// store's rows stay nil until a consumer needs them: rowsView boxes every
// row, and a vector scan's row-at-a-time fallback boxes only what it reads
// (boxSel), so fully-pruned scans never fault evicted segments or box a
// cell. Boxed rows belong to the relation, which lives for one statement.
type relation struct {
	schema []colBinding
	rows   [][]any
	store  *colStore
}

// rowsView returns the boxed rows, boxing a columnar relation's on first use.
func (r *relation) rowsView() [][]any {
	if r.rows == nil && r.store != nil {
		r.rows = r.store.boxSel(nil, seq(0, len(r.store.cols)))
	}
	return r.rows
}

// narrow boxes the rows set in sel (nil: every row) of a columnar relation
// for the walker, keeping only cols: the schema shrinks to them, so a row is
// only as wide as what the block reads. A relation already boxed stays as
// it is.
func (r *relation) narrow(sel []uint64, cols []int) {
	if r.store == nil || r.rows != nil {
		return
	}
	schema := make([]colBinding, len(cols))
	for k, c := range cols {
		schema[k] = r.schema[c]
	}
	r.schema, r.rows, r.store = schema, r.store.boxSel(sel, cols), nil
}

// blockCols is the sorted set of the columns of schema a block can read:
// each column a star of its items selects, and each column named by a
// reference in its items, GROUP BY or WHERE, whatever the reference's
// qualifier. Matching by name alone keeps every column a reference could
// resolve to, so against the narrowed schema each reference resolves, or
// fails as ambiguous or missing, exactly as against the whole one.
func blockCols(sel *sqlparse.SelectStmt, schema []colBinding) []int {
	names := map[string]bool{}
	stars := map[string]bool{} // qualified stars' tables; "" for a bare star
	note := func(e sqlparse.Expr) {
		walkExpr(e, func(x sqlparse.Expr) {
			if cr, ok := x.(*sqlparse.ColRef); ok {
				names[cr.Name] = true
			}
		})
	}
	for _, item := range sel.Items {
		if item.Star {
			stars[item.StarTable] = true
		}
		note(item.Expr)
	}
	for _, g := range sel.GroupBy {
		note(g)
	}
	note(sel.Where)
	var cols []int
	for i, b := range schema {
		if stars[""] || stars[b.table] || names[b.name] {
			cols = append(cols, i)
		}
	}
	return cols
}

// addColRefs adds to seen the column of every reference in e that resolves
// against schema: the only cells evaluating e against a row can read. A
// reference that does not resolve fails the same way whatever the row
// holds, and a subquery cannot reference the outer row.
func addColRefs(e sqlparse.Expr, schema []colBinding, seen map[int]struct{}) {
	walkExpr(e, func(x sqlparse.Expr) {
		if cr, ok := x.(*sqlparse.ColRef); ok {
			if c, err := findCol(schema, cr); err == nil {
				seen[c] = struct{}{}
			}
		}
	})
}

// execSelect runs a SELECT: each block of its UNION ALL chain (execBlock)
// ends in a statement-private column store, and the statement tail works on
// stores only. The chain's stores line up by row id (concatStores), ORDER BY
// (the chain's last link holds it, as it holds LIMIT) sorts a permutation
// of those ids, and LIMIT clips it; the rows then gather once, in their new
// order, and a lone block's rows that need no reordering do not gather.
// The result may share a table's vectors (gather.go); a top-level SELECT
// copies such a store before the statement lock is released (execStmt).
func (s *Session) execSelect(sel *sqlparse.SelectStmt) (*Result, error) {
	last := sel
	for last.Union != nil {
		last = last.Union
	}
	limit := -1
	if last.Limit != nil {
		n, err := s.constInt(last.Limit)
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, errf("2201W", "LIMIT must not be negative")
		}
		limit = int(min(n, math.MaxInt32))
	}
	var res *Result
	var parts []*colStore
	for b := sel; b != nil; b = b.Union {
		r, err := s.execBlock(b)
		if err != nil {
			return nil, err
		}
		if res == nil {
			res = r
		} else if len(r.Cols) != len(res.Cols) {
			return nil, errf("42601", "UNION column count mismatch")
		}
		parts = append(parts, r.store)
	}
	keys, err := orderKeys(last.OrderBy, res.Cols)
	if err != nil {
		return nil, err
	}
	st, ids := concatStores(res.Cols, parts)
	if ids, err = s.sortedIDs(st, ids, keys); err != nil {
		return nil, err
	}
	if ids == nil && limit >= 0 && limit < st.n {
		ids = seq32(limit)
	}
	if limit >= 0 && limit < len(ids) {
		ids = ids[:limit]
	}
	if ids != nil {
		st = gatherAll(res.Cols, st, ids)
	}
	res.store = st
	return res, nil
}

// execBlock runs one SELECT block: FROM (with joins) → WHERE →
// GROUP/aggregate → projection (with window functions). It ends in a
// statement-private column store: the vector paths build one, and the
// walker's rows are columnized here, the one place boxed rows become a
// store.
func (s *Session) execBlock(sel *sqlparse.SelectStmt) (*Result, error) {
	var rel *relation
	var err error
	where := sel.Where
	if p := matchAsOfPattern(sel); p != nil {
		// rank-filter pushdown (see asof.go): the WHERE rn = 1 filter is
		// satisfied by construction
		var fused bool
		if rel, fused, err = s.execAsOfFused(p); fused {
			where = nil
		}
	}
	if rel == nil && err == nil {
		rel, err = s.buildFrom(sel.From)
	}
	if err != nil {
		return nil, err
	}
	compiled := !s.interpretedMode()
	fallback := &s.db.idxStats.FallbackInput // the relation is boxed rows
	// WHERE — vector fast path first: a fully-lowerable predicate over a
	// columnar relation fills a selection bitmap straight from the column
	// vectors (zone maps skip segments). The bitmap either feeds the fused
	// aggregation below or late-materializes only the selected positions.
	var selBits []uint64
	vecScan := false
	if compiled && rel.store != nil {
		fallback = &s.db.idxStats.FallbackWhere
		if where == nil {
			vecScan = true
		} else if p, ok := lowerVecPred(where, rel.schema, rel.store); ok {
			selBits, err = s.evalVecPred(p, rel.store)
			if err != nil {
				return nil, err
			}
			vecScan = true
		}
	}
	if where != nil && !vecScan {
		// the store still holds the unfiltered rows; the walker boxes only
		// the columns the block reads
		rel.narrow(nil, blockCols(sel, rel.schema))
		if rel.rows, err = s.filterRows(where, rel.schema, rel.rowsView()); err != nil {
			return nil, err
		}
		rel.store = nil
	}
	var res *Result
	grouped := len(sel.GroupBy) > 0 || selectHasAggregate(sel)
	ok := false
	if vecScan {
		if grouped {
			fallback = &s.db.idxStats.FallbackGrouped
			res, ok, err = s.execGroupedVec(sel, rel, selBits)
		} else {
			fallback = &s.db.idxStats.FallbackProjection
			res, ok, err = s.projectVec(sel, rel, selBits)
		}
		if err != nil {
			return nil, err
		}
		if !ok {
			// a declined shape runs the row-at-a-time operator over the
			// selected rows, boxing only the columns the statement reads
			rel.narrow(selBits, blockCols(sel, rel.schema))
		}
	}
	if !ok {
		if compiled {
			fallback.Add(1)
		}
		if grouped {
			res, err = s.execGrouped(sel, rel)
		} else {
			res, err = s.project(sel, rel)
		}
		if err != nil {
			return nil, err
		}
	}
	if res.store == nil {
		res.store, res.Rows = columnize(res.Cols, res.Rows), nil
	}
	refineStoreTypes(res)
	return res, nil
}

func (s *Session) constInt(e sqlparse.Expr) (int64, error) {
	v, err := evalExpr(e, nil, nil)
	if err != nil {
		return 0, err
	}
	switch x := v.(type) {
	case int64:
		return x, nil
	case float64:
		return int64(x), nil
	default:
		return 0, errf("42601", "LIMIT must be numeric")
	}
}

// buildFrom materializes the FROM clause; a SELECT without one reads one
// empty row.
func (s *Session) buildFrom(ref sqlparse.TableRef) (*relation, error) {
	if ref == nil {
		return &relation{rows: [][]any{{}}}, nil
	}
	return s.buildRef(ref)
}

func (s *Session) buildRef(ref sqlparse.TableRef) (*relation, error) {
	var res *Result
	var err error
	var alias string
	switch r := ref.(type) {
	case *sqlparse.BaseTable:
		res, err = s.resolveRelation(r.Schema, r.Name)
		alias = r.Alias
		if alias == "" {
			alias = r.Name
		}
	case *sqlparse.SubqueryRef:
		res, err = s.execSelect(r.Query)
		alias = r.Alias
	case *sqlparse.JoinRef:
		return s.buildJoin(r)
	default:
		return nil, errf("0A000", "unsupported table ref %T", ref)
	}
	if err != nil {
		return nil, err
	}
	return &relation{schema: schemaOf(res.Cols, alias), rows: res.Rows, store: res.store}, nil
}

// buildJoin executes a join tree. A single-key INNER or LEFT equi-join of
// two columnar sides runs typed (hashJoinVec); other equality joins hash the
// right side's boxed rows; everything else falls back to a nested loop.
func (s *Session) buildJoin(j *sqlparse.JoinRef) (*relation, error) {
	left, err := s.buildRef(j.Left)
	if err != nil {
		return nil, err
	}
	right, err := s.buildRef(j.Right)
	if err != nil {
		return nil, err
	}
	if out, err := s.hashJoinVec(j, left, right); out != nil || err != nil {
		return out, err
	}
	// the other joins are row-at-a-time: box columnar sides up front
	left.rowsView()
	right.rowsView()
	outSchema := append(append([]colBinding{}, left.schema...), right.schema...)
	out := &relation{schema: outSchema}

	// hash path: the ON clause contains col = col equalities across sides
	// (possibly null-safe), and each left row meets only the right rows of
	// its key; any remaining conjuncts — such as the b.time <= a.time bound
	// of a translated as-of join — evaluate as a residual predicate over each
	// candidate pair. Otherwise a nested loop evaluates ON over every pair.
	on := j.On
	lk, rk, nullSafe, residual, hashed := extractHashKeys(j.On, left.schema, right.schema)
	var index map[string][]int
	var every []int
	if hashed {
		on, index = residual, make(map[string][]int, len(right.rows))
		for i, rr := range right.rows {
			if key, ok := hashKey(rr, rk, nullSafe); ok {
				index[key] = append(index[key], i)
			}
		}
	} else {
		every = seq(0, len(right.rows))
	}
	pred := s.wherePred(on, outSchema)
	out.rows = make([][]any, 0, len(left.rows))
	for _, lr := range left.rows {
		cands := every
		if hashed {
			cands = nil
			if key, ok := hashKey(lr, lk, nullSafe); ok {
				cands = index[key]
			}
		}
		matched := false
		for _, ri := range cands {
			row := append(append(make([]any, 0, len(lr)+len(right.rows[ri])), lr...), right.rows[ri]...)
			keep, err := pred(row)
			if err != nil {
				return nil, err
			}
			if keep {
				out.rows = append(out.rows, row)
				matched = true
			}
		}
		if !matched && j.Type == sqlparse.LeftJoin {
			out.rows = append(out.rows, padRight(lr, len(right.schema)))
		}
	}
	return out, nil
}

// hashJoinVec is the typed equi-join: INNER or LEFT, one key, no residual,
// both sides columnar and the key columns uniformly integer or uniformly
// string (all-NULL segments aside). The build side is a hash table over the
// right key vector, built per query (buildHashIdx). The left key vector
// probes in row order, so the (left, right) pairs come in the row join's
// order: left rows in order, each one's matches by ascending right row. The
// output gathers both sides into a private store; when every left row
// appears exactly once, in order, the left columns are shared instead. NULL
// keys match only under IS NOT DISTINCT FROM, as hashKey decides. A nil
// relation (and no error) declines the shape, and the row join runs it.
func (s *Session) hashJoinVec(j *sqlparse.JoinRef, left, right *relation) (*relation, error) {
	if s.interpretedMode() || left.store == nil || right.store == nil {
		return nil, nil
	}
	lks, rks, safe, residual, ok := extractHashKeys(j.On, left.schema, right.schema)
	if !ok || len(lks) != 1 || residual != nil {
		return nil, nil
	}
	ls, lk, nullSafe := left.store, lks[0], safe[0]
	// both key kinds come from segment metadata, so a declined shape builds
	// no hash table it would never probe
	if !joinKind(right.store.colKind(rks[0]), ls.colKind(lk)) || max(ls.n, right.store.n) >= math.MaxInt32 {
		return nil, nil
	}
	ix := buildHashIdx(right.store, rks[0])
	outer := j.Type == sqlparse.LeftJoin
	lids := make([]int32, 0, ls.n)
	rids := make([]int32, 0, ls.n)
	// a string key probes the build side once per dictionary entry of each
	// left segment: posts[code] holds the entry's matches once probed[code]
	var posts [][]int32
	var probed []bool
	for si := 0; si < ls.numSegs(); si++ {
		seg := ls.segCols(si, lks)
		v := &seg.vecs[lk]
		base := int32(si * segSize)
		if v.kind == vkStr {
			posts = grow(posts, len(v.dict))
			probed = grow(probed, len(v.dict))
			clear(probed)
		}
		for i := 0; i < seg.n; i++ {
			if err := s.tick(); err != nil {
				return nil, err
			}
			var m []int32
			switch {
			case v.isNull(i):
				if nullSafe {
					m = ix.nulls
				}
			case v.kind == vkInt:
				m = ix.ints[v.ints[i]]
			case v.kind == vkStr:
				if c := v.codes[i]; probed[c] {
					m = posts[c]
				} else {
					m = ix.strs[v.dict[c]]
					posts[c], probed[c] = m, true
				}
			}
			for _, ri := range m {
				lids = append(lids, base+int32(i))
				rids = append(rids, ri)
			}
			if len(m) == 0 && outer {
				lids = append(lids, base+int32(i))
				rids = append(rids, -1)
			}
		}
	}
	schema := append(append([]colBinding{}, left.schema...), right.schema...)
	out := newPrivateStore(bindingCols(schema), len(lids))
	nl := len(left.schema)
	if isIdentity(lids, ls.n) {
		lids = nil // left rows in order, once each: share the left vectors
	}
	out.gatherCols(seq(0, nl), ls, seq(0, nl), lids)
	out.gatherCols(seq(nl, len(schema)), right.store, seq(0, len(right.schema)), rids)
	return &relation{schema: schema, store: out}, nil
}

// seq returns lo, lo+1, ..., hi-1.
func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// bindingCols names a private store's columns after the relation schema
// they line up with.
func bindingCols(schema []colBinding) []Column {
	cols := make([]Column, len(schema))
	for i, b := range schema {
		cols[i] = Column{Name: b.name, Type: b.typ}
	}
	return cols
}

func padRight(lr []any, rightWidth int) []any {
	row := make([]any, len(lr)+rightWidth)
	copy(row, lr)
	return row
}

// extractHashKeys recognizes equality conjuncts of the form l.a = r.b (or
// IS NOT DISTINCT FROM) in the ON clause, returning the column indexes per
// side, whether each equality is null-safe, and the AND of any remaining
// conjuncts as a residual predicate.
func extractHashKeys(on sqlparse.Expr, ls, rs []colBinding) (lk, rk []int, nullSafe []bool, residual sqlparse.Expr, ok bool) {
	var conj []sqlparse.Expr
	var flatten func(e sqlparse.Expr)
	flatten = func(e sqlparse.Expr) {
		if b, isBin := e.(*sqlparse.BinaryExpr); isBin && b.Op == "AND" {
			flatten(b.L)
			flatten(b.R)
			return
		}
		conj = append(conj, e)
	}
	if on == nil {
		return nil, nil, nil, nil, false
	}
	flatten(on)
	var rest []sqlparse.Expr
	for _, c := range conj {
		b, isBin := c.(*sqlparse.BinaryExpr)
		if isBin && (b.Op == "=" || b.Op == "IS NOT DISTINCT FROM") {
			lc, lok := b.L.(*sqlparse.ColRef)
			rc, rok := b.R.(*sqlparse.ColRef)
			if lok && rok {
				li, lerr := findCol(ls, lc)
				ri, rerr := findCol(rs, rc)
				if lerr != nil || rerr != nil {
					// reversed sides
					li, lerr = findCol(ls, rc)
					ri, rerr = findCol(rs, lc)
				}
				if lerr == nil && rerr == nil {
					lk = append(lk, li)
					rk = append(rk, ri)
					nullSafe = append(nullSafe, b.Op != "=")
					continue
				}
			}
		}
		rest = append(rest, c)
	}
	if len(lk) == 0 {
		return nil, nil, nil, nil, false
	}
	for _, r := range rest {
		if residual == nil {
			residual = r
		} else {
			residual = &sqlparse.BinaryExpr{Op: "AND", L: residual, R: r}
		}
	}
	return lk, rk, nullSafe, residual, true
}

func findCol(schema []colBinding, c *sqlparse.ColRef) (int, error) {
	found := -1
	for i, b := range schema {
		if b.name != c.Name {
			continue
		}
		if c.Table != "" && b.table != c.Table {
			continue
		}
		if found >= 0 {
			return 0, errf("42702", "column reference %q is ambiguous", c.Name)
		}
		found = i
	}
	if found < 0 {
		return 0, errf("42703", "column %q does not exist", colRefName(c))
	}
	return found, nil
}

func colRefName(c *sqlparse.ColRef) string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// hashKey encodes a row's key columns for hash matching, in keyString's
// encoding. ok is false when a NULL sits in a column compared with plain =,
// which never matches; under IS NOT DISTINCT FROM (nullSafe[i]) a NULL is
// encoded and matches NULL.
func hashKey(row []any, keys []int, nullSafe []bool) (key string, ok bool) {
	var arr [64]byte
	buf := arr[:0]
	for i, k := range keys {
		if row[k] == nil && !nullSafe[i] {
			return "", false
		}
		buf = appendKeyVal(buf, row[k])
	}
	return string(buf), true
}

// project evaluates the select items over each row (no grouping); a
// window item takes its precomputed value.
func (s *Session) project(sel *sqlparse.SelectStmt, rel *relation) (*Result, error) {
	items, err := expandStars(sel.Items, rel.schema)
	if err != nil {
		return nil, err
	}
	rel.rowsView() // generic projection is row-at-a-time
	res := &Result{}
	for _, item := range items {
		res.Cols = append(res.Cols, Column{
			Name: itemName(item, rel.schema),
			Type: s.inferType(item.Expr, rel.schema),
		})
	}
	win, err := computeWindows(items, rel)
	if err != nil {
		return nil, err
	}
	res.Rows = make([][]any, 0, len(rel.rows))
	for ri, row := range rel.rows {
		if err := s.tick(); err != nil {
			return nil, err
		}
		out := make([]any, len(items))
		for i, item := range items {
			if w := win[i]; w != nil {
				out[i] = w[ri]
				continue
			}
			v, err := evalExpr(item.Expr, rel.schema, row)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// isIdentity reports whether xs lists 0..width-1 in order.
func isIdentity(xs []int32, width int) bool {
	if len(xs) != width {
		return false
	}
	for i, x := range xs {
		if x != int32(i) {
			return false
		}
	}
	return true
}

// projectVec is the late-materialization fast path for a vector scan: when
// every output item is a bare column reference or lowers to a value kernel
// (kernel.go) of one kind in every segment, the result is built straight
// from the selection bitmap over the column vectors: a view of the input
// store when nothing is filtered or computed, else a typed gather of the
// selected rows with the kernels' values beside them (gather.go). Returns
// ok=false for any shape it does not handle, deferring both work and error
// surfacing to the generic projection path.
func (s *Session) projectVec(sel *sqlparse.SelectStmt, rel *relation, selBits []uint64) (*Result, bool, error) {
	items, err := expandStars(sel.Items, rel.schema)
	if err != nil {
		return nil, false, nil
	}
	st := rel.store
	cols := make([]int, len(items))
	var kerns []valKernel // nil: every item is a bare column
	var kinds []vecKind   // a kernel's kind in every segment
	for i, item := range items {
		if c, ok := lowerColRef(item.Expr, rel.schema, st); ok {
			cols[i] = c
			continue
		}
		k, ok := lowerValue(item.Expr, rel.schema, st)
		if !ok {
			return nil, false, nil
		}
		if kerns == nil {
			kerns, kinds = make([]valKernel, len(items)), make([]vecKind, len(items))
		}
		// a private column has one kind: a kernel whose kind differs
		// between segments takes the row path
		kerns[i] = k
		if kinds[i], ok = storeKind(k, st); !ok {
			return nil, false, nil
		}
	}
	res := &Result{}
	for _, item := range items {
		res.Cols = append(res.Cols, Column{
			Name: itemName(item, rel.schema),
			Type: s.inferType(item.Expr, rel.schema),
		})
	}
	// The scan projects straight from the column store: only segments
	// holding selected rows are touched, so a selection the zone maps fully
	// pruned leaves evicted segments on disk.
	if selBits == nil && kerns == nil {
		res.store = viewOf(st, cols, res.Cols)
		return res, true, nil
	}
	if err := s.poll(); err != nil {
		return nil, false, err
	}
	var ids []int32 // nil: every row, sharing the bare columns' vectors
	n := st.n
	if selBits != nil {
		ids = appendSetBits([]int32{}, selBits)
		n = len(ids)
	}
	res.store = newPrivateStore(res.Cols, n)
	var dst, src []int
	for i, c := range cols {
		if kerns == nil || kerns[i] == nil {
			dst, src = append(dst, i), append(src, c)
		}
	}
	res.store.gatherCols(dst, st, src, ids)
	for i, k := range kerns {
		if k == nil {
			continue
		}
		if err := res.store.fillKernel(i, st, selBits, k, kinds[i]); err != nil {
			return nil, false, err
		}
	}
	return res, true, nil
}

// expandStars replaces * and t.* with explicit column refs.
func expandStars(items []sqlparse.SelectItem, schema []colBinding) ([]sqlparse.SelectItem, error) {
	var out []sqlparse.SelectItem
	for _, item := range items {
		if !item.Star {
			out = append(out, item)
			continue
		}
		for _, b := range schema {
			if item.StarTable != "" && b.table != item.StarTable {
				continue
			}
			out = append(out, sqlparse.SelectItem{
				Expr:  &sqlparse.ColRef{Table: b.table, Name: b.name},
				Alias: b.name,
			})
		}
	}
	if len(out) == 0 {
		return nil, errf("42601", "empty select list")
	}
	return out, nil
}

func itemName(item sqlparse.SelectItem, schema []colBinding) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch e := item.Expr.(type) {
	case *sqlparse.ColRef:
		return e.Name
	case *sqlparse.FuncCall:
		return e.Name
	case *sqlparse.CastExpr:
		if c, ok := e.X.(*sqlparse.ColRef); ok {
			return c.Name
		}
		return e.Type
	default:
		return "?column?"
	}
}

// outputKey resolves an ORDER BY key to the output column it names — by
// position (ORDER BY 1) or by output alias or column name — or -1 when it
// names none.
func outputKey(e sqlparse.Expr, cols []Column) int {
	if n, ok := e.(*sqlparse.NumberLit); ok && !strings.Contains(n.Text, ".") {
		var pos int
		fmt.Sscanf(n.Text, "%d", &pos)
		if pos >= 1 && pos <= len(cols) {
			return pos - 1
		}
	}
	if c, ok := e.(*sqlparse.ColRef); ok && c.Table == "" {
		for i, col := range cols {
			if col.Name == c.Name {
				return i
			}
		}
	}
	return -1
}
