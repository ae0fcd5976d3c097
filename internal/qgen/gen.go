package qgen

import (
	"math"
	"math/rand"

	"hyperq/internal/qlang/qval"
)

// Config seeds a Generator.
type Config struct {
	Seed int64
	// MaxRows bounds the fact table's row count (default 12). Small tables
	// keep shrunk reproducers readable while still covering empty inputs,
	// duplicates and null-heavy columns.
	MaxRows int
}

// Generator produces random datasets and queries. All randomness flows from
// the seeded source, so a (seed, iteration) pair replays exactly.
type Generator struct {
	rng *rand.Rand
	max int
}

// New builds a Generator.
func New(cfg Config) *Generator {
	if cfg.MaxRows <= 0 {
		cfg.MaxRows = 12
	}
	return &Generator{rng: rand.New(rand.NewSource(cfg.Seed)), max: cfg.MaxRows}
}

// symDomain is the symbol universe; the empty symbol is q's null.
var symDomain = []string{"a", "b", "c", ""}

// hiDupDomain is the shrunk symbol universe of high-duplicate datasets: a
// couple of distinct keys spread over every row, the distribution where a
// hash join's postings lists grow long and equality predicates select
// large fractions of the table.
var hiDupDomain = []string{"a", ""}

// floatDomain seeds float columns with the adversarial values: zeros for
// division, null (0n), both infinities (±0w), and negatives.
var floatDomain = []float64{-2.5, 0, 0, 1.5, 3.25, 100,
	math.NaN(), math.Inf(1), math.Inf(-1)}

// Dataset is the fixed schema every generated query runs against:
//
//	t   (fact):   s sym, i long, f float, tm time — nulls, dups, ±0w
//	d   (dim):    s sym (unique), v long, w float — lj right side
//	qts (quotes): s sym, tm time (strictly increasing per sym), p float — aj
type Dataset struct {
	Tables map[string]*qval.Table
}

// Names returns the table names in load order.
func (d *Dataset) Names() []string { return []string{"t", "d", "qts"} }

// Dataset generates one random dataset.
func (g *Generator) Dataset() *Dataset {
	r := g.rng
	n := r.Intn(g.max + 1)
	if r.Intn(8) == 0 {
		n = 0 // force the empty-table corner regularly
	}
	// occasionally shrink the key domain so the fact and quote tables carry
	// high-duplicate keys (the dim table keeps its unique full-domain keys)
	pool := symDomain
	if r.Intn(4) == 0 {
		pool = hiDupDomain
	}
	syms := make(qval.SymbolVec, n)
	is := make(qval.LongVec, n)
	fs := make(qval.FloatVec, n)
	tms := make([]int64, n)
	tm := int64(9 * 3600000)
	for j := 0; j < n; j++ {
		syms[j] = pool[r.Intn(len(pool))]
		if r.Intn(5) == 0 {
			is[j] = qval.NullLong
		} else {
			is[j] = int64(r.Intn(8) - 2) // small ints with duplicates
		}
		fs[j] = floatDomain[r.Intn(len(floatDomain))]
		tm += int64(r.Intn(60000)) // non-decreasing, may tie
		tms[j] = tm
	}
	t := qval.NewTable([]string{"s", "i", "f", "tm"}, []qval.Value{
		syms, is, fs, qval.TemporalVec{T: qval.KTime, V: tms},
	})

	// dim table: unique symbol keys so lj's first-match and SQL's join
	// fan-out agree; cover a subset of the domain plus a stranger
	dsyms := qval.SymbolVec{}
	for _, s := range []string{"a", "b", "c", "", "z"} {
		if r.Intn(4) > 0 {
			dsyms = append(dsyms, s)
		}
	}
	dvs := make(qval.LongVec, len(dsyms))
	dws := make(qval.FloatVec, len(dsyms))
	for j := range dsyms {
		if r.Intn(6) == 0 {
			dvs[j] = qval.NullLong
		} else {
			dvs[j] = int64(10 * (j + 1))
		}
		dws[j] = floatDomain[r.Intn(len(floatDomain))]
	}
	d := qval.NewTable([]string{"s", "v", "w"}, []qval.Value{dsyms, dvs, dws})

	// quote table: per-symbol strictly increasing times — q's aj resolves
	// ties to the rightmost row, SQL's window rank to an arbitrary one, so
	// ties are excluded by construction (catalogued divergence)
	qn := r.Intn(8)
	qsyms := make(qval.SymbolVec, qn)
	qtms := make([]int64, qn)
	qps := make(qval.FloatVec, qn)
	last := map[string]int64{}
	for j := 0; j < qn; j++ {
		s := pool[r.Intn(len(pool))]
		base, ok := last[s]
		if !ok {
			base = 9 * 3600000
		}
		base += int64(1 + r.Intn(120000))
		last[s] = base
		qsyms[j] = s
		qtms[j] = base
		qps[j] = floatDomain[r.Intn(len(floatDomain))]
	}
	qts := qval.NewTable([]string{"s", "tm", "p"}, []qval.Value{
		qsyms, qval.TemporalVec{T: qval.KTime, V: qtms}, qps,
	})

	return &Dataset{Tables: map[string]*qval.Table{"t": t, "d": d, "qts": qts}}
}

// fromInfo describes a from-clause variant and the columns it exposes.
type fromInfo struct {
	src  string
	cols []*Col
}

var fromVariants = []fromInfo{
	{"t", []*Col{{"s", Sym}, {"i", Num}, {"f", Num}, {"tm", Time}}},
	{"t lj d", []*Col{{"s", Sym}, {"i", Num}, {"f", Num}, {"tm", Time}, {"v", Num}, {"w", Num}}},
	{"aj[`s`tm; t; qts]", []*Col{{"s", Sym}, {"i", Num}, {"f", Num}, {"tm", Time}, {"p", Num}}},
}

// Query generates one random query against the Dataset schema.
func (g *Generator) Query() *Query {
	r := g.rng
	var from fromInfo
	switch r.Intn(10) {
	case 0, 1, 2:
		from = fromVariants[1] // lj
	case 3:
		from = fromVariants[2] // aj
	default:
		from = fromVariants[0]
	}
	q := &Query{From: from.src}
	cols := from.cols

	mode := r.Intn(11)
	switch {
	case mode < 2: // exec of a single column expression -> bare vector
		q.Kind = "exec"
		q.Cols = []SelCol{{Expr: g.colExpr(cols, 2)}}
	case mode < 4: // global aggregate
		q.Kind = "select"
		nc := 1 + r.Intn(2)
		for j := 0; j < nc; j++ {
			q.Cols = append(q.Cols, SelCol{Name: colName(j), Expr: g.aggExpr(cols)})
		}
	case mode < 7: // grouped aggregate
		q.Kind = "select"
		q.By = []SelCol{{Name: "g", Expr: g.byKey(cols)}}
		nc := 1 + r.Intn(2)
		for j := 0; j < nc; j++ {
			q.Cols = append(q.Cols, SelCol{Name: colName(j), Expr: g.aggExpr(cols)})
		}
	case mode == 9: // functional delete of the rows a predicate picks
		q.Kind = "delete"
		q.From, cols = fromVariants[0].src, fromVariants[0].cols
	case mode == 10: // functional update of the rows a predicate picks: the
		// translator's CASE WHEN <where> THEN <expr> ELSE NULL END column
		q.Kind = "update"
		q.From, cols = fromVariants[0].src, fromVariants[0].cols
		q.Cols = []SelCol{{Name: colName(0), Expr: g.numTree(cols, 2, true)}}
	default: // plain select; sometimes the bare wildcard form
		q.Kind = "select"
		if r.Intn(4) > 0 {
			nc := 1 + r.Intn(3)
			for j := 0; j < nc; j++ {
				q.Cols = append(q.Cols, SelCol{Name: colName(j), Expr: g.colExpr(cols, 2)})
			}
		}
	}

	nw := r.Intn(3)
	if q.Kind == "update" {
		nw = 1 + r.Intn(2)
	}
	for j := 0; j < nw; j++ {
		q.Where = append(q.Where, g.predicate(cols))
	}
	if q.Kind != "exec" && len(q.By) == 0 && r.Intn(4) == 0 {
		g.sortOn(q, cols)
	}
	return q
}

// sortOn sorts an unkeyed result on one or two of its output columns: the
// select list's, plus the input's for a wildcard select, a delete or an
// update.
func (g *Generator) sortOn(q *Query, cols []*Col) {
	var out []string
	for _, c := range q.Cols {
		out = append(out, c.Name)
	}
	if len(q.Cols) == 0 || q.Kind == "update" {
		for _, c := range cols {
			out = append(out, c.Name)
		}
	}
	r := g.rng
	q.Sort = []string{"xasc", "xdesc"}[r.Intn(2)]
	i := r.Intn(len(out))
	q.SortBy = []string{out[i]}
	if len(out) > 1 && r.Intn(2) == 0 {
		j := (i + 1 + r.Intn(len(out)-1)) % len(out)
		q.SortBy = append(q.SortBy, out[j])
	}
}

func colName(j int) string { return string(rune('x' + j)) }

// pick returns a random column of the wanted kind (nil if none).
func (g *Generator) pick(cols []*Col, k Kind) *Col {
	var of []*Col
	for _, c := range cols {
		if c.T == k {
			of = append(of, c)
		}
	}
	if len(of) == 0 {
		return nil
	}
	return of[g.rng.Intn(len(of))]
}

// numAtom yields a Num leaf: a numeric column or a small constant.
func (g *Generator) numAtom(cols []*Col, mustCol bool) Expr {
	if !mustCol && g.rng.Intn(3) == 0 {
		if g.rng.Intn(2) == 0 {
			return &ConstInt{V: int64(g.rng.Intn(7) - 2)}
		}
		return &ConstFloat{V: []float64{-2.5, 0, 0.5, 1.5, 3}[g.rng.Intn(5)]}
	}
	if c := g.pick(cols, Num); c != nil {
		return c
	}
	return &ConstInt{V: int64(g.rng.Intn(5))}
}

var arithOps = []string{"+", "-", "*", "%", "mod", "div", "xbar", "&", "|"}

// colExpr yields a column-referencing expression for a select column:
// either a direct column of any type, a case-mapped symbol column or a Num
// arithmetic tree.
func (g *Generator) colExpr(cols []*Col, depth int) Expr {
	r := g.rng
	switch r.Intn(8) {
	case 0, 1:
		return cols[r.Intn(len(cols))]
	case 2:
		if c := g.pick(cols, Sym); c != nil {
			return &Un{Fn: []string{"lower", "upper"}[r.Intn(2)], X: c}
		}
	}
	return g.numTree(cols, depth, true)
}

var numFns = []string{"abs", "neg", "sqrt", "exp", "log", "floor", "ceiling", "signum"}

// numTree builds a Num expression tree; mustCol forces at least one column
// reference into the tree.
func (g *Generator) numTree(cols []*Col, depth int, mustCol bool) Expr {
	r := g.rng
	if depth <= 0 || r.Intn(3) == 0 {
		return g.numAtom(cols, mustCol)
	}
	if r.Intn(5) == 0 {
		return &Un{Fn: numFns[r.Intn(len(numFns))], X: g.numTree(cols, depth-1, mustCol)}
	}
	op := arithOps[r.Intn(len(arithOps))]
	colSide := r.Intn(2)
	l := g.numTree(cols, depth-1, mustCol && colSide == 0)
	rr := g.numTree(cols, depth-1, mustCol && colSide == 1)
	return &Bin{Op: op, L: l, R: rr, T: Num}
}

var aggFns = []string{"sum", "avg", "min", "max", "count", "first", "last"}

// aggExpr yields one aggregate call over a Num expression, nested up to two
// operators deep like the workload's `avg (BidSize-AskSize)%BidSize+AskSize`.
func (g *Generator) aggExpr(cols []*Col) Expr {
	r := g.rng
	if r.Intn(8) == 0 {
		x := g.numAtom(cols, true)
		w := g.numAtom(cols, true)
		fn := "wavg"
		if r.Intn(2) == 0 {
			fn = "wsum"
		}
		return &Agg{Fn: fn, X: x, W: w}
	}
	fn := aggFns[r.Intn(len(aggFns))]
	return &Agg{Fn: fn, X: g.numTree(cols, 2, true)}
}

// byKey yields a grouping key: a symbol column or an xbar bucket.
func (g *Generator) byKey(cols []*Col) Expr {
	r := g.rng
	if c := g.pick(cols, Sym); c != nil && r.Intn(3) > 0 {
		return c
	}
	if c := g.pick(cols, Num); c != nil {
		return &Bin{Op: "xbar", L: &ConstInt{V: int64(1 + r.Intn(4))}, R: c, T: Num}
	}
	return cols[0]
}

var cmpOps = []string{"=", "<>", "<", ">", "<=", ">="}

// predicate yields one where-clause conjunct.
func (g *Generator) predicate(cols []*Col) Expr {
	r := g.rng
	switch r.Intn(9) {
	case 0: // symbol membership
		if c := g.pick(cols, Sym); c != nil {
			k := 1 + r.Intn(3)
			items := make([]Expr, k)
			for j := range items {
				items[j] = &ConstSym{V: symDomain[r.Intn(len(symDomain))]}
			}
			return &In{X: c, Items: items}
		}
	case 1: // numeric interval
		if c := g.pick(cols, Num); c != nil {
			lo := int64(r.Intn(4) - 2)
			return &Within{X: c, Lo: &ConstInt{V: lo}, Hi: &ConstInt{V: lo + int64(r.Intn(5))}}
		}
	case 2: // glob match
		if c := g.pick(cols, Sym); c != nil {
			pats := []string{"a*", "*", "?", "[ab]*", "c*"}
			return &Like{X: c, Pat: pats[r.Intn(len(pats))]}
		}
	case 3: // symbol equality
		if c := g.pick(cols, Sym); c != nil {
			op := cmpOps[r.Intn(2)] // = or <>
			return &Bin{Op: op, L: c, R: &ConstSym{V: symDomain[r.Intn(len(symDomain))]}, T: Bool}
		}
	case 4: // time bound
		if c := g.pick(cols, Time); c != nil {
			op := cmpOps[2+r.Intn(4)]
			ms := int64(9*3600000 + r.Intn(3600000))
			return &Bin{Op: op, L: c, R: &ConstTime{Ms: ms}, T: Bool}
		}
	case 5: // zone-map probe: boundary and out-of-range constants, so the
		// vector scans' segment skip / all-true verdicts fire against the
		// data domain (i ∈ [-2,5], f ∈ [-2.5,100]∪{±0w}, tm ≥ 09:00) and
		// must agree with the walker's per-row answers
		if c := g.pick(cols, Time); c != nil && r.Intn(4) == 0 {
			op := cmpOps[2+r.Intn(4)]
			probes := []int64{0, 8 * 3600000, 23*3600000 + 3599999}
			return &Bin{Op: op, L: c, R: &ConstTime{Ms: probes[r.Intn(len(probes))]}, T: Bool}
		}
		if c := g.pick(cols, Num); c != nil {
			op := cmpOps[r.Intn(len(cmpOps))]
			probes := []Expr{
				&ConstInt{V: -50}, &ConstInt{V: 100}, &ConstInt{V: -2}, &ConstInt{V: 5},
				&ConstFloat{V: -1e9}, &ConstFloat{V: 1e9}, &ConstFloat{V: 100}, &ConstFloat{V: -2.5},
			}
			return &Bin{Op: op, L: c, R: probes[r.Intn(len(probes))], T: Bool}
		}
	case 6: // numeric membership: q's `in`, which arrives as ORed equalities,
		// mixing in-domain, boundary and absent keys
		if c := g.pick(cols, Num); c != nil {
			k := 1 + r.Intn(3)
			items := make([]Expr, k)
			for j := range items {
				items[j] = &ConstInt{V: int64(r.Intn(10) - 3)}
			}
			return &In{X: c, Items: items}
		}
	}
	// numeric comparison, possibly column vs column
	l := g.numAtom(cols, true)
	var rhs Expr
	if r.Intn(3) == 0 {
		rhs = g.numAtom(cols, true)
	} else {
		rhs = g.numAtom(cols, false)
	}
	return &Bin{Op: cmpOps[r.Intn(len(cmpOps))], L: l, R: rhs, T: Bool}
}
