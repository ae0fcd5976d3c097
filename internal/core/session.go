package core

import (
	"context"
	"fmt"
	"time"

	"hyperq/internal/binder"
	"hyperq/internal/mdi"
	"hyperq/internal/qcache"
	"hyperq/internal/qlang/ast"
	"hyperq/internal/qlang/parse"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/serializer"
	"hyperq/internal/xformer"
	"hyperq/internal/xtra"
)

// Materialization selects how variable assignments are materialized in the
// backend (paper §4.3): logical materialization uses views; physical
// materialization uses temporary tables — required when subsequent
// statements must observe side effects in situ.
type Materialization int

// Materialization modes.
const (
	// Physical creates CREATE TEMPORARY TABLE ... AS for assignments.
	Physical Materialization = iota
	// Logical creates views instead; cheaper but re-executes on reference.
	Logical
)

// ResultPath has one value, which sessions ignore: every result streams off
// the PG v3 wire. Its last caller is the benchmark's in-process stack
// (bench/inproc.go).
type ResultPath int

// ColumnarPath is the one result path: rows stream off the PG v3 wire into
// pooled typed column builders.
const ColumnarPath ResultPath = 0

// Config tunes a platform session.
type Config struct {
	Xformer         xformer.Config
	Materialization Materialization
	// ResultPath is ignored (see ResultPath).
	ResultPath ResultPath
	// MDITTL is the metadata cache expiration (0 disables caching).
	MDITTL time.Duration
	// MDI, when set, is a shared (process-wide) metadata interface used
	// instead of a per-session one — the concurrent serving runtime shares
	// one MDI across all sessions. MDITTL is ignored when MDI is set.
	MDI *mdi.MDI
	// Cache, when set, is the shared query-translation cache consulted
	// before the translation pipeline (nil disables caching).
	Cache *qcache.Cache
}

// StageTiming records per-stage translation times — the quantities Figures
// 6 and 7 report.
type StageTiming struct {
	Parse     time.Duration
	Bind      time.Duration // algebrization incl. metadata lookup
	Xform     time.Duration // optimization
	Serialize time.Duration
}

// Translation returns the total translation time across all stages.
func (t StageTiming) Translation() time.Duration {
	return t.Parse + t.Bind + t.Xform + t.Serialize
}

// Add accumulates another timing.
func (t *StageTiming) Add(o StageTiming) {
	t.Parse += o.Parse
	t.Bind += o.Bind
	t.Xform += o.Xform
	t.Serialize += o.Serialize
}

// RunStats reports what one Run did: stage timings, execution time, and the
// SQL statements sent to the backend.
type RunStats struct {
	Stages  StageTiming
	Execute time.Duration
	SQLs    []string
	// CacheHit marks that the translation was served from the query cache,
	// skipping parse/bind/xform/serialize entirely.
	CacheHit bool
	// Saved is the per-stage translation cost the cache hit avoided — the
	// cost the original translation paid, recorded in the cache entry.
	Saved StageTiming
}

// Platform is the shared Hyper-Q state across sessions: the server-level
// variable scope (paper §3.2.3).
type Platform struct {
	Server *binder.ServerStore
}

// NewPlatform creates an empty platform.
func NewPlatform() *Platform {
	return &Platform{Server: binder.NewServerStore()}
}

// Session is one Q client connection through Hyper-Q: its scope hierarchy,
// its binder, Xformer, serializer and backend.
type Session struct {
	platform *Platform
	backend  Backend
	mdi      *mdi.MDI
	binder   *binder.Binder
	xf       *xformer.Xformer
	cache    *qcache.Cache
	cfg      Config
	tempN    int
}

// NewSession opens a session over a backend.
func (p *Platform) NewSession(b Backend, cfg Config) *Session {
	m := cfg.MDI
	if m == nil {
		opts := []mdi.Option{}
		if cfg.MDITTL != 0 {
			opts = append(opts, mdi.WithTTL(cfg.MDITTL))
		}
		m = mdi.New(b, opts...)
	}
	scopes := binder.NewScopes(p.Server, m)
	return &Session{
		platform: p,
		backend:  b,
		mdi:      m,
		binder:   binder.New(scopes),
		xf:       xformer.New(cfg.Xformer),
		cache:    cfg.Cache,
		cfg:      cfg,
	}
}

// MDI exposes the session's metadata interface (for cache statistics).
func (s *Session) MDI() *mdi.MDI { return s.mdi }

// Close destroys the session: per §3.2.3, session variables are promoted to
// the server scope as part of session-scope destruction.
func (s *Session) Close() error {
	s.scopes().DestroySession()
	return s.backend.Close()
}

// Run executes a complete Q request: parse, then per statement bind /
// transform / serialize / execute, returning the last statement's value.
// With a query cache configured, side-effect-free single-statement requests
// are served from (and populate) the cache, skipping every translation
// stage on a warm hit.
func (s *Session) Run(ctx context.Context, qsrc string) (qval.Value, *RunStats, error) {
	stats := &RunStats{}
	if e, ok := s.cachedTranslation(ctx, qsrc, stats); ok {
		v, err := s.execCached(ctx, e, stats)
		return v, stats, err
	}
	t0 := time.Now()
	prog, err := parse.Parse(qsrc)
	if err != nil {
		return nil, stats, err
	}
	stats.Stages.Parse += time.Since(t0)
	var last qval.Value = qval.Identity
	for _, stmt := range prog.Stmts {
		v, ret, err := s.execStatement(ctx, stmt, stats)
		if err != nil {
			return nil, stats, err
		}
		last = v
		if ret {
			break
		}
	}
	return last, stats, nil
}

// Translate performs translation only — the quantity Figure 6 measures —
// returning the SQL for the (single) final statement without executing the
// final query. Materializing assignments still execute, since later
// statements' binding depends on them (paper §4.3).
func (s *Session) Translate(ctx context.Context, qsrc string) (string, *RunStats, error) {
	stats := &RunStats{}
	if e, ok := s.cachedTranslation(ctx, qsrc, stats); ok && e.Kind == qcache.Select {
		return e.SQL, stats, nil
	} else if ok {
		// scalar entries don't satisfy Translate (parity with the uncached
		// path, which rejects statements without a relational plan)
		stats = &RunStats{}
	}
	t0 := time.Now()
	prog, err := parse.Parse(qsrc)
	if err != nil {
		return "", stats, err
	}
	stats.Stages.Parse += time.Since(t0)
	sql := ""
	for i, stmt := range prog.Stmts {
		if i < len(prog.Stmts)-1 {
			if _, _, err := s.execStatement(ctx, stmt, stats); err != nil {
				return "", stats, err
			}
			continue
		}
		sql, err = s.translateOne(ctx, stmt, stats)
		if err != nil {
			return "", stats, err
		}
	}
	return sql, stats, nil
}

// translateOne binds, transforms and serializes a single statement without
// executing it.
func (s *Session) translateOne(ctx context.Context, stmt ast.Node, stats *RunStats) (string, error) {
	t0 := time.Now()
	bound, err := s.binder.BindStatement(ctx, stmt)
	stats.Stages.Bind += time.Since(t0)
	if err != nil {
		return "", err
	}
	if bound.Rel == nil {
		return "", fmt.Errorf("statement %s does not translate to SQL", stmt.QString())
	}
	t1 := time.Now()
	root := s.xf.Apply(bound.Rel)
	stats.Stages.Xform += time.Since(t1)
	t2 := time.Now()
	sql, err := serializer.Serialize(root)
	stats.Stages.Serialize += time.Since(t2)
	return sql, err
}

// execStatement runs one statement through the full pipeline. The second
// return is true when the statement was an explicit function return.
func (s *Session) execStatement(ctx context.Context, stmt ast.Node, stats *RunStats) (qval.Value, bool, error) {
	// a canceled request stops between statements, before more backend work
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	// explicit return inside unrolled function bodies
	if ret, ok := stmt.(*ast.Return); ok {
		v, _, err := s.execStatement(ctx, ret.Expr, stats)
		return v, true, err
	}
	// function invocation: f[args] where f is a stored function — unrolled
	// by re-algebrizing the stored definition (paper §4.3)
	if ap, ok := stmt.(*ast.Apply); ok {
		if v, isVar := ap.Fn.(*ast.Var); isVar {
			def, err := s.scopes().Lookup(ctx, v.Name)
			if err == nil && def != nil && def.Kind == binder.KindFunction {
				val, err := s.unrollFunction(ctx, v.Name, def, ap.Args, stats)
				return val, false, err
			}
		}
	}
	t0 := time.Now()
	bound, err := s.binder.BindStatement(ctx, stmt)
	stats.Stages.Bind += time.Since(t0)
	if err != nil {
		return nil, false, err
	}
	switch {
	case bound.FuncDef != nil:
		if bound.Assign == "" {
			return qval.Identity, false, nil // anonymous lambda: nothing to do
		}
		def := *bound.FuncDef
		def.Name = bound.Assign
		if bound.Global {
			s.scopes().UpsertGlobal(&def)
		} else {
			s.scopes().Upsert(&def)
		}
		return qval.Identity, false, nil
	case bound.Scalar != nil:
		if bound.Assign != "" {
			def := &binder.VarDef{Name: bound.Assign, Kind: binder.KindScalar, Value: bound.Scalar}
			if bound.Global {
				s.scopes().UpsertGlobal(def)
			} else {
				s.scopes().Upsert(def)
			}
		}
		return bound.Scalar, false, nil
	case bound.ScalarExpr != nil:
		t2 := time.Now()
		sql, err := serializer.SerializeScalarSelect(bound.ScalarExpr)
		stats.Stages.Serialize += time.Since(t2)
		if err != nil {
			return nil, false, err
		}
		tbl, err := s.execToQ(ctx, sql, stats)
		if err != nil {
			return nil, false, err
		}
		var out qval.Value = qval.Identity
		if tbl.NumCols() == 1 && tbl.Len() == 1 {
			out = qval.Index(tbl.Data[0], 0)
		}
		if bound.Assign != "" {
			def := &binder.VarDef{Name: bound.Assign, Kind: binder.KindScalar, Value: out}
			if bound.Global {
				s.scopes().UpsertGlobal(def)
			} else {
				s.scopes().Upsert(def)
			}
		}
		return out, false, nil
	case bound.Rel != nil:
		t1 := time.Now()
		root := s.xf.Apply(bound.Rel)
		stats.Stages.Xform += time.Since(t1)
		t2 := time.Now()
		sql, err := serializer.Serialize(root)
		stats.Stages.Serialize += time.Since(t2)
		if err != nil {
			return nil, false, err
		}
		if bound.Assign != "" {
			return s.materialize(ctx, bound, root, sql, stats)
		}
		tbl, err := s.execToQ(ctx, sql, stats)
		if err != nil {
			return nil, false, err
		}
		// q's exec of a single column yields the bare vector, not a table
		if tpl, ok := stmt.(*ast.SQLTemplate); ok && tpl.Kind == ast.Exec && tbl.NumCols() == 1 {
			return tbl.Data[0], false, nil
		}
		return tbl, false, nil
	default:
		return qval.Identity, false, nil
	}
}

func (s *Session) scopes() *binder.Scopes { return s.binder.Scopes }

// execToQ runs one query on the backend and pivots the result into a Q
// table: rows stream into pooled typed column builders as they come off the
// wire.
func (s *Session) execToQ(ctx context.Context, sql string, stats *RunStats) (*qval.Table, error) {
	sink := GetTableSink()
	defer sink.Release()
	t0 := time.Now()
	err := s.backend.ExecStream(ctx, sql, sink)
	stats.Execute += time.Since(t0)
	stats.SQLs = append(stats.SQLs, sql)
	if err != nil {
		return nil, err
	}
	return sink.Table(), nil
}

// cachedTranslation consults the query cache for qsrc, translating (once,
// under single-flight) and populating it on a miss when the request is
// cacheable. The bool reports whether a usable entry was obtained — callers
// fall back to the full pipeline otherwise. The cache key ties the entry to
// the exact variable-scope and metadata state it was translated under, so
// DDL and variable-store mutations invalidate implicitly. A request whose
// literals were lifted into a cached template is spliced, not translated;
// the caller that verifies a new template pays for its two probe
// translations too.
func (s *Session) cachedTranslation(ctx context.Context, qsrc string, stats *RunStats) (*qcache.Entry, bool) {
	if s.cache == nil || s.scopes().InFunction() {
		return nil, false
	}
	var spent StageTiming
	e, shared, err := s.cache.Translate(ctx, qcache.Normalize(qsrc), s.scopes().Fingerprint(), s.mdi.Generation(),
		func(ctx context.Context, q string) (*qcache.Entry, error) {
			e, err := s.translateCacheable(ctx, q)
			if e != nil {
				spent.Add(timingFromCost(e.Cost))
			}
			return e, err
		})
	if err != nil || e == nil {
		// not cacheable (or the leader's translation failed): take the full
		// pipeline, which reproduces any error with proper attribution
		return nil, false
	}
	if shared {
		stats.CacheHit = true
		stats.Saved = timingFromCost(e.Cost)
	} else {
		stats.Stages = spent // the leader paid the full cost
	}
	return e, true
}

// translateCacheable runs the translation pipeline for requests whose
// translation is pure: a single statement, no assignment, no function
// invocation (unrolling executes side effects), producing either a
// relational plan or a backend-evaluated scalar. Anything else returns
// (nil, nil) so callers fall back to the ordinary pipeline.
func (s *Session) translateCacheable(ctx context.Context, qsrc string) (*qcache.Entry, error) {
	var cost qcache.Cost
	t0 := time.Now()
	prog, err := parse.Parse(qsrc)
	cost.Parse = time.Since(t0)
	if err != nil || len(prog.Stmts) != 1 {
		return nil, nil
	}
	stmt := prog.Stmts[0]
	if _, ok := stmt.(*ast.Return); ok {
		return nil, nil
	}
	if ap, ok := stmt.(*ast.Apply); ok {
		if v, isVar := ap.Fn.(*ast.Var); isVar {
			if def, err := s.scopes().Lookup(ctx, v.Name); err == nil && def != nil && def.Kind == binder.KindFunction {
				return nil, nil
			}
		}
	}
	t1 := time.Now()
	bound, err := s.binder.BindStatement(ctx, stmt)
	cost.Bind = time.Since(t1)
	if err != nil || bound.Assign != "" || bound.Global || bound.FuncDef != nil || bound.Scalar != nil {
		return nil, nil
	}
	switch {
	case bound.ScalarExpr != nil:
		t2 := time.Now()
		sql, err := serializer.SerializeScalarSelect(bound.ScalarExpr)
		cost.Serialize = time.Since(t2)
		if err != nil {
			return nil, nil
		}
		return &qcache.Entry{SQL: sql, Kind: qcache.ScalarSelect, Cost: cost}, nil
	case bound.Rel != nil:
		t2 := time.Now()
		root := s.xf.Apply(bound.Rel)
		cost.Xform = time.Since(t2)
		t3 := time.Now()
		sql, err := serializer.Serialize(root)
		cost.Serialize = time.Since(t3)
		if err != nil {
			return nil, nil
		}
		tpl, isTpl := stmt.(*ast.SQLTemplate)
		return &qcache.Entry{SQL: sql, IsExec: isTpl && tpl.Kind == ast.Exec, Cost: cost}, nil
	}
	return nil, nil
}

// execCached executes a cached translation, mirroring execStatement's
// result conversion for the cacheable statement shapes.
func (s *Session) execCached(ctx context.Context, e *qcache.Entry, stats *RunStats) (qval.Value, error) {
	tbl, err := s.execToQ(ctx, e.SQL, stats)
	if err != nil {
		return nil, err
	}
	if e.Kind == qcache.ScalarSelect {
		var out qval.Value = qval.Identity
		if tbl.NumCols() == 1 && tbl.Len() == 1 {
			out = qval.Index(tbl.Data[0], 0)
		}
		return out, nil
	}
	if e.IsExec && tbl.NumCols() == 1 {
		return tbl.Data[0], nil
	}
	return tbl, nil
}

func timingFromCost(c qcache.Cost) StageTiming {
	return StageTiming{Parse: c.Parse, Bind: c.Bind, Xform: c.Xform, Serialize: c.Serialize}
}

// materialize implements eager materialization of variable assignments
// (paper §4.3): physical (temporary table) or logical (view), and registers
// the variable in the appropriate scope so subsequent statements bind
// against it.
func (s *Session) materialize(ctx context.Context, bound *binder.Bound, root xtra.Node, sql string, stats *RunStats) (qval.Value, bool, error) {
	s.tempN++
	var backing, ddl string
	kind := binder.KindTable
	if s.cfg.Materialization == Logical && !s.scopes().InFunction() {
		backing = fmt.Sprintf("hq_view_%d", s.tempN)
		ddl = "CREATE VIEW " + backing + " AS " + sql
		kind = binder.KindView
	} else {
		backing = fmt.Sprintf("hq_temp_%d", s.tempN)
		ddl = "CREATE TEMPORARY TABLE " + backing + " AS " + sql
	}
	t0 := time.Now()
	_, err := s.backend.Exec(ctx, ddl)
	stats.Execute += time.Since(t0)
	stats.SQLs = append(stats.SQLs, ddl)
	if err != nil {
		return nil, false, err
	}
	meta := &mdi.TableMeta{Name: backing}
	for _, c := range root.Props().Cols {
		meta.Cols = append(meta.Cols, mdi.ColMeta{Name: c.Name, SQLType: c.SQLType, QType: c.QType})
		if c.Name == xtra.OrdCol {
			meta.HasOrdCol = true
		}
	}
	def := &binder.VarDef{Name: bound.Assign, Kind: kind, Meta: meta, Backing: backing}
	if bound.Global {
		s.scopes().UpsertGlobal(def)
	} else {
		s.scopes().Upsert(def)
	}
	return qval.Identity, false, nil
}

// unrollFunction re-algebrizes a stored function definition and executes its
// body with arguments bound in a fresh local scope (paper §4.3 and §5's
// "unrolling a large class of Q user-defined functions without the need to
// create user-defined functions in PG").
func (s *Session) unrollFunction(ctx context.Context, name string, def *binder.VarDef, args []ast.Node, stats *RunStats) (qval.Value, error) {
	t0 := time.Now()
	node, err := parse.ParseExpr(def.Source)
	stats.Stages.Parse += time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("re-algebrizing %s: %w", name, err)
	}
	lam, ok := node.(*ast.Lambda)
	if !ok {
		return nil, fmt.Errorf("'type (%s is not a function)", name)
	}
	if len(args) > len(lam.Params) {
		return nil, fmt.Errorf("'rank (%s takes %d arguments)", name, len(lam.Params))
	}
	// bind arguments as constants before entering the local scope
	argDefs := make([]*binder.VarDef, 0, len(args))
	for i, a := range args {
		if a == nil {
			return nil, fmt.Errorf("'nyi (projection of %s)", name)
		}
		ab, err := s.binder.BindStatement(ctx, a)
		if err != nil {
			return nil, err
		}
		switch {
		case ab.Scalar != nil:
			argDefs = append(argDefs, &binder.VarDef{Name: lam.Params[i], Kind: binder.KindScalar, Value: ab.Scalar})
		case ab.Rel != nil:
			// table-valued argument: materialize it and pass by reference
			root := s.xf.Apply(ab.Rel)
			sql, err := serializer.Serialize(root)
			if err != nil {
				return nil, err
			}
			s.tempN++
			backing := fmt.Sprintf("hq_temp_%d", s.tempN)
			t1 := time.Now()
			_, err = s.backend.Exec(ctx, "CREATE TEMPORARY TABLE "+backing+" AS "+sql)
			stats.Execute += time.Since(t1)
			stats.SQLs = append(stats.SQLs, "CREATE TEMPORARY TABLE "+backing+" AS "+sql)
			if err != nil {
				return nil, err
			}
			meta := &mdi.TableMeta{Name: backing}
			for _, c := range root.Props().Cols {
				meta.Cols = append(meta.Cols, mdi.ColMeta{Name: c.Name, SQLType: c.SQLType, QType: c.QType})
				if c.Name == xtra.OrdCol {
					meta.HasOrdCol = true
				}
			}
			argDefs = append(argDefs, &binder.VarDef{Name: lam.Params[i], Kind: binder.KindTable, Meta: meta, Backing: backing})
		default:
			return nil, fmt.Errorf("'type (argument %d of %s)", i, name)
		}
	}
	s.scopes().PushLocal()
	defer s.scopes().PopLocal()
	for _, d := range argDefs {
		s.scopes().Upsert(d)
	}
	var last qval.Value = qval.Identity
	for _, stmt := range lam.Body {
		v, ret, err := s.execStatement(ctx, stmt, stats)
		if err != nil {
			return nil, err
		}
		last = v
		if ret {
			return v, nil
		}
	}
	return last, nil
}
