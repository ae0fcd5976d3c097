package core_test

import (
	"fmt"
	"sync"
	"testing"

	"hyperq/internal/core"
	"hyperq/internal/pgdb"
	"hyperq/internal/qcache"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/taq"
)

// newCachedStack is newStack plus a shared query cache.
func newCachedStack(t *testing.T) (*core.Platform, *core.Session, core.Backend, *qcache.Cache) {
	t.Helper()
	cache := qcache.New(64)
	p, s, b := newStack(t, core.Config{Cache: cache})
	return p, s, b, cache
}

func TestCacheWarmHitSkipsTranslation(t *testing.T) {
	_, s, _, cache := newCachedStack(t)
	const q = "select Price, Size from trades where Symbol=`GOOG"

	cold, stats1, err := s.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats1.CacheHit {
		t.Fatal("first run cannot be a cache hit")
	}
	if stats1.Stages.Translation() == 0 {
		t.Fatal("cold run should record translation cost")
	}

	warm, stats2, err := s.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats2.CacheHit {
		t.Fatal("second run should hit the cache")
	}
	if stats2.Stages.Translation() != 0 {
		t.Fatalf("warm run must skip every stage, got %+v", stats2.Stages)
	}
	if stats2.Saved.Translation() == 0 {
		t.Fatal("warm run should report the translation cost it saved")
	}
	if !qval.EqualValues(cold, warm) {
		t.Fatalf("cached result differs:\ncold: %v\nwarm: %v", cold, warm)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
}

func TestCacheWhitespaceNormalization(t *testing.T) {
	_, s, _, cache := newCachedStack(t)
	if _, _, err := s.Run(ctx, "select Price from trades where Symbol=`IBM"); err != nil {
		t.Fatal(err)
	}
	_, stats, err := s.Run(ctx, "select   Price  from\ttrades  where Symbol=`IBM")
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CacheHit {
		t.Fatal("whitespace variants should share a cache entry")
	}
	if cache.Len() != 1 {
		t.Fatalf("entries = %d, want 1", cache.Len())
	}
}

func TestCacheInvalidatesOnSessionVariableChange(t *testing.T) {
	_, s, _, _ := newCachedStack(t)
	if _, _, err := s.Run(ctx, "cutoff: 100.5"); err != nil {
		t.Fatal(err)
	}
	const q = "select Price from trades where Price>cutoff"
	first := runQ(t, s, q)
	_, stats, err := s.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CacheHit {
		t.Fatal("repeat with unchanged scope should hit")
	}

	// changing the variable the query binds against must invalidate
	if _, _, err := s.Run(ctx, "cutoff: 150.5"); err != nil {
		t.Fatal(err)
	}
	second, stats2, err := s.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.CacheHit {
		t.Fatal("variable change must invalidate the cached translation")
	}
	tbl := second.(*qval.Table)
	if tbl.Len() >= first.Len() {
		t.Fatalf("re-translation did not observe the new cutoff: %d vs %d rows", tbl.Len(), first.Len())
	}
}

func TestCacheInvalidatesOnServerScopeChange(t *testing.T) {
	p, s, b, cache := newCachedStack(t)
	if _, _, err := s.Run(ctx, "lim:: 100.5"); err != nil {
		t.Fatal(err)
	}
	const q = "select Price from trades where Price>lim"
	runQ(t, s, q)

	// a second session mutating the server scope invalidates for everyone
	s2 := p.NewSession(b, core.Config{Cache: cache})
	defer s2.Close()
	if _, _, err := s2.Run(ctx, "lim:: 150.5"); err != nil {
		t.Fatal(err)
	}
	_, stats, err := s.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHit {
		t.Fatal("server-scope change must invalidate other sessions' entries")
	}
}

func TestCacheInvalidatesOnDDL(t *testing.T) {
	_, s, b, _ := newCachedStack(t)
	const q = "select from minidata"
	small := qval.NewTable([]string{"A"}, []qval.Value{qval.LongVec{1, 2}})
	if err := core.LoadQTable(ctx, b, "minidata", small); err != nil {
		t.Fatal(err)
	}
	first := runQ(t, s, q)
	if first.NumCols() != 1 {
		t.Fatalf("cols = %d", first.NumCols())
	}

	// DDL: replace the table with a wider schema, signal via the MDI
	if _, err := b.Exec(ctx, "DROP TABLE minidata"); err != nil {
		t.Fatal(err)
	}
	wide := qval.NewTable([]string{"A", "B"}, []qval.Value{qval.LongVec{1, 2}, qval.FloatVec{0.5, 1.5}})
	if err := core.LoadQTable(ctx, b, "minidata", wide); err != nil {
		t.Fatal(err)
	}
	s.MDI().InvalidateAll()

	second, stats, err := s.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHit {
		t.Fatal("DDL must invalidate the cached translation")
	}
	if tbl := second.(*qval.Table); tbl.NumCols() != 2 {
		t.Fatalf("re-translation did not observe the new schema: %d cols", tbl.NumCols())
	}
}

func TestCacheSharedAcrossSessions(t *testing.T) {
	p, s1, b, cache := newCachedStack(t)
	const q = "select max Price from trades"
	v1, stats1, err := s1.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats1.CacheHit {
		t.Fatal("first session run is cold")
	}

	s2 := p.NewSession(b, core.Config{Cache: cache})
	defer s2.Close()
	v2, stats2, err := s2.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats2.CacheHit {
		t.Fatal("a fresh session (empty session scope) should share the entry")
	}
	if !qval.EqualValues(v1, v2) {
		t.Fatalf("results differ: %v vs %v", v1, v2)
	}
}

func TestCachePrivateStateNotShared(t *testing.T) {
	// two sessions with identical-looking private histories must not
	// collide: their variables are backed by different temp tables
	db := pgdb.NewDB()
	loader := pipe(t, db)
	trades := qval.NewTable([]string{"P"}, []qval.Value{qval.FloatVec{1, 2, 3}})
	quotes := qval.NewTable([]string{"P"}, []qval.Value{qval.FloatVec{10, 20}})
	if err := core.LoadQTable(ctx, loader, "trades", trades); err != nil {
		t.Fatal(err)
	}
	if err := core.LoadQTable(ctx, loader, "quotes", quotes); err != nil {
		t.Fatal(err)
	}
	cache := qcache.New(64)
	p := core.NewPlatform()
	s1 := p.NewSession(pipe(t, db), core.Config{Cache: cache})
	defer s1.Close()
	s2 := p.NewSession(pipe(t, db), core.Config{Cache: cache})
	defer s2.Close()

	if _, _, err := s1.Run(ctx, "x: select from trades"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.Run(ctx, "x: select from quotes"); err != nil {
		t.Fatal(err)
	}
	v1, _, err := s1.Run(ctx, "select sum P from x")
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := s2.Run(ctx, "select sum P from x")
	if err != nil {
		t.Fatal(err)
	}
	if qval.EqualValues(v1, v2) {
		t.Fatalf("sessions collided on private state: both = %v", v1)
	}
}

func TestCacheExecUnwrapPreserved(t *testing.T) {
	_, s, _, _ := newCachedStack(t)
	const q = "exec Price from trades where Symbol=`GOOG"
	cold, _, err := s.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cold.(qval.FloatVec); !ok {
		t.Fatalf("exec should yield a bare vector, got %T", cold)
	}
	warm, stats, err := s.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CacheHit {
		t.Fatal("want cache hit")
	}
	if _, ok := warm.(qval.FloatVec); !ok {
		t.Fatalf("cached exec lost its unwrap: %T", warm)
	}
	if !qval.EqualValues(cold, warm) {
		t.Fatal("cached exec result differs")
	}
}

func TestCacheScalarExprCached(t *testing.T) {
	_, s, _, cache := newCachedStack(t)
	const q = "1+2"
	cold, _, err := s.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	warm, stats, err := s.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	_ = cache
	if !qval.EqualValues(cold, warm) {
		t.Fatalf("scalar differs: %v vs %v", cold, warm)
	}
	_ = stats // constant folding may keep this off the backend; result parity is what matters
}

func TestCacheSkipsAssignments(t *testing.T) {
	_, s, _, cache := newCachedStack(t)
	if _, _, err := s.Run(ctx, "gg: select from trades where Symbol=`GOOG"); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Fatalf("assignments must not be cached, entries = %d", cache.Len())
	}
	// and the materialized variable still works
	tbl := runQ(t, s, "select from gg")
	if tbl.Len() == 0 {
		t.Fatal("materialized variable unusable")
	}
}

func TestCacheSkipsMultiStatement(t *testing.T) {
	_, s, _, cache := newCachedStack(t)
	if _, _, err := s.Run(ctx, "a: 1.0; select from trades where Price>a"); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Fatalf("multi-statement programs must not be cached, entries = %d", cache.Len())
	}
}

func TestTranslateUsesCache(t *testing.T) {
	_, s, _, _ := newCachedStack(t)
	const q = "select Price from trades where Symbol=`IBM"
	sql1, stats1, err := s.Translate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats1.CacheHit {
		t.Fatal("cold translate")
	}
	sql2, stats2, err := s.Translate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats2.CacheHit {
		t.Fatal("warm translate should hit")
	}
	if sql1 != sql2 {
		t.Fatalf("SQL differs:\n%s\n%s", sql1, sql2)
	}
	// Run and Translate share entries
	_, stats3, err := s.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats3.CacheHit {
		t.Fatal("Run should reuse the entry Translate created")
	}
}

func TestCacheConcurrentIdenticalQueriesTranslateOnce(t *testing.T) {
	// N sessions fire the same query concurrently; single-flight ensures
	// one translation, and every session gets the right rows. Then N
	// sessions fire N distinct texts of one new skeleton: the first
	// verifies its template once and the rest splice it.
	db := pgdb.NewDB()
	loader := pipe(t, db)
	trades := qval.NewTable([]string{"Symbol", "Price"}, []qval.Value{
		qval.SymbolVec{"GOOG", "IBM", "GOOG"}, qval.FloatVec{100, 150, 101},
	})
	if err := core.LoadQTable(ctx, loader, "trades", trades); err != nil {
		t.Fatal(err)
	}
	cache := qcache.New(64)
	p := core.NewPlatform()
	const n = 16
	for _, round := range []struct {
		name string
		text func(i int) string
	}{
		{"identical", func(int) string { return "select Price from trades where Symbol=`GOOG" }},
		{"fresh literals", func(i int) string {
			return fmt.Sprintf("select Price from trades where Symbol=`GOOG, Price<%d.5", 200+i)
		}},
	} {
		backends := make([]core.Backend, n)
		for i := range backends {
			backends[i] = pipe(t, db)
		}
		before := cache.Stats()
		var wg sync.WaitGroup
		errs := make([]error, n)
		lens := make([]int, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s := p.NewSession(backends[i], core.Config{Cache: cache})
				defer s.Close()
				v, _, err := s.Run(ctx, round.text(i))
				if err != nil {
					errs[i] = err
					return
				}
				lens[i] = v.(*qval.Table).Len()
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: session %d: %v", round.name, i, err)
			}
			if lens[i] != 2 {
				t.Fatalf("%s: session %d got %d rows, want 2", round.name, i, lens[i])
			}
		}
		st := cache.Stats()
		if d := st.Misses - before.Misses; d != 1 {
			t.Fatalf("%s: translations = %d (misses), want exactly 1; stats %+v", round.name, d, st)
		}
		if d := st.Hits + st.Dedups - before.Hits - before.Dedups; d != n-1 {
			t.Fatalf("%s: hits+dedups = %d, want %d; stats %+v", round.name, d, n-1, st)
		}
	}
	// both rounds' texts lift their symbol, so every sharer splices
	if st := cache.Stats(); st.Splices != 2*(n-1) || st.Entries != 2 {
		t.Fatalf("stats %+v, want %d splices over 2 entries", st, 2*(n-1))
	}
}

// pointShapes are the benchmark's point_lookups request shapes
// (bench/workloads.go): a symbol slot and a numeric slot each.
var pointShapes = []struct {
	format string
	float  bool
}{
	{"select from daily where Symbol=`%s, Volume<%s", false},
	{"select attr_007 from refdata where Symbol=`%s, attr_007<%s", false},
	{"select Close from daily where Symbol=`%s, High>%s", true},
	{"select Symbol, attr_100, attr_250 from refdata where Symbol=`%s, attr_499<%s", false},
	{"select rng:High-Low from daily where Symbol=`%s, Low>%s", true},
	{"exec Close from daily where Symbol=`%s, Volume<%s", false},
	{"select Sector from refdata where Symbol=`%s, attr_000<%s", false},
	{"select Symbol, Open, Close from daily where Symbol=`%s, Open>%s", true},
}

// pointTexts are n distinct point lookups over the shapes: every text
// carries fresh literals, and half its numeric predicates are false.
func pointTexts(n int, syms []string) []string {
	out := make([]string, n)
	for i := range out {
		s := pointShapes[i%len(pointShapes)]
		lit := fmt.Sprintf("%d", 1+i*97%2_000_000_000)
		if s.float {
			lit = fmt.Sprintf("%d.%03d", i%200, i%997+1)
		}
		out[i] = fmt.Sprintf(s.format, syms[i%len(syms)], lit)
	}
	return out
}

func TestCacheFreshLiteralsSpliceOneTemplatePerShape(t *testing.T) {
	n := 10_000
	if testing.Short() {
		n = 800
	}
	data := taq.Generate(taq.Config{Seed: 5, Trades: 50, Quotes: 50})
	db := pgdb.NewDB()
	loader := pipe(t, db)
	for name, tbl := range map[string]*qval.Table{"daily": data.Daily, "refdata": data.RefData} {
		if err := core.LoadQTable(ctx, loader, name, tbl); err != nil {
			t.Fatal(err)
		}
	}
	cache := qcache.New(64)
	p := core.NewPlatform()
	cached := p.NewSession(pipe(t, db), core.Config{Cache: cache})
	defer cached.Close()
	plain := p.NewSession(pipe(t, db), core.Config{})
	defer plain.Close()
	for i, q := range pointTexts(n, append([]string{"NONE"}, taq.DefaultSymbols...)) {
		got, stats, err := cached.Run(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if i >= len(pointShapes) && !stats.CacheHit {
			t.Fatalf("%s: fresh literals missed the template", q)
		}
		want, _, err := plain.Run(ctx, q)
		if err != nil {
			t.Fatalf("%s uncached: %v", q, err)
		}
		if !qval.EqualValues(got, want) {
			t.Fatalf("%s:\ncached:   %v\nuncached: %v", q, got, want)
		}
	}
	st := cache.Stats()
	if st.Entries != len(pointShapes) || st.Evictions != 0 || st.Rejected != 0 {
		t.Fatalf("stats = %+v, want %d entries, no evictions, no rejections", st, len(pointShapes))
	}
	if want := int64(n - len(pointShapes)); st.Splices != want || st.Hits != want {
		t.Fatalf("stats = %+v, want %d splices and hits", st, want)
	}
}

func TestCacheCastTargetRejectedServedByExactText(t *testing.T) {
	_, s, _, cache := newCachedStack(t)
	const q = "select x:`long$Price from trades"
	cold := runQ(t, s, q)
	st := cache.Stats()
	if st.Rejected != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want the skeleton rejected beside the text's own entry", st)
	}
	warm, stats, err := s.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CacheHit || !qval.EqualValues(cold, warm) {
		t.Fatalf("exact-text hit = %v, results %v vs %v", stats.CacheHit, cold, warm)
	}
	if st := cache.Stats(); st.Splices != 0 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want one exact-text hit after one miss", st)
	}
	// another cast target reads its own text, not the rejected skeleton
	if _, _, err := s.Run(ctx, "select x:`int$Price from trades"); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Rejected != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want a second exact-text miss", st)
	}
}

func TestCacheTemplateStatsChargeProbes(t *testing.T) {
	_, s, _, _ := newCachedStack(t)
	_, cold, err := s.Run(ctx, "select Price from trades where Symbol=`GOOG, Size>15")
	if err != nil {
		t.Fatal(err)
	}
	v, warm, err := s.Run(ctx, "select Price from trades where Symbol=`IBM, Size>25")
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit || warm.Stages.Translation() != 0 {
		t.Fatalf("fresh literals should splice: %+v", warm)
	}
	// the leader translated the request and two probes; a hit saves one
	if cold.Stages.Translation() <= warm.Saved.Translation() {
		t.Fatalf("leader stages %v should exceed one translation's %v", cold.Stages, warm.Saved)
	}
	if got := v.(*qval.Table); got.Len() != 1 {
		t.Fatalf("rows = %d, want 1", got.Len())
	}
}
