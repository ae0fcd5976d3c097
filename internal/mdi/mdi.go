// Package mdi implements Hyper-Q's MetaData Interface (paper §3.2.3 and
// Figure 3): the bottom of the variable-scope hierarchy, through which the
// binder resolves table and function definitions by querying the backend
// PostgreSQL catalog. Because metadata changes rarely, the MDI offers a
// configurable cache with an expiration time and explicit invalidation
// (paper §6: "Hyper-Q provides a configurable metadata caching mechanism
// with configurable invalidation policies and cache expiration time"; the
// experiments run with caching enabled).
package mdi

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hyperq/internal/xtra"

	"hyperq/internal/qlang/qval"
)

// ColMeta describes one column of a backend table.
type ColMeta struct {
	Name    string
	SQLType string
	QType   qval.Type
}

// TableMeta is the metadata the binder needs to bind a q_var to xtra_get.
type TableMeta struct {
	Name      string
	Cols      []ColMeta
	HasOrdCol bool // the table carries Hyper-Q's implicit order column
}

// DataCols returns the columns excluding the implicit order column.
func (t *TableMeta) DataCols() []ColMeta {
	out := make([]ColMeta, 0, len(t.Cols))
	for _, c := range t.Cols {
		if c.Name == xtra.OrdCol {
			continue
		}
		out = append(out, c)
	}
	return out
}

// CatalogQuerier executes a catalog query against the backend and returns
// rows of text values — in the full stack this is the Gateway running SQL
// over the PG v3 protocol; in-process it is a pgdb session.
type CatalogQuerier interface {
	QueryCatalog(ctx context.Context, sql string) ([][]string, error)
}

// Stats reports cache effectiveness, used by the metadata-cache benchmark.
type Stats struct {
	Lookups    int64
	Hits       int64
	Misses     int64
	CatalogRTs int64 // round trips issued to the backend catalog
}

// MDI resolves table metadata with caching. It is safe for concurrent use:
// the serving runtime shares one MDI across all sessions of a process, so
// concurrent lookups take a read lock on the hot (cached) path and stats
// are kept in atomics.
type MDI struct {
	q   CatalogQuerier
	ttl time.Duration
	now func() time.Time

	mu    sync.RWMutex
	cache map[string]cacheEntry

	lookups, hits, misses, catalogRTs atomic.Int64
	// gen counts explicit invalidations (DDL signals); it is part of the
	// query-cache key, so translations bound against stale metadata are
	// orphaned the moment the schema changes.
	gen atomic.Uint64
}

type cacheEntry struct {
	meta    *TableMeta
	fetched time.Time
}

// Option configures an MDI.
type Option func(*MDI)

// WithTTL sets the cache expiration time; zero disables caching.
func WithTTL(ttl time.Duration) Option {
	return func(m *MDI) { m.ttl = ttl }
}

// WithClock injects a clock for tests.
func WithClock(now func() time.Time) Option {
	return func(m *MDI) { m.now = now }
}

// New builds an MDI over a catalog querier. The default TTL is 5 minutes,
// matching "typically, metadata do not have frequent updates" (§6).
func New(q CatalogQuerier, opts ...Option) *MDI {
	m := &MDI{q: q, ttl: 5 * time.Minute, now: time.Now, cache: map[string]cacheEntry{}}
	for _, o := range opts {
		o(m)
	}
	return m
}

// LookupTable resolves a backend table's metadata, serving from cache when
// fresh. A miss issues a catalog round trip (an information_schema query)
// under the request context.
func (m *MDI) LookupTable(ctx context.Context, name string) (*TableMeta, error) {
	m.lookups.Add(1)
	m.mu.RLock()
	e, ok := m.cache[name]
	m.mu.RUnlock()
	if ok && m.ttl > 0 && m.now().Sub(e.fetched) < m.ttl {
		m.hits.Add(1)
		return e.meta, nil
	}
	m.misses.Add(1)
	m.catalogRTs.Add(1)

	sql := fmt.Sprintf(
		"SELECT column_name, data_type, ordinal_position FROM information_schema.columns WHERE table_name = '%s' ORDER BY ordinal_position",
		escapeSQLString(name))
	rows, err := m.q.QueryCatalog(ctx, sql)
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("mdi: relation %q not found in backend catalog", name)
	}
	meta := &TableMeta{Name: name}
	for _, r := range rows {
		if len(r) < 2 {
			return nil, fmt.Errorf("mdi: malformed catalog row %v", r)
		}
		col := ColMeta{Name: r[0], SQLType: r[1], QType: xtra.QTypeForSQL(r[1])}
		if col.Name == xtra.OrdCol {
			meta.HasOrdCol = true
		}
		meta.Cols = append(meta.Cols, col)
	}
	m.mu.Lock()
	m.cache[name] = cacheEntry{meta: meta, fetched: m.now()}
	m.mu.Unlock()
	return meta, nil
}

// Invalidate drops one table's cached metadata (e.g. after DDL).
func (m *MDI) Invalidate(name string) {
	m.mu.Lock()
	delete(m.cache, name)
	m.mu.Unlock()
	m.gen.Add(1)
}

// InvalidateAll clears the cache.
func (m *MDI) InvalidateAll() {
	m.mu.Lock()
	m.cache = map[string]cacheEntry{}
	m.mu.Unlock()
	m.gen.Add(1)
}

// Generation returns the invalidation counter — the metadata-version
// component of the query-translation cache key.
func (m *MDI) Generation() uint64 { return m.gen.Load() }

// Stats returns a snapshot of cache statistics.
func (m *MDI) Stats() Stats {
	return Stats{
		Lookups:    m.lookups.Load(),
		Hits:       m.hits.Load(),
		Misses:     m.misses.Load(),
		CatalogRTs: m.catalogRTs.Load(),
	}
}

// LookupScalar parses a text catalog value into a typed Q atom; used when
// server-scope scalar variables are materialized in a backend table.
func LookupScalar(text string, t qval.Type) (qval.Value, error) {
	switch t {
	case qval.KLong:
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, err
		}
		return qval.Long(n), nil
	case qval.KFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, err
		}
		return qval.Float(f), nil
	case qval.KSymbol:
		return qval.Symbol(text), nil
	default:
		return qval.CharVec(text), nil
	}
}

func escapeSQLString(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			out = append(out, '\'')
		}
		out = append(out, s[i])
	}
	return string(out)
}
