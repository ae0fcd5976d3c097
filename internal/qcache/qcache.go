// Package qcache implements the query-translation cache of the concurrent
// serving runtime: a bounded LRU of translated plans shared by every session
// of a Hyper-Q process. The paper's value proposition is that translation
// overhead is negligible (~0.5% mean, Figure 6); once many concurrent
// clients replay the same workload queries, even that cost is dominated by
// repetition, so a warm hit skips parse/bind/xform/serialize entirely.
//
// Correctness rests on the key: a translation is only valid for the exact
// variable-visibility and metadata state it was produced under, so the key
// combines the normalized Q text with a scope fingerprint (session + server
// variable stores, see binder.Scopes.Fingerprint) and the metadata
// generation (mdi.MDI.Generation). A DDL or variable-store mutation bumps
// the respective generation, which orphans every dependent entry — stale
// entries are never served and age out of the LRU.
//
// The text in the key is a skeleton: each literal whose value no translator
// branch reads is lifted into a typed hole, so texts that differ only in
// such literals share one entry, a SQL template. The template is cut from
// the translations of two probe texts with sentinel literals, and kept only
// if both cut alike and splicing the request's own literals reproduces its
// own SQL byte for byte; otherwise the skeleton is marked rejected and its
// texts keep exact-text keys (DESIGN.md, "Translation templates").
//
// Concurrent identical queries, and concurrent texts of one new skeleton,
// are deduplicated with single-flight semantics: the first caller
// translates, the rest wait and share the result, so a thundering herd of N
// identical queries costs one translation.
package qcache

import (
	"container/list"
	"context"
	"errors"
	"strings"
	"sync"
	"time"
)

// Key identifies one cached translation.
type Key struct {
	// Query is the normalized Q source text (see Normalize).
	Query string
	// Scope fingerprints the variable-visibility state the translation
	// bound against (session + server scopes).
	Scope uint64
	// Meta is the metadata generation of the MDI the translation used;
	// DDL bumps it, invalidating dependent entries.
	Meta uint64
	// Skeleton marks a Query with holes: its entry is a template or a
	// rejection, never one text's translation.
	Skeleton bool
}

// Kind classifies how a cached statement's backend result is converted.
type Kind int

// Entry kinds.
const (
	// Select is a relational statement: the result is a Q table.
	Select Kind = iota
	// ScalarSelect is a non-constant scalar statement executed as a
	// single-row SELECT; a 1x1 result unwraps to an atom.
	ScalarSelect
)

// Cost is the per-stage translation time the entry's producer paid — what a
// cache hit saves, reported as RunStats.Saved.
type Cost struct {
	Parse     time.Duration
	Bind      time.Duration
	Xform     time.Duration
	Serialize time.Duration
}

// Entry is one cached translation: everything needed to execute the
// statement without re-running any pipeline stage.
type Entry struct {
	SQL  string
	Kind Kind
	// IsExec marks q's exec template, whose single-column results unwrap
	// to a bare vector.
	IsExec bool
	Cost   Cost
	tpl    *template // set on a verified skeleton's entry, which has no SQL
}

// Stats reports cache effectiveness.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// Dedups counts callers that waited on another caller's in-flight
	// translation instead of translating themselves.
	Dedups int64
	// Splices counts hits spliced into a template; Rejected counts
	// skeletons that failed verification.
	Splices, Rejected int64
	Entries           int
}

// Cache is a bounded LRU of translated plans with single-flight
// deduplication. Safe for concurrent use.
type Cache struct {
	max int

	mu      sync.Mutex
	lru     *list.List // front = most recently used; elements hold *item
	items   map[Key]*list.Element
	flights map[Key]*flight

	hits, misses, evictions, dedups, splices, rejected int64
}

type item struct {
	key Key
	e   *Entry
}

type flight struct {
	done chan struct{}
	e    *Entry
	err  error
	// aborted marks a flight whose leader's own context died mid-translate:
	// the outcome is specific to the leader, so waiters retry instead of
	// inheriting a foreign cancellation. Written before done closes.
	aborted bool
}

// New creates a cache bounded to maxEntries (minimum 1).
func New(maxEntries int) *Cache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &Cache{
		max:     maxEntries,
		lru:     list.New(),
		items:   map[Key]*list.Element{},
		flights: map[Key]*flight{},
	}
}

// Get returns the cached entry for k, if any, marking it most recently
// used.
func (c *Cache) Get(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return el.Value.(*item).e, true
	}
	c.misses++
	return nil, false
}

// Put inserts or replaces the entry for k, evicting the least recently used
// entry when the cache is full.
func (c *Cache) Put(k Key, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(k, e)
}

func (c *Cache) put(k Key, e *Entry) {
	if el, ok := c.items[k]; ok {
		el.Value.(*item).e = e
		c.lru.MoveToFront(el)
		return
	}
	c.items[k] = c.lru.PushFront(&item{key: k, e: e})
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.items, oldest.Value.(*item).key)
		c.evictions++
	}
}

// Do returns the cached entry for k or produces one with translate,
// deduplicating concurrent callers: while one caller (the leader) runs
// translate, others asking for the same key wait and share its outcome. The
// shared return is true when the entry came from the cache or another
// caller's flight (i.e. this caller skipped translation).
//
// The wait is cancellable: a waiter whose ctx is canceled detaches with
// ctx.Err() while the flight continues undisturbed for everyone else. A
// leader whose own ctx dies mid-translate hands the flight off — its
// failure is not stored or propagated; surviving waiters race to become the
// new leader and retry. Other translate errors propagate to all waiters and
// are not stored.
//
// translate may return (nil, nil) to signal "not cacheable": nothing is
// stored, and every caller receives a nil entry to fall back on its own
// uncached path.
func (c *Cache) Do(ctx context.Context, k Key, translate func(ctx context.Context) (*Entry, error)) (e *Entry, shared bool, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.items[k]; ok {
			c.lru.MoveToFront(el)
			e := el.Value.(*item).e
			if e != rejected {
				c.hits++ // a rejection sends its caller on to an exact-text key
			}
			c.mu.Unlock()
			return e, true, nil
		}
		if f, ok := c.flights[k]; ok {
			c.dedups++
			c.mu.Unlock()
			select {
			case <-f.done:
				if f.aborted {
					continue // leader bailed on its own ctx; retry as leader
				}
				return f.e, true, f.err
			case <-ctx.Done():
				return nil, false, ctx.Err() // detach; flight carries on
			}
		}
		c.misses++
		f := &flight{done: make(chan struct{})}
		c.flights[k] = f
		c.mu.Unlock()
		e, err := c.lead(ctx, k, f, translate)
		return e, false, err
	}
}

// ErrTranslatePanicked is what the waiters of a flight get when its
// leader's translate panicked; the panic itself goes on up the leader's
// stack.
var ErrTranslatePanicked = errors.New("qcache: the translation this request waited on panicked")

// lead runs translate as flight f's leader and finishes the flight in a
// defer: a translate that panics still removes the flight and releases its
// waiters, with ErrTranslatePanicked, before the panic unwinds further.
func (c *Cache) lead(ctx context.Context, k Key, f *flight, translate func(ctx context.Context) (*Entry, error)) (*Entry, error) {
	returned := false
	defer func() {
		if !returned {
			f.e, f.err = nil, ErrTranslatePanicked
		}
		c.mu.Lock()
		if f.err == nil && f.e != nil {
			c.put(k, f.e)
		}
		delete(c.flights, k)
		c.mu.Unlock()
		close(f.done)
	}()
	f.e, f.err = translate(ctx)
	returned = true
	// A failure caused by the leader's own context is the leader's alone:
	// mark the flight aborted so live waiters retry rather than inherit it.
	f.aborted = f.err != nil && ctx.Err() != nil && errors.Is(f.err, ctx.Err())
	return f.e, f.err
}

// Clear drops every entry (explicit invalidation; generation-keyed
// invalidation normally makes this unnecessary).
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.items = map[Key]*list.Element{}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of cache statistics.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Dedups:    c.dedups,
		Splices:   c.splices,
		Rejected:  c.rejected,
		Entries:   c.lru.Len(),
	}
}

// Normalize canonicalizes Q source for use as a cache key: runs of spaces
// and tabs outside string literals collapse to a single space, and leading/
// trailing whitespace is trimmed. Newlines are preserved — the Q lexer
// treats a newline differently from a space (it resets juxtaposition
// context), so conflating them could collide two semantically different
// programs under one key.
func Normalize(q string) string {
	var b strings.Builder
	b.Grow(len(q))
	inStr := false
	pendingSpace := false
	for i := 0; i < len(q); i++ {
		ch := q[i]
		if inStr {
			b.WriteByte(ch)
			if ch == '\\' && i+1 < len(q) {
				i++
				b.WriteByte(q[i])
				continue
			}
			if ch == '"' {
				inStr = false
			}
			continue
		}
		switch ch {
		case ' ', '\t':
			pendingSpace = true
		case '\n', '\r':
			// collapse newline runs (and \r\n pairs): blank lines carry no
			// tokens and reset nothing beyond what one newline resets
			pendingSpace = false
			if s := b.String(); len(s) > 0 && s[len(s)-1] != '\n' {
				b.WriteByte('\n')
			}
		default:
			if pendingSpace {
				b.WriteByte(' ')
				pendingSpace = false
			}
			if ch == '"' {
				inStr = true
			}
			b.WriteByte(ch)
		}
	}
	return strings.Trim(b.String(), " \n")
}
