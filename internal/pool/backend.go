package pool

import (
	"context"
	"errors"
	"strings"
	"sync"

	"hyperq/internal/core"
)

// ErrSessionConnLost is returned once a session's pinned connection broke:
// the temporary state that lived on it (temp tables backing materialized
// variables) is gone, so the session cannot transparently continue.
var ErrSessionConnLost = errors.New("pool: session's pinned backend connection was lost (temporary state dropped)")

// SessionBackend is the core.Backend handed to one Hyper-Q session. Each
// statement checks a connection out of the shared pool and returns it
// immediately, so idle sessions hold no backend resources.
//
// Temporary tables are connection-local on the backend, so a statement that
// creates one (physical materialization of a variable, §4.3) pins the
// checked-out connection to this session for its remaining lifetime — later
// statements must observe that state in situ. A pinned connection is
// retired (closed, not recycled) when the session closes, so temp state
// never leaks into another session. Views are backend-global and need no
// pinning.
type SessionBackend struct {
	pool *Pool

	mu     sync.Mutex
	pinned Conn
	lost   bool // pinned connection broke; session state unrecoverable
	closed bool
}

// SessionBackend returns a fresh per-session wrapper over the pool.
func (p *Pool) SessionBackend() *SessionBackend {
	return &SessionBackend{pool: p}
}

// Exec implements core.Backend. The request context bounds the checkout
// wait and the statement itself; a pinned connection runs under the same
// ctx-derived per-query deadline as a pooled one.
func (b *SessionBackend) Exec(ctx context.Context, sql string) (res *core.BackendResult, err error) {
	c, pinned, err := b.checkout(ctx, pinsConnection(sql))
	if err != nil {
		return nil, err
	}
	done := false
	defer func() { b.checkin(c, pinned, !done || connBroken(err)) }()
	res, err = b.pool.Exec(ctx, c, sql)
	done = true
	return res, err
}

// ExecStream implements core.StreamBackend with the same checkout, pinning
// and checkin rules as Exec — a statement that creates a temp table pins the
// connection whichever result path delivered it.
func (b *SessionBackend) ExecStream(ctx context.Context, sql string, sink core.RowSink) (err error) {
	c, pinned, err := b.checkout(ctx, pinsConnection(sql))
	if err != nil {
		return err
	}
	done := false
	defer func() { b.checkin(c, pinned, !done || connBroken(err)) }()
	err = b.pool.ExecStream(ctx, c, sql, sink)
	done = true
	return err
}

// QueryCatalog implements core.Backend. Catalog queries never pin, but a
// session that already pinned keeps using its connection — its temp tables
// are only visible there.
func (b *SessionBackend) QueryCatalog(ctx context.Context, sql string) (rows [][]string, err error) {
	c, pinned, err := b.checkout(ctx, false)
	if err != nil {
		return nil, err
	}
	done := false
	defer func() { b.checkin(c, pinned, !done || connBroken(err)) }()
	rows, err = b.pool.QueryCatalog(ctx, c, sql)
	done = true
	return rows, err
}

// Close implements core.Backend: the pinned connection, if any, is retired.
func (b *SessionBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	if b.pinned != nil {
		b.pool.Put(b.pinned, false)
		b.pinned = nil
	}
	return nil
}

// checkout obtains the connection for one statement: the pinned connection
// when present, else a pool checkout (pinning it when pin is set).
func (b *SessionBackend) checkout(ctx context.Context, pin bool) (c Conn, pinned bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.closed:
		return nil, false, ErrClosed
	case b.lost:
		return nil, false, ErrSessionConnLost
	case b.pinned != nil:
		return b.pinned, true, nil
	}
	c, err = b.pool.Get(ctx)
	if err != nil {
		return nil, false, err
	}
	if pin {
		b.pinned = c
		pinned = true
	}
	return c, pinned, nil
}

// checkin returns a per-statement connection to the pool, or handles the
// loss of a pinned one. A connection is broken when its transport failed or
// when a panic (in the caller's sink, or in decoding the reply) unwound the
// statement: its socket may stand mid-protocol, so it is closed, never
// reused.
func (b *SessionBackend) checkin(c Conn, pinned, broken bool) {
	if !pinned {
		b.pool.Put(c, !broken)
		return
	}
	if broken {
		b.mu.Lock()
		if b.pinned == c {
			b.pinned = nil
			b.lost = true
		}
		b.mu.Unlock()
		b.pool.Put(c, false)
	}
}

// pinsConnection reports whether sql creates connection-local backend state
// (a temporary table).
func pinsConnection(sql string) bool {
	s := strings.TrimSpace(sql)
	const create = "CREATE"
	if len(s) < len(create) || !strings.EqualFold(s[:len(create)], create) {
		return false
	}
	rest := strings.TrimSpace(s[len(create):])
	for _, kw := range []string{"TEMPORARY", "TEMP"} {
		if len(rest) > len(kw) && strings.EqualFold(rest[:len(kw)], kw) {
			return true
		}
	}
	return false
}
