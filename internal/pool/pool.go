// Package pool implements the backend half of the concurrent serving
// runtime: a bounded pool of backend connections (PG v3 gateways, over TCP
// to a networked server or over a socket pair to the embedded engine in
// demo mode) shared by every Hyper-Q session of a process. The seed opened
// one dedicated backend connection per Q client; under heavy concurrent
// traffic the dial cost and the unbounded backend fan-out dominate, so
// sessions now check connections out per statement and return them
// immediately.
//
// Features: lazy dialing (connections are created on demand up to Size),
// health checks on checkout with a skip window for recently-healthy
// connections, dial retry with exponential backoff, per-query deadlines
// derived from the request context, and graceful drain on shutdown. All
// blocking operations — checkout waits, dial backoff, query execution — are
// bounded by the caller's context; the pool itself never touches socket
// deadlines (that mapping lives in the wire client). See SessionBackend for
// the session-facing core.Backend wrapper and its temp-table
// connection-pinning rules.
package pool

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/wire/pgv3"
)

// Conn is a pooled backend connection: a core.Backend that can also answer
// a liveness probe.
type Conn interface {
	core.Backend
	// Ping performs a cheap round trip, reporting whether the connection
	// is still usable.
	Ping() error
}

// Config tunes a pool.
type Config struct {
	// Size bounds the number of live backend connections (default 4).
	Size int
	// Dial opens a new backend connection; called lazily when a checkout
	// finds no idle connection. The context is the checking-out request's:
	// its cancellation aborts the dial.
	Dial func(ctx context.Context) (Conn, error)
	// DialAttempts is the number of dial tries per checkout (default 3);
	// DialBackoff is the initial retry delay, doubling per attempt
	// (default 50ms).
	DialAttempts int
	DialBackoff  time.Duration
	// CheckoutTimeout bounds how long a checkout waits for a free slot
	// when all connections are in use (default 30s). The request context
	// can cut the wait shorter but never extends it.
	CheckoutTimeout time.Duration
	// QueryTimeout bounds each statement run through Exec/QueryCatalog:
	// the pool derives a per-query deadline from the request context,
	// tightening it to now+QueryTimeout when set (0 disables).
	QueryTimeout time.Duration
	// HealthCheck pings idle connections on checkout, discarding dead
	// ones and dialing replacements.
	HealthCheck bool
	// HealthCheckInterval suppresses the checkout ping for a connection
	// that proved healthy within the interval — returned from a successful
	// statement or pinged — avoiding a ping round trip per checkout under
	// steady traffic (default 1s).
	HealthCheckInterval time.Duration
	// DrainTimeout bounds how long Close waits for checked-out
	// connections to come back (default 5s).
	DrainTimeout time.Duration
	// Logf, when set, receives pool diagnostics.
	Logf func(format string, args ...any)
}

// Stats reports pool activity.
type Stats struct {
	Dials               int64
	DialErrors          int64
	Checkouts           int64
	HealthFailures      int64
	HealthChecksSkipped int64
	Discards            int64
	WaitTimeouts        int64
	InUse               int
	Idle                int
}

// Pool errors.
var (
	ErrClosed          = errors.New("pool: closed")
	ErrCheckoutTimeout = errors.New("pool: timed out waiting for a free backend connection")
)

// Pool is a bounded backend-connection pool. Safe for concurrent use.
type Pool struct {
	cfg Config
	// sem holds one token per checked-out connection; its capacity is the
	// pool bound. idle buffers connections not currently checked out.
	sem       chan struct{}
	idle      chan Conn
	closed    chan struct{}
	closeOnce sync.Once

	// lastHealthy records when each live connection last proved healthy,
	// keyed by identity; entries are dropped when connections are discarded.
	mu          sync.Mutex
	lastHealthy map[Conn]time.Time

	dials, dialErrors, checkouts, healthFailures, healthSkips, discards, waitTimeouts atomic.Int64
}

// New creates a pool; no connection is dialed until the first checkout.
func New(cfg Config) *Pool {
	if cfg.Size <= 0 {
		cfg.Size = 4
	}
	if cfg.DialAttempts <= 0 {
		cfg.DialAttempts = 3
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = 50 * time.Millisecond
	}
	if cfg.CheckoutTimeout <= 0 {
		cfg.CheckoutTimeout = 30 * time.Second
	}
	if cfg.HealthCheckInterval <= 0 {
		cfg.HealthCheckInterval = time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Pool{
		cfg:         cfg,
		sem:         make(chan struct{}, cfg.Size),
		idle:        make(chan Conn, cfg.Size),
		closed:      make(chan struct{}),
		lastHealthy: make(map[Conn]time.Time),
	}
}

// Get checks a connection out of the pool, dialing one if no idle
// connection is available and the bound permits. It blocks up to
// CheckoutTimeout when the pool is exhausted; canceling ctx aborts the wait
// (and any dial backoff) immediately with ctx.Err().
func (p *Pool) Get(ctx context.Context) (Conn, error) {
	select {
	case <-p.closed:
		return nil, ErrClosed
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	timer := time.NewTimer(p.cfg.CheckoutTimeout)
	defer timer.Stop()
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-p.closed:
		return nil, ErrClosed
	case <-timer.C:
		p.waitTimeouts.Add(1)
		return nil, ErrCheckoutTimeout
	}
	// slot acquired: prefer an idle connection, else dial
	for {
		select {
		case c := <-p.idle:
			if p.cfg.HealthCheck && !p.recentlyHealthy(c) {
				if err := c.Ping(); err != nil {
					p.healthFailures.Add(1)
					p.discard(c)
					p.cfg.Logf("pool: discarding unhealthy connection: %v", err)
					continue
				}
				p.markHealthy(c)
			}
			p.checkouts.Add(1)
			return c, nil
		default:
			c, err := p.dialWithRetry(ctx)
			if err != nil {
				<-p.sem
				return nil, err
			}
			p.markHealthy(c)
			p.checkouts.Add(1)
			return c, nil
		}
	}
}

// Put returns a checked-out connection. reusable=false discards it (broken
// transport, or connection-local backend state that must not leak into
// another session). A reusable return counts as proof of health, feeding
// the checkout skip window.
func (p *Pool) Put(c Conn, reusable bool) {
	if c != nil {
		select {
		case <-p.closed:
			reusable = false
		default:
		}
		if reusable {
			p.markHealthy(c)
			select {
			case p.idle <- c:
				c = nil
			default:
				// cannot happen (idle capacity == slot capacity), but never
				// block or leak if it somehow does
			}
		}
		if c != nil {
			p.discard(c)
		}
	}
	<-p.sem
}

// Exec runs one statement on conn under a context derived from the
// request's: QueryTimeout, when set, tightens the deadline. The wire client
// maps the resulting deadline onto socket I/O.
func (p *Pool) Exec(ctx context.Context, c Conn, sql string) (*core.BackendResult, error) {
	ctx, cancel := p.queryContext(ctx)
	defer cancel()
	return c.Exec(ctx, sql)
}

// ExecStream runs one statement on conn, streaming the result into sink,
// under the same per-query context as Exec.
func (p *Pool) ExecStream(ctx context.Context, c Conn, sql string, sink core.RowSink) error {
	ctx, cancel := p.queryContext(ctx)
	defer cancel()
	return c.ExecStream(ctx, sql, sink)
}

// QueryCatalog runs one catalog query on conn under the per-query context.
func (p *Pool) QueryCatalog(ctx context.Context, c Conn, sql string) ([][]string, error) {
	ctx, cancel := p.queryContext(ctx)
	defer cancel()
	return c.QueryCatalog(ctx, sql)
}

// queryContext derives the per-query context: the caller's, tightened by
// QueryTimeout when configured.
func (p *Pool) queryContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if p.cfg.QueryTimeout > 0 {
		return context.WithTimeout(ctx, p.cfg.QueryTimeout)
	}
	return ctx, func() {}
}

// recentlyHealthy reports whether c proved healthy within
// HealthCheckInterval, counting a skipped checkout ping when so.
func (p *Pool) recentlyHealthy(c Conn) bool {
	p.mu.Lock()
	t, ok := p.lastHealthy[c]
	p.mu.Unlock()
	if ok && time.Since(t) < p.cfg.HealthCheckInterval {
		p.healthSkips.Add(1)
		return true
	}
	return false
}

func (p *Pool) markHealthy(c Conn) {
	p.mu.Lock()
	p.lastHealthy[c] = time.Now()
	p.mu.Unlock()
}

// discard closes a connection and forgets its health record.
func (p *Pool) discard(c Conn) {
	p.mu.Lock()
	delete(p.lastHealthy, c)
	p.mu.Unlock()
	p.discards.Add(1)
	c.Close()
}

// Close drains the pool gracefully: new checkouts fail immediately,
// checked-out connections are awaited up to DrainTimeout, and every
// connection is closed. It returns an error if the drain timed out with
// connections still in use.
func (p *Pool) Close() error {
	p.closeOnce.Do(func() { close(p.closed) })
	timer := time.NewTimer(p.cfg.DrainTimeout)
	defer timer.Stop()
	drained := 0
	var timedOut bool
	for drained < cap(p.sem) && !timedOut {
		select {
		case p.sem <- struct{}{}:
			drained++
		case <-timer.C:
			timedOut = true
		}
	}
	for {
		select {
		case c := <-p.idle:
			p.mu.Lock()
			delete(p.lastHealthy, c)
			p.mu.Unlock()
			c.Close()
		default:
			if timedOut {
				inUse := cap(p.sem) - drained
				p.cfg.Logf("pool: drain timed out with %d connection(s) still checked out", inUse)
				return fmt.Errorf("pool: drain timed out with %d connection(s) still checked out", inUse)
			}
			return nil
		}
	}
}

// Stats returns a snapshot of pool statistics.
func (p *Pool) Stats() Stats {
	return Stats{
		Dials:               p.dials.Load(),
		DialErrors:          p.dialErrors.Load(),
		Checkouts:           p.checkouts.Load(),
		HealthFailures:      p.healthFailures.Load(),
		HealthChecksSkipped: p.healthSkips.Load(),
		Discards:            p.discards.Load(),
		WaitTimeouts:        p.waitTimeouts.Load(),
		InUse:               len(p.sem),
		Idle:                len(p.idle),
	}
}

func (p *Pool) dialWithRetry(ctx context.Context) (Conn, error) {
	backoff := p.cfg.DialBackoff
	var lastErr error
	for attempt := 1; attempt <= p.cfg.DialAttempts; attempt++ {
		if attempt > 1 {
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return nil, ctx.Err()
			case <-p.closed:
				timer.Stop()
				return nil, ErrClosed
			}
			backoff *= 2
		}
		p.dials.Add(1)
		c, err := p.cfg.Dial(ctx)
		if err == nil {
			return c, nil
		}
		p.dialErrors.Add(1)
		lastErr = err
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		p.cfg.Logf("pool: dial attempt %d/%d failed: %v", attempt, p.cfg.DialAttempts, err)
	}
	return nil, fmt.Errorf("pool: dial failed after %d attempts: %w", p.cfg.DialAttempts, lastErr)
}

// connBroken classifies an Exec error: transport-level failures poison the
// connection; clean server errors (a SQL error over a healthy connection)
// and embedded-engine errors leave it reusable. A context abort mid-protocol
// surfaces as a pgv3.AbortError whose transport error keeps it in the broken
// class; a pure context error (embedded backend, pre-I/O cancellation)
// leaves the connection intact.
func connBroken(err error) bool {
	if err == nil {
		return false
	}
	var se *pgv3.ServerError
	if errors.As(err, &se) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}
