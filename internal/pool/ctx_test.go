package pool

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hyperq/internal/core"
)

// ctxConn is a pool.Conn that counts pings and records whether each
// statement's context carried a deadline.
type ctxConn struct {
	mu        sync.Mutex
	pings     int
	deadlines []bool
	closed    bool
}

func (c *ctxConn) Exec(ctx context.Context, sql string) (*core.BackendResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, has := ctx.Deadline()
	c.deadlines = append(c.deadlines, has)
	return &core.BackendResult{Tag: "OK"}, nil
}

func (c *ctxConn) ExecStream(ctx context.Context, sql string, sink core.RowSink) error {
	_, err := c.Exec(ctx, sql)
	return err
}

func (c *ctxConn) QueryCatalog(ctx context.Context, sql string) ([][]string, error) {
	return [][]string{{"col", "bigint"}}, nil
}

func (c *ctxConn) Ping() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pings++
	return nil
}

func (c *ctxConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

func (c *ctxConn) pingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pings
}

func TestGetCtxCancelAbortsCheckoutWait(t *testing.T) {
	d := &dialer{}
	p := New(Config{Size: 1, Dial: d.dial, CheckoutTimeout: time.Minute})
	held, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := p.Get(gctx)
		got <- err
	}()
	time.Sleep(10 * time.Millisecond) // waiter parks on the exhausted pool
	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("canceled checkout stayed blocked (CheckoutTimeout is 1m)")
	}
	p.Put(held, true)
	// the canceled waiter must not have consumed the slot
	c, err := p.Get(ctx)
	if err != nil {
		t.Fatalf("slot leaked to the canceled waiter: %v", err)
	}
	p.Put(c, true)
}

func TestGetCtxCancelAbortsDialBackoff(t *testing.T) {
	d := &dialer{fails: 100}
	p := New(Config{Size: 1, Dial: d.dial, DialAttempts: 10, DialBackoff: time.Minute})
	gctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := p.Get(gctx)
		got <- err
	}()
	time.Sleep(10 * time.Millisecond) // first dial fails; waiter sits in backoff
	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("canceled dial backoff stayed blocked (backoff is 1m)")
	}
}

func TestHealthCheckSkippedWithinWindow(t *testing.T) {
	conn := &ctxConn{}
	p := New(Config{
		Size:        1,
		Dial:        func(ctx context.Context) (Conn, error) { return conn, nil },
		HealthCheck: true,
		// default HealthCheckInterval (1s) is far wider than this test
	})
	for i := 0; i < 3; i++ {
		c, err := p.Get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		p.Put(c, true)
	}
	if n := conn.pingCount(); n != 0 {
		t.Fatalf("pings = %d, want 0 (returned healthy within the window)", n)
	}
	// checkouts 2 and 3 found the idle conn recently healthy
	if st := p.Stats(); st.HealthChecksSkipped != 2 {
		t.Fatalf("HealthChecksSkipped = %d, want 2 (stats %+v)", st.HealthChecksSkipped, st)
	}
}

func TestHealthCheckRunsOutsideWindow(t *testing.T) {
	conn := &ctxConn{}
	p := New(Config{
		Size:                1,
		Dial:                func(ctx context.Context) (Conn, error) { return conn, nil },
		HealthCheck:         true,
		HealthCheckInterval: time.Nanosecond,
	})
	for i := 0; i < 3; i++ {
		c, err := p.Get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		p.Put(c, true)
	}
	if n := conn.pingCount(); n != 2 {
		t.Fatalf("pings = %d, want 2 (every idle checkout outside the window)", n)
	}
	if st := p.Stats(); st.HealthChecksSkipped != 0 {
		t.Fatalf("HealthChecksSkipped = %d, want 0", st.HealthChecksSkipped)
	}
}

// TestPinnedConnKeepsPerQueryDeadline covers the temp-table pinning path: a
// pinned connection's statements must run under the same ctx-derived
// per-query deadline as pooled checkouts.
func TestPinnedConnKeepsPerQueryDeadline(t *testing.T) {
	conn := &ctxConn{}
	p := New(Config{
		Size:         1,
		Dial:         func(ctx context.Context) (Conn, error) { return conn, nil },
		QueryTimeout: time.Second,
	})
	b := p.SessionBackend()
	defer b.Close()
	if _, err := b.Exec(ctx, "CREATE TEMPORARY TABLE hq_temp_1 AS SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.InUse != 1 {
		t.Fatalf("temp DDL should pin the connection: %+v", st)
	}
	if _, err := b.Exec(ctx, "SELECT * FROM hq_temp_1"); err != nil {
		t.Fatal(err)
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if len(conn.deadlines) != 2 {
		t.Fatalf("execs = %d, want 2", len(conn.deadlines))
	}
	for i, has := range conn.deadlines {
		if !has {
			t.Fatalf("statement %d ran without the per-query deadline (pinned=%v)", i, i > 0)
		}
	}
}

// TestExecCtxCancellationSurfaces ensures a dead request context aborts the
// statement before it reaches the backend and leaves the pool intact.
func TestExecCtxCancellationSurfaces(t *testing.T) {
	conn := &ctxConn{}
	p := New(Config{Size: 1, Dial: func(ctx context.Context) (Conn, error) { return conn, nil }})
	b := p.SessionBackend()
	defer b.Close()
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Exec(dead, "SELECT 1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := p.Stats(); st.InUse != 0 {
		t.Fatalf("canceled statement leaked its slot: %+v", st)
	}
	// the pool remains serviceable for live requests
	if _, err := b.Exec(ctx, "SELECT 1"); err != nil {
		t.Fatal(err)
	}
}
