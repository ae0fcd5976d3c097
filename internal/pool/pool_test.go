package pool

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/wire/pgv3"
)

// ctx for pool operations that should never block on the context.
var ctx = context.Background()

// fakeConn is an in-memory pool.Conn that records activity.
type fakeConn struct {
	id        int
	mu        sync.Mutex
	execs     []string
	closed    bool
	pingErr   error
	execErr   error
	deadlines []bool // whether each Exec's ctx carried a deadline
}

func (f *fakeConn) Exec(ctx context.Context, sql string) (*core.BackendResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, hasDeadline := ctx.Deadline()
	f.deadlines = append(f.deadlines, hasDeadline)
	f.execs = append(f.execs, sql)
	if f.execErr != nil {
		return nil, f.execErr
	}
	return &core.BackendResult{Tag: "OK"}, nil
}

func (f *fakeConn) ExecStream(ctx context.Context, sql string, sink core.RowSink) error {
	_, err := f.Exec(ctx, sql)
	if err == nil && sink != nil {
		sink.Tag("OK")
	}
	return err
}

func (f *fakeConn) QueryCatalog(ctx context.Context, sql string) ([][]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.execs = append(f.execs, sql)
	return [][]string{{"col", "bigint"}}, nil
}

func (f *fakeConn) Ping() error { return f.pingErr }

func (f *fakeConn) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

func (f *fakeConn) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// dialer produces fakeConns and counts dials.
type dialer struct {
	mu    sync.Mutex
	conns []*fakeConn
	fails int // fail this many dials before succeeding
}

func (d *dialer) dial(ctx context.Context) (Conn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fails > 0 {
		d.fails--
		return nil, errors.New("dial refused")
	}
	c := &fakeConn{id: len(d.conns)}
	d.conns = append(d.conns, c)
	return c, nil
}

func (d *dialer) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

func TestLazyDialAndReuse(t *testing.T) {
	d := &dialer{}
	p := New(Config{Size: 4, Dial: d.dial})
	if d.count() != 0 {
		t.Fatal("pool must not dial before first checkout")
	}
	c, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d.count() != 1 {
		t.Fatalf("dials = %d, want 1", d.count())
	}
	p.Put(c, true)
	c2, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c {
		t.Fatal("idle connection should be reused")
	}
	if d.count() != 1 {
		t.Fatalf("dials = %d, want 1 (reuse)", d.count())
	}
	p.Put(c2, true)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if !c.(*fakeConn).isClosed() {
		t.Fatal("Close should close idle connections")
	}
}

func TestBoundAndCheckoutTimeout(t *testing.T) {
	d := &dialer{}
	p := New(Config{Size: 2, Dial: d.dial, CheckoutTimeout: 50 * time.Millisecond})
	a, _ := p.Get(ctx)
	b, _ := p.Get(ctx)
	if _, err := p.Get(ctx); !errors.Is(err, ErrCheckoutTimeout) {
		t.Fatalf("err = %v, want ErrCheckoutTimeout", err)
	}
	if p.Stats().WaitTimeouts != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
	p.Put(a, true)
	p.Put(b, true)
	if d.count() != 2 {
		t.Fatalf("dials = %d, want 2 (bounded)", d.count())
	}
}

func TestBlockedCheckoutUnblocksOnPut(t *testing.T) {
	d := &dialer{}
	p := New(Config{Size: 1, Dial: d.dial, CheckoutTimeout: 2 * time.Second})
	a, _ := p.Get(ctx)
	got := make(chan Conn)
	go func() {
		c, err := p.Get(ctx)
		if err != nil {
			t.Error(err)
		}
		got <- c
	}()
	time.Sleep(20 * time.Millisecond)
	p.Put(a, true)
	select {
	case c := <-got:
		p.Put(c, true)
	case <-time.After(time.Second):
		t.Fatal("waiter never unblocked")
	}
}

func TestHealthCheckDiscardsDeadIdle(t *testing.T) {
	d := &dialer{}
	// a nanosecond health window forces a real ping on every checkout
	p := New(Config{Size: 2, Dial: d.dial, HealthCheck: true, HealthCheckInterval: time.Nanosecond})
	c, _ := p.Get(ctx)
	c.(*fakeConn).pingErr = errors.New("gone")
	p.Put(c, true)
	c2, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c2 == c {
		t.Fatal("dead idle connection should have been replaced")
	}
	if !c.(*fakeConn).isClosed() {
		t.Fatal("dead connection should be closed")
	}
	st := p.Stats()
	if st.HealthFailures != 1 {
		t.Fatalf("stats = %+v", st)
	}
	p.Put(c2, true)
}

func TestDialRetryWithBackoff(t *testing.T) {
	d := &dialer{fails: 2}
	p := New(Config{Size: 1, Dial: d.dial, DialAttempts: 3, DialBackoff: time.Millisecond})
	start := time.Now()
	c, err := p.Get(ctx)
	if err != nil {
		t.Fatalf("Get after retries: %v", err)
	}
	// two failures with 1ms then 2ms backoff
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Fatalf("backoff not applied (elapsed %v)", elapsed)
	}
	st := p.Stats()
	if st.Dials != 3 || st.DialErrors != 2 {
		t.Fatalf("stats = %+v", st)
	}
	p.Put(c, true)
}

func TestDialExhaustedReleasesSlot(t *testing.T) {
	d := &dialer{fails: 100}
	p := New(Config{Size: 1, Dial: d.dial, DialAttempts: 2, DialBackoff: time.Millisecond})
	if _, err := p.Get(ctx); err == nil {
		t.Fatal("Get should fail when dialing is impossible")
	}
	// the slot must have been released: a now-working dial succeeds
	d.mu.Lock()
	d.fails = 0
	d.mu.Unlock()
	c, err := p.Get(ctx)
	if err != nil {
		t.Fatalf("slot leaked: %v", err)
	}
	p.Put(c, true)
}

func TestPutDiscard(t *testing.T) {
	d := &dialer{}
	p := New(Config{Size: 2, Dial: d.dial})
	c, _ := p.Get(ctx)
	p.Put(c, false)
	if !c.(*fakeConn).isClosed() {
		t.Fatal("discarded connection should be closed")
	}
	c2, _ := p.Get(ctx)
	if c2 == c {
		t.Fatal("discarded connection must not be reused")
	}
	p.Put(c2, true)
}

func TestGracefulDrain(t *testing.T) {
	d := &dialer{}
	p := New(Config{Size: 2, Dial: d.dial, DrainTimeout: time.Second})
	c, _ := p.Get(ctx)
	go func() {
		time.Sleep(30 * time.Millisecond)
		p.Put(c, true)
	}()
	if err := p.Close(); err != nil {
		t.Fatalf("drain should succeed once the connection returns: %v", err)
	}
	if !c.(*fakeConn).isClosed() {
		t.Fatal("connection should be closed after drain")
	}
	if _, err := p.Get(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
}

func TestDrainTimeout(t *testing.T) {
	d := &dialer{}
	p := New(Config{Size: 1, Dial: d.dial, DrainTimeout: 30 * time.Millisecond})
	c, _ := p.Get(ctx) // never returned
	if err := p.Close(); err == nil {
		t.Fatal("Close should report the timed-out drain")
	}
	p.Put(c, true) // late return: discarded without blocking
	if !c.(*fakeConn).isClosed() {
		t.Fatal("late-returned connection should be closed")
	}
}

func TestPerQueryDeadline(t *testing.T) {
	d := &dialer{}
	p := New(Config{Size: 1, Dial: d.dial, QueryTimeout: time.Second})
	b := p.SessionBackend()
	if _, err := b.Exec(ctx, "SELECT 1"); err != nil {
		t.Fatal(err)
	}
	fc := d.conns[0]
	fc.mu.Lock()
	defer fc.mu.Unlock()
	// the query's context must carry the pool's per-query deadline
	if len(fc.deadlines) != 1 || !fc.deadlines[0] {
		t.Fatalf("deadlines = %v, want one deadline-bearing context", fc.deadlines)
	}
}

func TestSessionBackendPerStatementCheckout(t *testing.T) {
	d := &dialer{}
	p := New(Config{Size: 2, Dial: d.dial})
	b := p.SessionBackend()
	for i := 0; i < 5; i++ {
		if _, err := b.Exec(ctx, fmt.Sprintf("SELECT %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if d.count() != 1 {
		t.Fatalf("dials = %d, want 1 (checkout/checkin reuse)", d.count())
	}
	if st := p.Stats(); st.InUse != 0 || st.Idle != 1 {
		t.Fatalf("stats after statements = %+v (connection held?)", st)
	}
	b.Close()
}

func TestSessionBackendPinsOnTempTable(t *testing.T) {
	d := &dialer{}
	p := New(Config{Size: 2, Dial: d.dial})
	b := p.SessionBackend()
	if _, err := b.Exec(ctx, "SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec(ctx, "CREATE TEMPORARY TABLE hq_temp_1 AS SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.InUse != 1 {
		t.Fatalf("temp DDL should pin the connection: %+v", st)
	}
	// subsequent statements run on the pinned connection
	if _, err := b.Exec(ctx, "SELECT * FROM hq_temp_1"); err != nil {
		t.Fatal(err)
	}
	pinned := d.conns[len(d.conns)-1]
	pinned.mu.Lock()
	last := pinned.execs[len(pinned.execs)-1]
	pinned.mu.Unlock()
	if last != "SELECT * FROM hq_temp_1" {
		t.Fatalf("follow-up statement ran elsewhere: %q", last)
	}
	// closing the session retires (closes) the pinned connection
	b.Close()
	if !pinned.isClosed() {
		t.Fatal("pinned connection must be retired on session close, not recycled")
	}
	if st := p.Stats(); st.InUse != 0 {
		t.Fatalf("slot not released on close: %+v", st)
	}
}

func TestSessionBackendLostPinnedConn(t *testing.T) {
	d := &dialer{}
	p := New(Config{Size: 2, Dial: d.dial})
	b := p.SessionBackend()
	if _, err := b.Exec(ctx, "CREATE TEMP TABLE t AS SELECT 1"); err != nil {
		t.Fatal(err)
	}
	pinned := d.conns[0]
	pinned.mu.Lock()
	pinned.execErr = &net.OpError{Op: "read", Err: io.EOF}
	pinned.mu.Unlock()
	if _, err := b.Exec(ctx, "SELECT * FROM t"); err == nil {
		t.Fatal("broken transport should surface")
	}
	if _, err := b.Exec(ctx, "SELECT 1"); !errors.Is(err, ErrSessionConnLost) {
		t.Fatalf("err = %v, want ErrSessionConnLost", err)
	}
	if st := p.Stats(); st.InUse != 0 {
		t.Fatalf("broken pinned connection should release its slot: %+v", st)
	}
	b.Close()
}

// panicSink is a core.RowSink that panics when the result ends.
type panicSink struct{}

func (panicSink) Schema([]core.BackendCol, int) error { return nil }
func (panicSink) WireBatch(*pgv3.Batch) error         { return nil }
func (panicSink) Tag(string)                          { panic("sink bug") }

// execPanics runs sql through b.ExecStream into a panicking sink and
// reports whether the panic reached the caller.
func execPanics(b *SessionBackend, sql string) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	b.ExecStream(ctx, sql, panicSink{})
	return false
}

// TestSessionBackendPanicDiscardsConn: a panic that unwinds a statement
// closes its connection and frees its slot, so a pool of one still serves;
// a pinned connection so lost marks the session lost.
func TestSessionBackendPanicDiscardsConn(t *testing.T) {
	d := &dialer{}
	p := New(Config{Size: 1, Dial: d.dial, CheckoutTimeout: time.Second})
	b := p.SessionBackend()
	if !execPanics(b, "SELECT 1") {
		t.Fatal("the sink's panic did not reach the caller")
	}
	if st := p.Stats(); st.InUse != 0 || st.Discards != 1 || !d.conns[0].isClosed() {
		t.Fatalf("after a panic mid-statement: %+v, closed %v; want the connection discarded and its slot free",
			st, d.conns[0].isClosed())
	}
	if _, err := b.Exec(ctx, "SELECT 2"); err != nil {
		t.Fatal(err)
	}
	if d.count() != 2 {
		t.Fatalf("dials = %d, want 2 (the panicked connection is not reused)", d.count())
	}

	if _, err := b.Exec(ctx, "CREATE TEMP TABLE t AS SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if !execPanics(b, "SELECT * FROM t") {
		t.Fatal("the sink's panic did not reach the caller")
	}
	if _, err := b.Exec(ctx, "SELECT 3"); !errors.Is(err, ErrSessionConnLost) {
		t.Fatalf("err = %v, want ErrSessionConnLost", err)
	}
	if st := p.Stats(); st.InUse != 0 || !d.conns[1].isClosed() {
		t.Fatalf("pinned connection lost to a panic still held: %+v", st)
	}
	b.Close()
	if _, err := p.SessionBackend().Exec(ctx, "SELECT 4"); err != nil {
		t.Fatal(err)
	}
}

func TestConnBrokenClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{&pgv3.ServerError{Severity: "ERROR", Code: "42P01", Message: "no such table"}, false},
		{errors.New("pgdb: syntax error"), false},
		{io.EOF, true},
		{io.ErrUnexpectedEOF, true},
		{net.ErrClosed, true},
		{&net.OpError{Op: "read", Err: errors.New("reset")}, true},
		{fmt.Errorf("query: %w", io.EOF), true},
	}
	for _, tc := range cases {
		if got := connBroken(tc.err); got != tc.want {
			t.Errorf("connBroken(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestConcurrentSessionsShareBoundedPool(t *testing.T) {
	d := &dialer{}
	p := New(Config{Size: 3, Dial: d.dial, CheckoutTimeout: 5 * time.Second})
	var wg sync.WaitGroup
	var errs atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := p.SessionBackend()
			defer b.Close()
			for i := 0; i < 50; i++ {
				if _, err := b.Exec(ctx, "SELECT 1"); err != nil {
					errs.Add(1)
					return
				}
			}
		}()
	}
	wg.Wait()
	if errs.Load() != 0 {
		t.Fatalf("%d sessions failed", errs.Load())
	}
	if d.count() > 3 {
		t.Fatalf("dials = %d, bound %d violated", d.count(), 3)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
