package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/pool"
)

// span is one timed interval at a layer boundary. Every span is opened and
// closed by code in this directory, around a call into an exported function
// of the layer it is named after; spans inside the program are a later
// change. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`    // spans of one request share it
	ID     int32  `json:"id"`     // position among the request's spans
	Parent int32  `json:"parent"` // ID of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Derived marks a span whose duration was measured (RunStats.Stages) but
	// whose position inside its parent was not: stages are laid end to end
	// from the parent's start.
	Derived bool `json:"derived,omitempty"`
}

// reqTrace collects the spans of one request. A request is handled by one
// goroutine at a time (client, then handler, then client again), but the
// hand-over crosses a socket the race detector cannot see, hence the lock.
type reqTrace struct {
	mu    sync.Mutex
	tr    *tracer
	id    int64
	spans []span
	open  []int32 // stack of open span IDs
	stats *core.RunStats
}

// begin opens a span under the innermost open one.
func (r *reqTrace) begin(name string) int32 {
	now := r.tr.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Req: r.id, ID: id, Parent: parent, Start: now})
	r.open = append(r.open, id)
	return id
}

// end closes the span and every span opened inside it that is still open.
func (r *reqTrace) end(id int32) {
	now := r.tr.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	for n := len(r.open); n > 0; n-- {
		if r.open[n-1] == id {
			r.open = r.open[:n-1]
			break
		}
	}
}

// derived adds a closed child span of known duration at a given offset.
func (r *reqTrace) derived(name string, parent int32, start int64, d time.Duration) int64 {
	if d <= 0 {
		return start
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Req: r.id, ID: int32(len(r.spans)), Parent: parent,
		Start: start, End: start + int64(d), Derived: true})
	return start + int64(d)
}

// tracer holds every request's spans in memory until the run ends.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	// current is each client's request in flight: the client publishes it
	// before sending, the client's handler picks it up
	current []atomic.Pointer[reqTrace]
	nextReq atomic.Int64

	mu   sync.Mutex
	done []*reqTrace
}

func newTracer(clients int) *tracer {
	return &tracer{epoch: time.Now(), current: make([]atomic.Pointer[reqTrace], clients)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newRequest(client int) *reqTrace {
	r := &reqTrace{tr: t, id: t.nextReq.Add(1)}
	t.current[client].Store(r)
	return r
}

func (t *tracer) finish(r *reqTrace) {
	t.mu.Lock()
	t.done = append(t.done, r)
	t.mu.Unlock()
}

// spans returns every recorded span, request by request.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, r := range t.done {
		out = append(out, r.spans...)
	}
	return out
}

// traceFileRequests caps the trace file: point_lookups answers tens of
// thousands of requests, ten spans each. The metrics use every span; the file
// keeps the first requests.
const traceFileRequests = 2000

func (t *tracer) write(path string) error {
	t.mu.Lock()
	var out []span
	for i, r := range t.done {
		if i == traceFileRequests {
			break
		}
		out = append(out, r.spans...)
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover. Children of one parent run one after another here, so the
// covered part is the sum of their durations, capped at the parent's own.
func selfTimes(spans []span) map[string]time.Duration {
	type key struct {
		req int64
		id  int32
	}
	covered := map[key]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[key{s.Req, s.Parent}] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		d := s.End - s.Start
		c := covered[key{s.Req, s.ID}]
		if c > d {
			c = d
		}
		out[s.Name] += time.Duration(d - c)
	}
	return out
}

// totals sums span durations per name.
func totals(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}

// --- decorators around the layers' exported entry points -------------------

type reqKey struct{}

// reqFrom finds the request a backend call belongs to; nil when tracing is
// off or the call is not part of a client request (metadata lookups).
func reqFrom(ctx context.Context) *reqTrace {
	r, _ := ctx.Value(reqKey{}).(*reqTrace)
	return r
}

// tracedBackend wraps one session's pool.SessionBackend: its span is the
// time from asking the pool for a connection to the last row in the sink.
type tracedBackend struct {
	*pool.SessionBackend
}

func (b tracedBackend) Exec(ctx context.Context, sql string) (*core.BackendResult, error) {
	if r := reqFrom(ctx); r != nil {
		defer r.end(r.begin("pool.session_exec"))
	}
	return b.SessionBackend.Exec(ctx, sql)
}

func (b tracedBackend) ExecStream(ctx context.Context, sql string, sink core.RowSink) error {
	if r := reqFrom(ctx); r != nil {
		defer r.end(r.begin("pool.session_exec"))
	}
	return b.SessionBackend.ExecStream(ctx, sql, sink)
}

// tracedConn wraps one pooled gateway connection: its span is one PG v3
// round trip, from the Query message to ReadyForQuery, including the text
// rows being parsed into the sink's column builders.
type tracedConn struct {
	pool.Conn
}

func (c tracedConn) Exec(ctx context.Context, sql string) (*core.BackendResult, error) {
	if r := reqFrom(ctx); r != nil {
		defer r.end(r.begin("gateway.exec"))
	}
	return c.Conn.Exec(ctx, sql)
}

func (c tracedConn) ExecStream(ctx context.Context, sql string, sink core.RowSink) error {
	if r := reqFrom(ctx); r != nil {
		defer r.end(r.begin("gateway.exec"))
	}
	return c.Conn.(core.StreamBackend).ExecStream(ctx, sql, sink)
}
