package gateway

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/pgdb"
	"hyperq/internal/pool"
	"hyperq/internal/wire/pgv3"
)

// countSink counts a streamed result's rows and its batches; onBatch, when
// set, runs on each batch.
type countSink struct {
	rows    int
	batches []int // each batch's row count
	onBatch func()
}

func (s *countSink) Schema([]core.BackendCol, int) error { return nil }
func (s *countSink) Tag(string)                          {}
func (s *countSink) WireBatch(b *pgv3.Batch) error {
	s.rows += b.Rows()
	s.batches = append(s.batches, b.Rows())
	if s.onBatch != nil {
		s.onBatch()
	}
	return nil
}

// wideDB holds table t with 5000 rows of about 40 bytes each: a result of
// ~200 KB, several of pgv3's 64 KB server flushes.
func wideDB(t *testing.T) *pgdb.DB {
	t.Helper()
	db := pgdb.NewDB()
	gw, err := Pipe(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if _, err := gw.Exec(ctx, "CREATE TABLE t (a bigint, b varchar)"); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < 5000; lo += 500 {
		var vals []string
		for i := lo; i < lo+500; i++ {
			vals = append(vals, fmt.Sprintf("(%d, 'row %024d')", i, i))
		}
		if _, err := gw.Exec(ctx, "INSERT INTO t VALUES "+strings.Join(vals, ", ")); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestPipeExtendedBatchAcrossReadBuffer sweeps the SQL text's length so
// the extended-cycle batch's Execute/Sync boundary crosses the server's
// 4 KB read-buffer edge, each on a fresh connection, against a result that
// flushes mid-Execute. Over a connection whose writes do not buffer
// (net.Pipe) some of these lengths deadlock: the server blocks writing rows
// while the client still blocks writing Sync.
func TestPipeExtendedBatchAcrossReadBuffer(t *testing.T) {
	db := wideDB(t)
	const prefix = "SELECT a, b FROM t WHERE b <> '"
	for n := 4040; n <= 4070; n++ {
		sql := prefix + strings.Repeat("x", n-len(prefix)-1) + "'"
		gw, err := Pipe(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		var sink countSink
		err = gw.ExecStream(qctx, sql, &sink)
		cancel()
		gw.Close()
		if err != nil || sink.rows != 5000 {
			t.Fatalf("%d-byte SQL: %d rows, %v", len(sql), sink.rows, err)
		}
	}
}

// TestPipeCloseWaitsForServer: Close returns after the server goroutine
// has, so a database closed next never races the served session.
func TestPipeCloseWaitsForServer(t *testing.T) {
	gw, err := Pipe(ctx, pgdb.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Exec(ctx, "CREATE TEMPORARY TABLE tt AS SELECT 1 AS x"); err != nil {
		t.Fatal(err)
	}
	gw.Close()
	select {
	case <-gw.served:
	default:
		t.Fatal("Close returned while the server goroutine was still running")
	}
}

// TestPipeCancelMidResult: canceling a request while its result streams in
// fails the statement with an error satisfying errors.Is(err,
// context.Canceled), and the pool discards the connection rather than
// reuse one with half a reply on it. The client abandons the reply at the
// first batch boundary after the cancellation (pgv3.ErrAbandoned), so the
// batch that canceled lands and no later one does, and the discard does not
// depend on whether the reply could have drained first.
func TestPipeCancelMidResult(t *testing.T) {
	db := wideDB(t)
	p := pool.New(pool.Config{
		Size: 1,
		Dial: func(context.Context) (pool.Conn, error) { return Pipe(ctx, db) },
	})
	defer p.Close()
	b := p.SessionBackend()
	defer b.Close()

	qctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sink := countSink{onBatch: cancel}
	err := b.ExecStream(qctx, "SELECT a, b FROM t", &sink)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled mid-result: %v after %d rows, want context.Canceled", err, sink.rows)
	}
	if len(sink.batches) != 1 || sink.rows >= 5000 {
		t.Fatalf("%d rows delivered in batches %v, want only the first batch, the one that canceled", sink.rows, sink.batches)
	}
	if d := p.Stats().Discards; d != 1 {
		t.Fatalf("pool discarded %d connections, want the canceled one", d)
	}
	// the pool dials a fresh connection for the next statement
	var again countSink
	if err := b.ExecStream(ctx, "SELECT a FROM t WHERE a < 10", &again); err != nil || again.rows != 10 {
		t.Fatalf("after the discard: %d rows, %v", again.rows, err)
	}
}
