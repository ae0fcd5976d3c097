package pgdb_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/pgdb"
	"hyperq/internal/wire/pgv3"
)

// snapshotSink checks a streamed SELECT id, v, pad, z result as it arrives:
// ids 0, 1, 2, ... in order, one v across every row, each row's pad naming
// its id, and z either NULL or the id.
type snapshotSink struct {
	cols []core.BackendCol
	rows int
	v    int64
	err  error
}

func (s *snapshotSink) Schema(cols []core.BackendCol, _ int) error {
	s.cols = append(s.cols[:0], cols...)
	s.rows, s.err = 0, nil
	return nil
}

func (s *snapshotSink) Tag(string) {}

func (s *snapshotSink) int(j int, cell []byte) int64 {
	if s.cols[j].Binary {
		return int64(binary.BigEndian.Uint64(cell))
	}
	n, _ := strconv.ParseInt(string(cell), 10, 64)
	return n
}

func (s *snapshotSink) WireBatch(b *pgv3.Batch) error {
	for i := range b.Rows() {
		id, v := s.int(0, b.Cell(i, 0)), s.int(1, b.Cell(i, 1))
		if s.rows == 0 {
			s.v = v
		}
		pad, z := b.Cell(i, 2), b.Cell(i, 3)
		zOK := z == nil || s.int(3, z) == id
		if s.err == nil && (id != int64(s.rows) || v != s.v || string(pad) != padOf(id) || !zOK) {
			s.err = fmt.Errorf("row %d is (%d, %d, %q, %q) in a result whose first row has v=%d", s.rows, id, v, pad, z, s.v)
		}
		s.rows++
	}
	return nil
}

func padOf(id int64) string { return fmt.Sprintf("row %024d", id) }

// TestStreamedResultIsSnapshot: a SELECT's result is written to the wire
// after the statement lock is released, so it must not share the vectors
// that a later INSERT appends to: an append writes the tail segment's typed
// cells past the reader's length, but its null word and zone bounds in
// place. One connection streams a result of more than 64 KB (several server
// flushes) over the table, directly and through a hash join that shares the
// table's vectors, while another appends rows to the tail segment in a
// loop. Column z holds NULLs from the start and every appended row is NULL
// in it, so each append sets a bit in the null word the reader's last rows
// live in. Every streamed result is one state of the table — ids contiguous
// from 0, each pad naming its id — never a mix. Run under -race: with the
// top-level projection left as a view of the table's vectors (viewOf), or
// with the join's shared columns not marked shared, the race detector
// reports the writer's setNullBit against the reader's writeStore.
func TestStreamedResultIsSnapshot(t *testing.T) {
	ctx := context.Background()
	db := pgdb.NewDB()
	w, err := gateway.Pipe(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n = 3000
	if _, err := w.Exec(ctx, "CREATE TABLE t (id bigint, v bigint, pad varchar, z bigint)"); err != nil {
		t.Fatal(err)
	}
	var vals []string
	for i := range n {
		z := strconv.Itoa(i)
		if i%2 == 0 {
			z = "NULL"
		}
		vals = append(vals, fmt.Sprintf("(%d, 0, '%s', %s)", i, padOf(int64(i)), z))
	}
	if _, err := w.Exec(ctx, "INSERT INTO t VALUES "+strings.Join(vals, ", ")); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{"CREATE TABLE u (id bigint, w bigint)", "INSERT INTO u VALUES (1, 10), (2, 20)"} {
		if _, err := w.Exec(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}
	r, err := gateway.Pipe(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	stop := make(chan struct{})
	writer := make(chan error, 1)
	go func() {
		defer close(writer)
		for id := int64(n); id < 2*n; id++ {
			select {
			case <-stop:
				return
			default:
			}
			sql := fmt.Sprintf("INSERT INTO t VALUES (%d, 0, '%s', NULL)", id, padOf(id))
			if _, err := w.Exec(ctx, sql); err != nil {
				writer <- err
				return
			}
		}
	}()
	var sink snapshotSink
	for k := range 30 {
		sql := "SELECT id, v, pad, z FROM t ORDER BY id"
		if k%2 == 1 {
			sql = "SELECT id, v, pad, z FROM (SELECT t.id, t.v, t.pad, t.z, u.w FROM t LEFT JOIN u ON t.id = u.id) j ORDER BY id"
		}
		if err := r.ExecStream(ctx, sql, &sink); err != nil {
			t.Fatal(err)
		}
		if sink.err != nil {
			t.Fatal(sink.err)
		}
		if sink.rows < n || sink.rows > 2*n {
			t.Fatalf("%d rows", sink.rows)
		}
	}
	close(stop)
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
}
