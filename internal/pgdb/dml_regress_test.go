package pgdb

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Regression tests for the DML-correctness sweep: zone maps must stay
// sound (never prune a matching row) as INSERTs widen them, and concurrent
// scans must never observe a half-applied statement.

// TestVectorizedPruneAfterDML: after INSERTs widen the tail segment's zone
// below and above every earlier segment's, and NULLs land beside them, the
// compiled engine's vector scans must agree with the interpreter exactly —
// pruning may only skip segments that cannot match.
func TestVectorizedPruneAfterDML(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (a bigint, b varchar)")
	for i := 0; i < 2*segSize; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, 'g%d')", i, i%5))
	}
	for i := 0; i < segSize+7; i++ {
		a := fmt.Sprint(i - segSize)
		if i%97 == 0 {
			a = "NULL"
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%s, 'g%d'), (%d, NULL)", a, i%3, 3*segSize+i))
	}

	queries := []string{
		fmt.Sprintf("SELECT count(*) FROM t WHERE a < %d", segSize/2),
		fmt.Sprintf("SELECT count(*), sum(a) FROM t WHERE a >= %d", segSize),
		"SELECT count(*) FROM t WHERE a < 0",
		fmt.Sprintf("SELECT sum(a) FROM t WHERE a = %d", segSize+1),
		"SELECT b, count(*) FROM t WHERE a > 100 GROUP BY b ORDER BY b",
	}
	for _, q := range queries {
		db.SetExecMode(ExecInterpreted)
		want := mustExec(t, s, q).Rows
		db.SetExecMode(ExecCompiled)
		got := mustExec(t, s, q).Rows
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("%s:\n compiled %v\n interpreter %v", q, got, want)
		}
	}
}

// TestConcurrentDMLAndScans is the -race torture test for the stale-read
// window: writers hammer multi-row INSERTs while readers run vectorized
// scans from their own sessions. Every scan must observe a
// statement-consistent snapshot — aggregate invariants that every writer
// preserves can never be seen violated.
func TestConcurrentDMLAndScans(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (a bigint, bal bigint)")
	const rows = 3 * segSize
	for i := 0; i < rows; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, 100)", i))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 16)

	// Writers: each statement appends a pair of rows whose balances sum to
	// 200, so every statement boundary has an even count and
	// sum(bal) == 100*count(*).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.NewSession()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, d := rows+rng.Intn(1000), rng.Intn(100)
				sql := fmt.Sprintf("INSERT INTO t VALUES (%d, %d), (%d, %d)", a, 100+d, a+1, 100-d)
				if _, err := sess.Exec(sql); err != nil {
					errCh <- fmt.Errorf("writer: %s: %w", sql, err)
					return
				}
			}
		}(w)
	}

	// Readers: a torn statement shows as an odd count or a balance sum off
	// its 100-per-row invariant.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := sess.Exec("SELECT count(*), sum(bal), min(a), max(a) FROM t WHERE bal <> 0")
				if err != nil {
					errCh <- fmt.Errorf("reader: %w", err)
					return
				}
				n, sum := res.Rows[0][0].(int64), res.Rows[0][1].(int64)
				if n < rows || n%2 != 0 || sum != 100*n {
					errCh <- fmt.Errorf("scan saw a torn insert: count %d, sum(bal) %d", n, sum)
					return
				}
			}
		}()
	}

	for i := 0; i < 200; i++ {
		res, err := s.Exec("SELECT count(*) FROM t")
		if err != nil {
			t.Fatalf("main scan: %v", err)
		}
		if res.Rows[0][0].(int64) < rows {
			t.Fatalf("main scan lost rows")
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}
