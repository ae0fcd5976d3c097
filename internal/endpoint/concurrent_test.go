// Concurrent serving-runtime integration test: many QIPC clients in
// parallel through the endpoint, the cross compiler, and a *pooled* PG v3
// gateway to the backend database — every byte over real TCP sockets, all
// sessions sharing one process-wide translation cache and MDI. Results are
// verified side by side against the Q interpreter (paper §5).
package endpoint

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/mdi"
	"hyperq/internal/pgdb"
	"hyperq/internal/pool"
	"hyperq/internal/qcache"
	"hyperq/internal/qlang/interp"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/sidebyside"
	"hyperq/internal/taq"
	"hyperq/internal/wire/pgv3"
	"hyperq/internal/wire/qipc"
	"hyperq/internal/xc"
)

// startPooledStack is startStack with the production serving runtime: the
// per-connection sessions share a bounded gateway pool, one translation
// cache and one MDI instead of dialing a dedicated backend connection each.
func startPooledStack(t *testing.T, data *taq.Data, poolSize int) (addr string, p *pool.Pool, cache *qcache.Cache) {
	t.Helper()
	db := pgdb.NewDB()
	loader, err := gateway.Pipe(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	defer loader.Close()
	for _, tb := range []struct {
		name string
		tbl  *qval.Table
	}{{"trades", data.Trades}, {"quotes", data.Quotes}, {"daily", data.Daily}} {
		if err := core.LoadQTable(context.Background(), loader, tb.name, tb.tbl); err != nil {
			t.Fatal(err)
		}
	}
	pgL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pgL.Close() })
	go pgdb.Serve(context.Background(), pgL, db, pgdb.AuthConfig{
		Method: pgv3.AuthMethodMD5,
		Users:  map[string]string{"hq": "pw"},
	})

	p = pool.New(pool.Config{
		Size: poolSize,
		Dial: func(ctx context.Context) (pool.Conn, error) {
			return gateway.Dial(ctx, pgL.Addr().String(), "hq", "pw", "db")
		},
		HealthCheck:  true,
		QueryTimeout: 10 * time.Second,
		Logf:         t.Logf,
	})
	cache = qcache.New(256)
	sharedMDI := mdi.New(p.SessionBackend(), mdi.WithTTL(time.Minute))

	platform := core.NewPlatform()
	qL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { qL.Close() })
	go Serve(context.Background(), qL, Config{
		NewHandler: func(creds *qipc.Credentials) (Handler, func(), error) {
			session := platform.NewSession(p.SessionBackend(), core.Config{
				MDI:   sharedMDI,
				Cache: cache,
			})
			compiler := xc.New(session)
			return HandlerFunc(func(ctx context.Context, q string) (qval.Value, error) {
				v, _, err := compiler.HandleQuery(ctx, q)
				return v, err
			}), func() { session.Close() }, nil
		},
	})
	return qL.Addr().String(), p, cache
}

// TestConcurrentClientsPooledGateway drives 16 parallel QIPC clients
// through the shared serving runtime (pool smaller than the client count,
// so checkouts contend) and verifies every wire result against the Q
// interpreter evaluating the same query over the same data.
func TestConcurrentClientsPooledGateway(t *testing.T) {
	data := taq.Generate(taq.Config{Seed: 11, Trades: 300, Quotes: 600, WideCols: 4,
		Symbols: []string{"AAPL", "IBM", "GOOG"}})
	const clients = 16
	const poolSize = 4
	addr, p, cache := startPooledStack(t, data, poolSize)

	// deterministic, side-effect-free queries: plain selects preserve row
	// order, by-aggregations group identically in both engines
	queries := []string{
		"select from trades",
		"select Price, Size from trades where Symbol=`AAPL",
		"select from trades where Price>100, Size>2000",
		"select from quotes where Symbol=`IBM",
		"select sum Size from trades",
		"select max Price, min Price from trades",
		"select avg Price from trades where Symbol=`GOOG",
		"select n:count Price by Symbol from trades",
		"select h:max Price, l:min Price by Symbol from trades",
	}

	// reference results, computed serially with the Q interpreter
	kdb := interp.New()
	kdb.SetGlobal("trades", data.Trades)
	kdb.SetGlobal("quotes", data.Quotes)
	kdb.SetGlobal("daily", data.Daily)
	expected := make([]qval.Value, len(queries))
	for i, q := range queries {
		v, err := kdb.Eval(q)
		if err != nil {
			t.Fatalf("interpreter rejects %q: %v", q, err)
		}
		expected[i] = v
	}

	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %v", c, err)
				return
			}
			defer conn.Close()
			if err := qipc.ClientHandshake(conn, fmt.Sprintf("app%d", c), ""); err != nil {
				errs <- fmt.Errorf("client %d: handshake: %v", c, err)
				return
			}
			// stagger starting offsets so distinct queries overlap in flight
			for r := 0; r < rounds; r++ {
				for i := range queries {
					qi := (c + r + i) % len(queries)
					if err := qipc.WriteMessage(conn, qipc.Sync, qval.CharVec(queries[qi])); err != nil {
						errs <- fmt.Errorf("client %d: write: %v", c, err)
						return
					}
					msg, err := qipc.ReadMessage(conn)
					if err != nil {
						errs <- fmt.Errorf("client %d: read: %v", c, err)
						return
					}
					if msg.Type != qipc.Response {
						errs <- fmt.Errorf("client %d: message type %v", c, msg.Type)
						return
					}
					if qe, ok := msg.Value.(*qval.QError); ok {
						errs <- fmt.Errorf("client %d: query %q returned error %q", c, queries[qi], qe.Msg)
						return
					}
					if diffs := sidebyside.Diff(expected[qi], msg.Value, 1e-9); len(diffs) > 0 {
						errs <- fmt.Errorf("client %d: query %q diverges from interpreter: %v", c, queries[qi], diffs)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// the shared cache translated each distinct query once; everything else
	// was a hit or a deduplicated in-flight share
	cst := cache.Stats()
	if cst.Misses != int64(len(queries)) {
		t.Errorf("cache misses = %d, want %d (one per distinct query)", cst.Misses, len(queries))
	}
	want := int64(clients*rounds*len(queries) - len(queries))
	if cst.Hits+cst.Dedups != want {
		t.Errorf("hits+dedups = %d+%d, want %d", cst.Hits, cst.Dedups, want)
	}
	if cst.Entries != len(queries) {
		t.Errorf("cache entries = %d, want %d", cst.Entries, len(queries))
	}

	// the backend fan-out stayed bounded: 16 clients never grew more than
	// poolSize connections
	pst := p.Stats()
	if pst.Dials > int64(poolSize) {
		t.Errorf("pool dialed %d connections, bound is %d", pst.Dials, poolSize)
	}
	if pst.Dials == 0 {
		t.Error("pool never dialed — queries did not reach the gateway")
	}

	// graceful drain: sessions hold no connection between statements, so
	// Close must succeed once in-flight work finishes
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := p.Close(); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("pool drain: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
