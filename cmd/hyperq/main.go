// Command hyperq runs the Hyper-Q data virtualization proxy (paper Figure
// 1): it listens on the port a kdb+ server would use, speaks QIPC to Q
// applications, translates their queries to SQL, and executes them on a
// PostgreSQL-compatible backend over the PG v3 protocol. Q applications run
// unchanged; only their connection target moves from kdb+ to Hyper-Q.
//
// Two backend modes:
//
//	-backend host:port   connect to a PG v3 server (cmd/pgserver or a real
//	                      PostgreSQL-compatible database)
//	-embedded            run the embedded engine in-process (demo mode,
//	                      preloaded with synthetic TAQ data)
//
// The serving runtime is concurrent: all sessions share one bounded pool of
// backend connections (-pool-size), one query-translation cache
// (-cache-entries) and one metadata cache, so N clients replaying the same
// workload cost one translation per distinct query and at most -pool-size
// backend connections. SIGINT/SIGTERM starts a graceful drain: the listener
// closes immediately, in-flight requests get -drain-timeout to finish, then
// their contexts are canceled and the pool drains.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hyperq/internal/config"
	"hyperq/internal/core"
	"hyperq/internal/endpoint"
	"hyperq/internal/gateway"
	"hyperq/internal/mdi"
	"hyperq/internal/pool"
	"hyperq/internal/qcache"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/taq"
	"hyperq/internal/wire/qipc"
	"hyperq/internal/workload"
	"hyperq/internal/xc"
)

// options is the parsed command line; the embedded engine's share of it is
// declared in internal/config.
type options struct {
	engine                       config.Engine
	listen, backend              string
	embedded                     bool
	bUser, bPass, bDB            string
	qUser, qPass                 string
	trades                       int
	mdiTTL                       time.Duration
	poolSize, cacheEntries       int
	queryTimeout, requestTimeout time.Duration
	drainTimeout                 time.Duration
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.listen, "listen", "127.0.0.1:5010", "QIPC address to listen on (the kdb+ port)")
	fs.StringVar(&o.backend, "backend", "", "PG v3 backend address (host:port)")
	fs.BoolVar(&o.embedded, "embedded", false, "use the embedded engine instead of a networked backend")
	fs.StringVar(&o.bUser, "backend-user", "hyperq", "backend user")
	fs.StringVar(&o.bPass, "backend-password", "hyperq", "backend password")
	fs.StringVar(&o.bDB, "backend-db", "hyperq", "backend database name")
	fs.StringVar(&o.qUser, "q-user", "", "required Q client user (empty accepts all)")
	fs.StringVar(&o.qPass, "q-password", "", "required Q client password")
	fs.IntVar(&o.trades, "trades", 10000, "embedded demo trade count")
	fs.DurationVar(&o.mdiTTL, "mdi-ttl", 5*time.Minute, "metadata cache expiration")
	fs.IntVar(&o.poolSize, "pool-size", 4, "max pooled backend connections shared by all sessions")
	fs.IntVar(&o.cacheEntries, "cache-entries", 1024, "query-translation cache capacity (0 disables)")
	fs.DurationVar(&o.queryTimeout, "query-timeout", 0, "per-query backend deadline (0 disables)")
	fs.DurationVar(&o.requestTimeout, "request-timeout", 0, "end-to-end per-request deadline (0 disables)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 5*time.Second, "grace window for in-flight requests on shutdown")
	o.engine.RegisterFlags(fs)
	return o
}

// validate checks the parsed flags of fs before anything is opened. A flag
// given on a path that would ignore it is an error, not a no-op.
func (o *options) validate(fs *flag.FlagSet) error {
	ignored := config.Explicit(fs)
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "trades" {
			ignored = append(ignored, "-trades")
		}
	})
	switch {
	case o.embedded == (o.backend != ""):
		return errors.New("exactly one of -backend or -embedded is required")
	case !o.embedded && len(ignored) > 0:
		return fmt.Errorf("%s: embedded-engine settings need -embedded", strings.Join(ignored, ", "))
	}
	return o.engine.Validate(fs)
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := o.validate(flag.CommandLine); err != nil {
		fmt.Fprintln(os.Stderr, "hyperq:", err)
		os.Exit(2)
	}
	// ctx is the server's life: SIGINT/SIGTERM cancels it, starting the drain
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		log.Fatal(err)
	}
}

// run serves until ctx is canceled. Every exit, a startup failure included,
// goes through the deferred closes, so a durable store is always left
// checkpointed.
func run(ctx context.Context, o *options) (err error) {
	platform := core.NewPlatform()
	var eng *config.Instance
	if o.embedded {
		if eng, err = o.engine.Open(); err != nil {
			return err
		}
		defer func() {
			if cerr := eng.Close(); err == nil {
				err = cerr
			}
		}()
		if eng.StatsAddr != "" {
			log.Printf("stats on http://%s/debug/vars", eng.StatsAddr)
		}
		if eng.Restored {
			log.Printf("embedded backend restored from %s", o.engine.DataDir)
		} else {
			loader, err := gateway.Pipe(ctx, eng.DB)
			if err != nil {
				return err
			}
			data, err := workload.Setup(ctx, loader, taq.Config{Seed: 1, Trades: o.trades})
			loader.Close()
			if err != nil {
				return err
			}
			log.Printf("embedded backend ready with demo TAQ data (%d trades)", data.Trades.Len())
		}
	}

	backendPool := pool.New(pool.Config{
		Size: o.poolSize,
		Dial: func(ctx context.Context) (pool.Conn, error) {
			if eng != nil {
				// the served session outlives this checkout's context: the
				// pool's Close ends it
				return gateway.Pipe(context.Background(), eng.DB)
			}
			return gateway.Dial(ctx, o.backend, o.bUser, o.bPass, o.bDB)
		},
		QueryTimeout: o.queryTimeout,
		HealthCheck:  true,
		DrainTimeout: o.drainTimeout,
		Logf:         log.Printf,
	})
	defer func() {
		if cerr := backendPool.Close(); cerr != nil {
			log.Printf("pool drain: %v", cerr)
		}
	}()

	// process-wide serving state shared by every session: the metadata
	// cache (safe for concurrent use) and the query-translation cache
	var cache *qcache.Cache
	if o.cacheEntries > 0 {
		cache = qcache.New(o.cacheEntries)
	}
	mdiBackend := backendPool.SessionBackend()
	defer func() {
		if cerr := mdiBackend.Close(); cerr != nil {
			log.Printf("mdi backend close: %v", cerr)
		}
	}()
	sharedMDI := mdi.New(mdiBackend, mdi.WithTTL(o.mdiTTL))
	if eng != nil && eng.Store != nil && eng.Store.ReplayedChanges() {
		// the WAL replay moved the catalog past the last checkpoint: any
		// metadata or translation cached against the old state is stale
		sharedMDI.InvalidateAll()
		log.Printf("persist: WAL replay changed the catalog; metadata cache invalidated")
	}

	auth := func(user, password string) bool {
		if o.qUser == "" {
			return true
		}
		return user == o.qUser && password == o.qPass
	}

	l, err := net.Listen("tcp", o.listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}

	log.Printf("hyperq listening on %s (QIPC); backend=%s pool=%d cache=%d",
		o.listen, backendDesc(o.embedded, o.backend), o.poolSize, o.cacheEntries)
	err = endpoint.Serve(ctx, l, endpoint.Config{
		Auth: auth,
		NewHandler: func(creds *qipc.Credentials) (endpoint.Handler, func(), error) {
			session := platform.NewSession(backendPool.SessionBackend(), core.Config{MDI: sharedMDI, Cache: cache})
			compiler := xc.New(session)
			h := endpoint.HandlerFunc(func(ctx context.Context, q string) (qval.Value, error) {
				v, _, err := compiler.HandleQuery(ctx, q)
				return v, err
			})
			return h, func() { session.Close() }, nil
		},
		RequestTimeout: o.requestTimeout,
		DrainTimeout:   o.drainTimeout,
		Logf:           log.Printf,
	})
	if err != nil {
		log.Printf("serve: %v", err)
	}
	if cache != nil {
		cs := cache.Stats()
		log.Printf("qcache: %d entries, %d hits, %d misses, %d dedups, %d evictions",
			cs.Entries, cs.Hits, cs.Misses, cs.Dedups, cs.Evictions)
	}
	ps := backendPool.Stats()
	log.Printf("pool: %d dials (%d errors), %d checkouts, %d health failures (%d checks skipped), %d discards",
		ps.Dials, ps.DialErrors, ps.Checkouts, ps.HealthFailures, ps.HealthChecksSkipped, ps.Discards)
	return nil
}

func backendDesc(embedded bool, addr string) string {
	if embedded {
		return "embedded"
	}
	return addr
}
