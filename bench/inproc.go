package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/endpoint"
	"hyperq/internal/gateway"
	"hyperq/internal/mdi"
	"hyperq/internal/persist"
	"hyperq/internal/pgdb"
	"hyperq/internal/pool"
	"hyperq/internal/qcache"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/wire/pgv3"
	"hyperq/internal/wire/qipc"
	"hyperq/internal/xc"
)

// The defaults of cmd/pgserver and cmd/hyperq, restated: the in-process
// stack must be the stack a user gets from the two binaries. The traced run
// compares the two topologies' warm-up replies byte for byte, so a default
// that changes in a main and not here is caught on the next run.
const (
	defaultPoolSize     = 4
	defaultCacheEntries = 1024
	defaultMDITTL       = 5 * time.Minute
	defaultDrain        = 5 * time.Second
)

// inprocStack is the same pipeline as procStack inside this process:
// pgdb.DB (+ persist) behind pgdb.Serve on loopback, and a pool of gateway
// connections, one core.Session per QIPC connection and a shared
// translation cache behind endpoint.Serve on loopback. Its only additions
// are the span decorators of trace.go.
type inprocStack struct {
	dir     string // data directory; "" for a memory-only backend
	durable bool
	tr      *tracer

	db         *pgdb.DB
	store      *persist.Store
	coldOpenMs float64
	pgAddr     string
	pgCancel   context.CancelFunc
	pgDone     chan struct{}

	pool     *pool.Pool
	cache    *qcache.Cache
	mdiConn  *pool.SessionBackend
	hqCancel context.CancelFunc
	hqDone   chan struct{}
}

func (p *inprocStack) startBackend(budget int64) (string, error) {
	db := pgdb.NewDB()
	db.SetExecMode(pgdb.ExecCompiled)
	db.SetParallelism(1)
	db.SetIndexMinRows(pgdb.DefaultIndexMinRows)
	p.db, p.store = db, nil
	if p.durable {
		if err := os.MkdirAll(p.dir, 0o755); err != nil {
			return "", err
		}
		t0 := time.Now()
		store, err := persist.Open(db, persist.Options{Dir: p.dir, Sync: persist.SyncBatch, MemBudget: budget})
		if err != nil {
			return "", err
		}
		p.coldOpenMs = float64(time.Since(t0)) / float64(time.Millisecond)
		p.store = store
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.pgCancel, p.pgDone = cancel, make(chan struct{})
	go func() {
		defer close(p.pgDone)
		pgdb.Serve(ctx, l, db, pgdb.AuthConfig{
			Method: pgv3.AuthMethodTrust,
			Users:  map[string]string{backendUser: backendUser},
		})
	}()
	p.pgAddr = l.Addr().String()
	return p.pgAddr, nil
}

// stopBackend is pgserver's SIGTERM path: stop serving, checkpoint, close.
func (p *inprocStack) stopBackend() error {
	if p.pgCancel == nil {
		return nil
	}
	p.pgCancel()
	<-p.pgDone
	p.pgCancel = nil
	if p.store != nil {
		if err := p.store.Checkpoint(); err != nil {
			return err
		}
		return p.store.Close()
	}
	return nil
}

func (p *inprocStack) startProxy() (string, error) {
	pgAddr := p.pgAddr
	p.pool = pool.New(pool.Config{
		Size: defaultPoolSize,
		Dial: func(ctx context.Context) (pool.Conn, error) {
			gw, err := gateway.Dial(ctx, pgAddr, backendUser, backendUser, backendUser)
			if err != nil {
				return nil, err
			}
			return tracedConn{gw}, nil
		},
		HealthCheck:  true,
		DrainTimeout: defaultDrain,
	})
	p.cache = qcache.New(defaultCacheEntries)
	p.mdiConn = p.pool.SessionBackend()
	sharedMDI := mdi.New(p.mdiConn, mdi.WithTTL(defaultMDITTL))
	platform := core.NewPlatform()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.hqCancel, p.hqDone = cancel, make(chan struct{})
	go func() {
		defer close(p.hqDone)
		endpoint.Serve(ctx, l, endpoint.Config{
			NewHandler: func(creds *qipc.Credentials) (endpoint.Handler, func(), error) {
				session := platform.NewSession(tracedBackend{p.pool.SessionBackend()}, core.Config{
					MDI:        sharedMDI,
					Cache:      p.cache,
					ResultPath: core.ColumnarPath,
				})
				compiler := xc.New(session)
				client := clientIndex(creds.User)
				h := endpoint.HandlerFunc(func(ctx context.Context, q string) (qval.Value, error) {
					var r *reqTrace
					if p.tr != nil && p.tr.on.Load() && client >= 0 {
						r = p.tr.current[client].Load()
					}
					if r == nil {
						v, _, err := compiler.HandleQuery(ctx, q)
						return v, err
					}
					id := r.begin("endpoint.handler")
					v, stats, err := compiler.HandleQuery(context.WithValue(ctx, reqKey{}, r), q)
					r.end(id)
					r.mu.Lock()
					r.stats = stats
					at := r.spans[id].Start
					r.mu.Unlock()
					if stats != nil {
						at = r.derived("qlang.parse", id, at, stats.Stages.Parse)
						at = r.derived("binder.bind", id, at, stats.Stages.Bind)
						at = r.derived("xformer.xform", id, at, stats.Stages.Xform)
						r.derived("serializer.serialize", id, at, stats.Stages.Serialize)
					}
					return v, err
				})
				return h, func() { session.Close() }, nil
			},
			DrainTimeout: defaultDrain,
		})
	}()
	return l.Addr().String(), nil
}

func (p *inprocStack) close() {
	if p.hqCancel != nil {
		p.hqCancel()
		<-p.hqDone
		p.hqCancel = nil
		p.mdiConn.Close()
		p.pool.Close()
	}
	if err := p.stopBackend(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: in-process backend:", err)
	}
}

// clientUser is the QIPC handshake user of client c; the in-process handler
// reads the index back to find the client's request in flight.
func clientUser(c int) string { return fmt.Sprintf("bench%d", c) }

func clientIndex(user string) int {
	var c int
	if _, err := fmt.Sscanf(user, "bench%d", &c); err != nil {
		return -1
	}
	return c
}

// newInprocStack places the data directory under dir when the workload is
// durable.
func newInprocStack(dir string, durable bool, tr *tracer) *inprocStack {
	return &inprocStack{dir: filepath.Join(dir, "data"), durable: durable, tr: tr}
}
