package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
)

// backendUser is what cmd/hyperq dials its backend as by default, and what
// cmd/pgserver accepts by default.
const backendUser = "hyperq"

// stack is a running hyperq -> pgserver pair, spawned or in-process. Both
// topologies go through the same set-up so they cannot drift apart.
type stack interface {
	// startBackend brings up the PG v3 server; budget > 0 bounds its resident
	// column data. It returns the address to load through.
	startBackend(budget int64) (pgAddr string, err error)
	// stopBackend checkpoints and shuts the PG v3 server down, returning
	// once it is gone.
	stopBackend() error
	// startProxy brings up the QIPC proxy in front of the backend.
	startProxy() (qAddr string, err error)
	// close tears everything down.
	close()
}

// session is a set-up stack: loaded, warmed and verified-reply lengths known.
type session struct {
	spec    spec
	sz      sizes
	ds      *dataset
	pgAddr  string
	qAddr   string
	clients []*qclient
	// warm holds the warm-up pass: every distinct key's op and the reply
	// frame exactly as it crossed the wire.
	warmOps    []op
	warmFrames [][]byte
	// want is the verified reply's message length per key.
	want map[string]int
	// ingested counts the feed rows already inserted, so a second window on
	// the same stack continues the feed and does not repeat it
	ingested int
	// afterRound, when set, is called between rounds with the index of the
	// round just finished
	afterRound func(p int)
}

func (s *session) closeClients() {
	for _, c := range s.clients {
		c.close()
	}
	s.clients = nil
}

// setUp is what setup_s times: backend up, bulk load over PG v3, for durable
// workloads the checkpoint, exit and cold reopen, proxy up, clients
// connected, prelude sent, and the warm-up pass that sends every distinct
// key once. Lazy work a first query triggers (metadata fetch, translation,
// first faults, index builds) therefore lands in set-up. Diffing the warm-up
// replies against the interpreter is the harness's own work and is not part
// of it.
func setUp(ctx context.Context, st stack, sp spec, sz sizes, ds *dataset, seed int64) (*session, time.Duration, error) {
	start := time.Now()
	s := &session{spec: sp, sz: sz, ds: ds, want: map[string]int{}}
	pgAddr, err := st.startBackend(0)
	if err != nil {
		return nil, 0, err
	}
	if err := loadAll(ctx, pgAddr, ds); err != nil {
		return nil, 0, err
	}
	if sp.durable {
		if err := st.stopBackend(); err != nil {
			return nil, 0, err
		}
		var budget int64
		if sp.memBudget != nil {
			budget = sp.memBudget(sz)
		}
		if pgAddr, err = st.startBackend(budget); err != nil {
			return nil, 0, err
		}
	}
	s.pgAddr = pgAddr
	if s.qAddr, err = st.startProxy(); err != nil {
		return nil, 0, err
	}
	for i := 0; i < sp.clients; i++ {
		c, err := dialQ(s.qAddr, clientUser(i))
		if err != nil {
			s.closeClients()
			return nil, 0, fmt.Errorf("client %d: %w", i, err)
		}
		s.clients = append(s.clients, c)
		for _, q := range sp.prelude {
			frame, err := c.roundTrip(q)
			if err == nil {
				err = checkFrame(frame, -1)
			}
			if err != nil {
				s.closeClients()
				return nil, 0, fmt.Errorf("prelude %q: %w", q, err)
			}
		}
	}
	// every client sends the whole warm-up list, so each session has bound
	// every table it will query; client 0's replies are the ones kept
	s.warmOps = sp.warm(seed, sz, ds)
	for ci, c := range s.clients {
		for _, o := range s.warmOps {
			frame, err := c.roundTrip(o.q)
			if err == nil {
				err = checkFrame(frame, -1)
			}
			if err != nil {
				s.closeClients()
				return nil, 0, fmt.Errorf("warm-up %q: %w", o.q, err)
			}
			if ci == 0 {
				s.warmFrames = append(s.warmFrames, append([]byte(nil), frame...))
				if _, dup := s.want[o.key]; !dup {
					s.want[o.key] = messageLen(frame)
				}
			}
		}
	}
	return s, time.Since(start), nil
}

// loadAll bulk-loads the data set over one PG v3 connection, the way a feed
// loads the backend independently of Hyper-Q.
func loadAll(ctx context.Context, pgAddr string, ds *dataset) error {
	gw, err := gateway.Dial(ctx, pgAddr, backendUser, backendUser, backendUser)
	if err != nil {
		return fmt.Errorf("loader: %w", err)
	}
	defer gw.Close()
	for _, t := range ds.tables {
		if err := core.LoadQTable(ctx, gw, t.name, t.tbl); err != nil {
			return fmt.Errorf("loading %s: %w", t.name, err)
		}
	}
	return nil
}

// --- spawned topology -----------------------------------------------------

// procStack runs the two binaries with their default flags; only addresses,
// the data directory, the memory budget and the stats address are passed.
type procStack struct {
	binDir  string
	dir     string // scratch: logs and, for durable workloads, data/
	durable bool

	pgAddr, statsAddr string
	pg, hq            *child
	starts            int
}

func newProcStack(binDir, dir string, durable bool) (*procStack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &procStack{binDir: binDir, dir: dir, durable: durable}, nil
}

func (p *procStack) dataDir() string { return filepath.Join(p.dir, "data") }

func (p *procStack) startBackend(budget int64) (string, error) {
	var err error
	if p.pgAddr, err = freeAddr(); err != nil {
		return "", err
	}
	if p.statsAddr, err = freeAddr(); err != nil {
		return "", err
	}
	args := []string{"-listen", p.pgAddr, "-stats-addr", p.statsAddr}
	if p.durable {
		args = append(args, "-data-dir", p.dataDir())
	}
	if budget > 0 {
		args = append(args, "-mem-budget", fmt.Sprint(budget))
	}
	p.starts++
	logPath := filepath.Join(p.dir, fmt.Sprintf("pgserver-%d.log", p.starts))
	if p.pg, err = spawn("pgserver", filepath.Join(p.binDir, "pgserver"), logPath, args...); err != nil {
		return "", err
	}
	return p.pgAddr, p.pg.waitReady(p.pgAddr)
}

func (p *procStack) stopBackend() error {
	_, err := p.pg.stop()
	return err
}

func (p *procStack) startProxy() (string, error) {
	qAddr, err := freeAddr()
	if err != nil {
		return "", err
	}
	p.hq, err = spawn("hyperq", filepath.Join(p.binDir, "hyperq"), filepath.Join(p.dir, "hyperq.log"),
		"-listen", qAddr, "-backend", p.pgAddr)
	if err != nil {
		return "", err
	}
	return qAddr, p.hq.waitReady(qAddr)
}

// close stops the proxy before the backend (the proxy's pool drains into a
// live backend) and waits for both to exit.
func (p *procStack) close() {
	if p.hq != nil {
		p.hq.stop()
	}
	if p.pg != nil {
		p.pg.stop()
	}
}
