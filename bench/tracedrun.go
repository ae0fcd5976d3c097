package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/wire/qipc"
)

// spawnedShare of -seconds goes to a spawned run, for the numbers only
// separate processes give; the rest to the in-process stack, whose rounds
// alternate between spans off and spans on. Alternating gives both halves of
// trace.overhead_pct the same machine and, on ingest_mix, the same growing
// table.
const spawnedShare = 0.4

// replayer is the traced run's observer. After each answered request it
// replays the SQL the request sent, one layer at a time, on the in-process
// database the request just ran against — straight away and not at the end,
// because on ingest_mix the table keeps growing.
type replayer struct {
	tr       *tracer
	direct   []*core.DirectBackend // one embedded session per client
	inflight []*reqTrace
	root     []int32

	mu       sync.Mutex
	ops      int
	bytesOut int64
	rowsOut  int64
	// lastSQL remembers, per key, the statements of its latest request and
	// how often the key was sent, for the allocation pass
	lastSQL map[string][]string
	sent    map[string]int
	errs    []string
}

func (rp *replayer) startRound(p int) bool {
	on := p%2 == 1
	rp.tr.on.Store(on)
	return on
}

func (rp *replayer) before(client int, o op) {
	r := rp.tr.newRequest(client)
	rp.inflight[client] = r
	rp.root[client] = r.begin("client.request")
}

func (rp *replayer) after(client int, o op, frame []byte) {
	r := rp.inflight[client]
	r.end(rp.root[client])
	r.mu.Lock()
	stats := r.stats
	r.mu.Unlock()
	var sqls []string
	if stats != nil {
		for _, sql := range stats.SQLs {
			// q's update and delete are queries; anything that is not a
			// SELECT here would change the database a second time
			if strings.HasPrefix(sql, "SELECT") {
				sqls = append(sqls, sql)
			}
		}
	}
	rows, err := rp.replay(r, client, sqls)
	rp.tr.finish(r)
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.ops++
	rp.bytesOut += int64(len(frame))
	rp.rowsOut += int64(rows)
	rp.lastSQL[o.key] = sqls
	rp.sent[o.key]++
	if err != nil && len(rp.errs) < 5 {
		rp.errs = append(rp.errs, fmt.Sprintf("%q: %v", o.q, err))
	}
}

// replayLayers runs one statement through the layers a request crosses, one
// at a time: the engine alone (pgdb.exec), then the text rows a PG v3
// backend would send through the column builders (colbuf.build — the TextRow
// path the gateway feeds on this serving path), then the QIPC encoder
// (qipc.encode). Each step runs inside `around`, which times or counts it.
func replayLayers(b *core.DirectBackend, sql string, around func(layer string, step func() error) error) (rows int, err error) {
	var res *pgdb.Result
	err = around("pgdb.exec", func() (err error) {
		res, err = b.ExecTyped(context.Background(), sql)
		return err
	})
	if err != nil {
		return 0, err
	}
	text := core.ToBackendResult(res)
	sink := core.GetTableSink()
	defer sink.Release()
	var tbl *qval.Table
	err = around("colbuf.build", func() error {
		err := core.ReplayResult(text, sink)
		tbl = sink.Table()
		return err
	})
	if err != nil {
		return len(res.Rows), err
	}
	return len(res.Rows), around("qipc.encode", func() error {
		return qipc.WriteMessage(io.Discard, qipc.Response, tbl)
	})
}

// replay times the layers of a request's statements as spans under a root of
// their own with the request's id, outside the client span.
func (rp *replayer) replay(r *reqTrace, client int, sqls []string) (rows int, err error) {
	defer r.end(r.begin("replay"))
	for _, sql := range sqls {
		n, err := replayLayers(rp.direct[client], sql, func(layer string, step func() error) error {
			defer r.end(r.begin(layer))
			return step()
		})
		rows += n
		if err != nil {
			return rows, err
		}
	}
	return rows, nil
}

// allocPass counts allocations per request of the engine and of the column
// builders with nothing else running: each key's latest statements once,
// weighted by how often the key was sent.
func (rp *replayer) allocPass() (engine, builders float64, err error) {
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	perLayer := map[string]float64{}
	var total float64
	for key, sqls := range rp.lastSQL {
		weight := float64(rp.sent[key])
		for _, sql := range sqls {
			_, err := replayLayers(rp.direct[0], sql, func(layer string, step func() error) error {
				before := mallocs()
				err := step()
				perLayer[layer] += weight * float64(mallocs()-before)
				return err
			})
			if err != nil {
				return 0, 0, err
			}
		}
		total += weight
	}
	if total == 0 {
		return 0, 0, nil
	}
	return perLayer["pgdb.exec"] / total, perLayer["colbuf.build"] / total, nil
}

// runTraced is the -trace 1 run: every per-layer metric, none of them gated.
func runTraced(ctx context.Context, e *env, sp spec, sz sizes, seed int64, seconds float64) (*result, error) {
	// short windows: two rounds of the spawned run, four (two with spans,
	// two without) of the in-process one are the least that will do
	spawnedSz := sz
	spawnedSz.minRounds = 2
	sz.minRounds = 4
	r, err := runSpawned(ctx, e, sp, spawnedSz, seed, seconds*spawnedShare, true)
	if err != nil {
		return nil, err
	}
	m := r.metrics

	tr := newTracer(sp.clients)
	dir, err := os.MkdirTemp(e.scratch, sp.name+"-inproc-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st := newInprocStack(dir, sp.durable, tr)
	defer st.close()
	s, _, err := setUp(ctx, st, sp, sz, r.warm.ds, seed)
	if err != nil {
		return nil, fmt.Errorf("in-process set-up: %w", err)
	}
	defer s.closeClients()
	m["persist.cold_open_ms"] = st.coldOpenMs
	// the two topologies must be the same system: same bytes for every
	// warm-up reply
	for _, d := range sameFrames(r.warm, s) {
		r.incorrect("%s", d)
	}

	rp := &replayer{tr: tr, inflight: make([]*reqTrace, sp.clients), root: make([]int32, sp.clients),
		lastSQL: map[string][]string{}, sent: map[string]int{}}
	for range s.clients {
		rp.direct = append(rp.direct, core.NewDirectBackend(st.db))
	}
	defer func() {
		for _, d := range rp.direct {
			d.Close()
		}
	}()
	cache0 := st.cache.Stats()
	w, _, err := runLoad(ctx, s, seed, seconds*(1-spawnedShare), rp)
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	cache1 := st.cache.Stats()
	r.attempted += w.attempted
	r.failed += w.failed
	for _, f := range append(w.failures, rp.errs...) {
		r.incorrect("in-process: %s", f)
	}

	spans := tr.spans()
	outDir := filepath.Join(e.root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(outDir, "trace-"+sp.name+".json")
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	r.note("%d spans of %d requests in %s", len(spans), rp.ops, tracePath)

	ops := float64(rp.ops)
	if ops == 0 {
		return nil, fmt.Errorf("traced window answered no request")
	}
	tot, self := totals(spans), selfTimes(spans)
	perOp := func(d time.Duration, unit time.Duration) float64 { return float64(d) / float64(unit) / ops }
	client := tot["client.request"]
	translate := tot["qlang.parse"] + tot["binder.bind"] + tot["xformer.xform"] + tot["serializer.serialize"]
	m["qipc.encode_ms"] = perOp(tot["qipc.encode"], time.Millisecond)
	m["qipc.bytes_out_per_op"] = float64(rp.bytesOut) / ops
	m["endpoint.overhead_us"] = perOp(client-tot["endpoint.handler"], time.Microsecond)
	m["qlang.parse_us"] = perOp(tot["qlang.parse"], time.Microsecond)
	m["binder.bind_us"] = perOp(tot["binder.bind"], time.Microsecond)
	m["xformer.xform_us"] = perOp(tot["xformer.xform"], time.Microsecond)
	m["serializer.serialize_us"] = perOp(tot["serializer.serialize"], time.Microsecond)
	m["core.translate_share"] = float64(translate) / float64(client)
	m["pool.checkout_us"] = perOp(tot["pool.session_exec"]-tot["gateway.exec"], time.Microsecond)
	m["pgv3.hop_ms"] = perOp(tot["gateway.exec"]-tot["pgdb.exec"], time.Millisecond)
	m["pgdb.exec_ms"] = perOp(tot["pgdb.exec"], time.Millisecond)
	m["pgdb.rows_out_per_op"] = float64(rp.rowsOut) / ops
	m["colbuf.build_ms"] = perOp(tot["colbuf.build"], time.Millisecond)
	m["client.request_ms"] = perOp(client, time.Millisecond)
	// self times of the client span's tree against the client span itself:
	// 100 unless a child outlasted its parent
	var treeSelf time.Duration
	for _, name := range []string{"client.request", "endpoint.handler", "qlang.parse", "binder.bind",
		"xformer.xform", "serializer.serialize", "pool.session_exec", "gateway.exec"} {
		treeSelf += self[name]
		m["self."+name+"_ms"] = perOp(self[name], time.Millisecond)
	}
	m["trace.self_sum_pct"] = 100 * float64(treeSelf) / float64(client)

	if lookups := float64(cache1.Hits - cache0.Hits + cache1.Misses - cache0.Misses); lookups > 0 {
		m["qcache.hit_ratio"] = float64(cache1.Hits-cache0.Hits) / lookups
	}
	m["qcache.evictions"] = float64(cache1.Evictions - cache0.Evictions)
	ps := st.pool.Stats()
	m["pool.dials"] = float64(ps.Dials)
	m["pool.wait_timeouts"] = float64(ps.WaitTimeouts)
	if m["pgdb.allocs_per_op"], m["colbuf.allocs_per_op"], err = rp.allocPass(); err != nil {
		return nil, err
	}
	var off, on []float64
	for i, rate := range w.busyRates {
		if w.traced[i] {
			on = append(on, rate)
		} else {
			off = append(off, rate)
		}
	}
	if base := median(off); base > 0 {
		m["trace.overhead_pct"] = 100 * (base - median(on)) / base
	}
	m["inproc.qps_untraced"] = median(off)
	m["inproc.qps_traced"] = median(on)
	return r, nil
}
