package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"hyperq/internal/gateway"
	"hyperq/internal/qlang/qval"
)

// env is where the run builds and scribbles: everything stays inside the
// checkout.
type env struct {
	root    string
	binDir  string
	scratch string // removed when the run ends
}

// result is one run's outcome. metrics holds every number measured, by name;
// main prints the subset the contract asks for as JSON and all of them as
// text.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string
	// warm is the kept set-up's warm-up pass, for the topology comparison
	warm *session
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// incorrect records a correctness failure: the run still reports what it
// measured, but says the numbers cannot be trusted.
func (r *result) incorrect(format string, args ...any) {
	r.correct = false
	r.note("INCORRECT: "+format, args...)
}

// sizeClass splits a mix by reply size: aggregates of at most 100 rows
// against row sets of more than 1000.
func sizeClass(rows int) string {
	switch {
	case rows <= 100:
		return "agg"
	case rows > 1000:
		return "rows"
	}
	return ""
}

// latencyMetrics folds the window's samples into the end-to-end numbers and
// the per-class medians. Every estimator is a median of something that
// repeats — rounds, or the samples of one query id — because on a shared
// machine whole stretches of a run are slower than others: qps is the median
// per-round rate, lat_geomean_ms the geometric mean of per-id medians, and
// lat_p95_ms the median of the per-round p95s (a p95 over all samples of a
// 25-query mix sits on the edge between the two slowest queries' clusters
// and flips between them from run to run).
//
// The three are then brought to the reference machine speed (calib.go):
// rates divided, latencies multiplied by machine.speed. The unscaled values
// are reported beside them as raw.*.
func latencyMetrics(w *window, rows map[string]int, m map[string]float64) {
	byID := map[int][]float64{}
	byClass := map[string][]float64{}
	byRound := map[int][]float64{}
	for _, s := range w.samples {
		byID[s.op.id] = append(byID[s.op.id], s.ms)
		byRound[s.round] = append(byRound[s.round], s.ms)
		class := s.op.class
		if class == "" {
			class = sizeClass(rows[s.op.key])
		}
		if class != "" {
			byClass[class] = append(byClass[class], s.ms)
		}
	}
	medians := make([]float64, 0, len(byID))
	for _, xs := range byID {
		medians = append(medians, median(xs))
	}
	p95s := make([]float64, 0, len(byRound))
	for _, xs := range byRound {
		p95s = append(p95s, percentile(xs, 95))
	}
	speed := machineSpeed(w.calibMs)
	m["machine.speed"] = speed
	m["machine.calib_ms"] = calibRefMs / speed
	m["raw.qps"] = median(w.rates)
	m["raw.lat_geomean_ms"] = geomean(medians)
	m["raw.lat_p95_ms"] = median(p95s)
	m["qps"] = m["raw.qps"] / speed
	m["lat_geomean_ms"] = m["raw.lat_geomean_ms"] * speed
	m["lat_p95_ms"] = m["raw.lat_p95_ms"] * speed
	m["lat_samples"] = float64(len(w.samples))
	m["rounds"] = float64(len(w.rates))
	m["window_s"] = w.elapsed.Seconds()
	for _, class := range []string{"agg", "rows", "hit", "miss"} {
		m["class."+class+".lat_p50_ms"] = median(byClass[class])
	}
}

// runSpawned is the end-to-end run: the two binaries as a user starts them,
// q text over real sockets. With layers set (the traced run's first half) it
// sets up once and adds the numbers that only separate processes can give:
// CPU per process, persist and index counters over one extra pass, the
// checkpoint time and the space on disk.
func runSpawned(ctx context.Context, e *env, sp spec, sz sizes, seed int64, seconds float64, layers bool) (*result, error) {
	r := &result{correct: true, metrics: map[string]float64{}}
	m := r.metrics
	ds := sp.data(sz)
	// a directory of this run's own: a data directory left by an earlier run
	// would be restored by pgserver and change what set-up costs
	dir, err := os.MkdirTemp(e.scratch, sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// set up several times and report the median: one set-up is a second or
	// two of mostly sequential work, and a single measurement of it is the
	// noisiest number this benchmark has
	setups := sz.setups
	if layers {
		setups = 1
	}
	var st *procStack
	var s *session
	var setupS []float64
	for k := 0; k < setups; k++ {
		var err error
		st, err = newProcStack(e.binDir, filepath.Join(dir, fmt.Sprint(k)), sp.durable)
		if err != nil {
			return nil, err
		}
		var d time.Duration
		s, d, err = setUp(ctx, st, sp, sz, ds, seed)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		setupS = append(setupS, d.Seconds())
		if k < setups-1 {
			s.closeClients()
			st.close()
		}
	}
	defer st.close()
	defer s.closeClients()
	m["setup_s"] = median(setupS)
	r.warm = s

	rows, diverged, err := verifyWarm(s)
	if err != nil {
		return nil, err
	}
	for _, d := range diverged {
		r.incorrect("%s", d)
	}
	r.note("%d distinct replies diffed against the q interpreter, %d diverged", len(s.warmOps), len(diverged))

	// the load generator gets one core per connection it drives and no more,
	// so it cannot crowd the servers off a two-core machine
	procs := sp.clients
	if sp.ingest {
		procs++
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	// memory is read after a fixed amount of work — set-up and the first
	// minRounds rounds — and not at the end of the window: the window is
	// timed, so a faster machine gets more rounds in, and hyperq's memory
	// grows with every distinct text it has seen
	var rssErr error
	s.afterRound = func(p int) {
		if p != sz.minRounds-1 {
			return
		}
		if m["hyperq_rss_mb"], rssErr = peakRSSMB(st.hq.pid()); rssErr == nil {
			m["pgserver_rss_mb"], rssErr = peakRSSMB(st.pg.pid())
		}
	}
	walBefore := fileSize(filepath.Join(st.dataDir(), "wal.log"))
	hqCPU0, _ := cpuMs(st.hq.pid())
	pgCPU0, _ := cpuMs(st.pg.pid())
	w, wr, err := runLoad(ctx, s, seed, seconds, nil)
	if err != nil {
		return nil, err
	}
	hqCPU1, _ := cpuMs(st.hq.pid())
	pgCPU1, _ := cpuMs(st.pg.pid())
	r.attempted, r.failed = w.attempted, w.failed
	for _, f := range w.failures {
		r.note("FAILED: %s", f)
	}
	latencyMetrics(w, rows, m)
	if answered := float64(w.attempted - w.failed); answered > 0 {
		m["hyperq.cpu_ms_per_op"] = (hqCPU1 - hqCPU0) / answered
		m["pgserver.cpu_ms_per_op"] = (pgCPU1 - pgCPU0) / answered
	}
	s.afterRound = nil
	if rssErr != nil {
		return nil, rssErr
	}
	if m["hyperq.rss_end_mb"], err = peakRSSMB(st.hq.pid()); err != nil {
		return nil, err
	}
	if m["pgserver.rss_end_mb"], err = peakRSSMB(st.pg.pid()); err != nil {
		return nil, err
	}

	if layers {
		if err := counterPass(s, st, seed, r); err != nil {
			return nil, err
		}
	}
	if sp.ingest {
		if err := checkIngest(ctx, st, s, ds, wr, walBefore, r); err != nil {
			return nil, err
		}
	}
	if sp.durable {
		// the proxy goes first so the backend's exit is the checkpoint alone
		s.closeClients()
		st.hq.stop()
		took, err := st.pg.stop()
		if err != nil {
			return nil, err
		}
		m["persist.checkpoint_s"] = took.Seconds()
		bytes, err := dirBytes(st.dataDir())
		if err != nil {
			return nil, err
		}
		m["disk_mb"] = float64(bytes) / 1e6
		totalRows := ds.rows()
		if wr != nil {
			totalRows += wr.rows
		}
		m["persist.disk_bytes_per_row"] = float64(bytes) / float64(totalRows)
	}
	if r.failed > 0 {
		r.incorrect("%d of %d operations failed", r.failed, r.attempted)
	}
	return r, nil
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

// counterPass sends one more, untimed pass bracketed by two reads of
// pgserver's counters. After the window's rounds the server is in the steady
// state of the cyclic op list, so with one client the deltas repeat exactly
// from run to run.
func counterPass(s *session, st *procStack, seed int64, r *result) error {
	before, err := debugVars(st.statsAddr)
	if err != nil {
		return err
	}
	one := *s
	one.sz.minRounds = 1
	extra := runWindow(&one, seed, 0, nil)
	after, err := debugVars(st.statsAddr)
	if err != nil {
		return err
	}
	if extra.failed > 0 {
		r.incorrect("counter pass: %v", extra.failures)
	}
	ops := float64(extra.attempted)
	m := r.metrics
	for _, name := range []string{"persist.segments_faulted", "persist.columns_faulted", "persist.evictions",
		"pgdb.index_builds", "pgdb.index_hits", "pgdb.index_misses"} {
		m[name] = float64(after[name] - before[name])
	}
	if ops > 0 {
		m["persist.bytes_read_per_op"] = float64(after["persist.bytes_read"]-before["persist.bytes_read"]) / ops
	}
	return nil
}

// checkIngest holds ingest_mix to its invariants: the reader sees exactly
// the preload plus every acknowledged row, and after kill -9 and a reopen of
// the same data directory every acknowledged batch is still there.
// pgserver's default -wal-sync batch acknowledges an INSERT only after an
// fsync that covers it, so nothing acknowledged may be lost. (kill -9 leaves
// the operating system's page cache intact; bytes written but not yet
// fsynced would survive it too, so this proves the ordering of ack after
// write, not of ack after flush to the device.)
func checkIngest(ctx context.Context, st *procStack, s *session, ds *dataset, wr *ingestResult, walBefore int64, r *result) error {
	m := r.metrics
	r.attempted += wr.acked + wr.failed
	r.failed += wr.failed
	for _, f := range wr.failures {
		r.note("FAILED: writer: %s", f)
	}
	m["ingest_lat_p50_ms"] = median(wr.latencyMs)
	m["ingest_lat_p95_ms"] = percentile(wr.latencyMs, 95)
	m["ingest.late_p95_ms"] = percentile(wr.lateMs, 95)
	m["ingest.batches"] = float64(wr.acked)
	if wr.rows > 0 {
		m["persist.wal_bytes_per_row"] = float64(fileSize(filepath.Join(st.dataDir(), "wal.log"))-walBefore) / float64(wr.rows)
	}
	want := ds.table("trades").Len() + wr.rows
	r.note("writer: %d batches of %d rows acknowledged under -wal-sync batch (the default), p95 %.2f ms late",
		wr.acked, s.sz.ingestBatch, m["ingest.late_p95_ms"])

	frame, err := s.clients[0].roundTrip("select n:count Price from trades")
	if err != nil {
		return err
	}
	v, err := decodeFrame(frame)
	if err != nil {
		return err
	}
	if got, ok := countCell(v); !ok || got != want {
		r.incorrect("reader counts %v trades, want preload + acknowledged = %d", v, want)
	}

	s.closeClients()
	st.hq.stop()
	st.pg.kill()
	pgAddr, err := st.startBackend(0)
	if err != nil {
		return fmt.Errorf("reopen after kill -9: %w", err)
	}
	gw, err := gateway.Dial(ctx, pgAddr, backendUser, backendUser, backendUser)
	if err != nil {
		return err
	}
	defer gw.Close()
	res, err := gw.Exec(ctx, "SELECT count(*) FROM trades")
	if err != nil {
		return err
	}
	got, err := strconv.Atoi(res.Rows[0][0].Text)
	if err != nil {
		return err
	}
	if got != want {
		r.incorrect("after kill -9 and reopen trades has %d rows, want %d: an acknowledged batch was lost", got, want)
	} else {
		r.note("durability: kill -9, reopen, all %d acknowledged rows readable", wr.rows)
	}
	return nil
}

// countCell reads the single cell of a one-row count table.
func countCell(v qval.Value) (int, bool) {
	t, ok := v.(*qval.Table)
	if !ok || len(t.Data) != 1 || t.Len() != 1 {
		return 0, false
	}
	n, ok := qval.Index(t.Data[0], 0).(qval.Long)
	return int(n), ok
}
