package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/taq"
)

// sample is one answered request.
type sample struct {
	op    op
	round int
	ms    float64
}

// window is what the timed rounds produced.
type window struct {
	rates     []float64 // per round: answered requests per second of wall time
	busyRates []float64 // per round: answered requests per second of the busiest client's request time
	traced    []bool    // per round: whether the observer was on
	calibMs   []float64 // every repeat of the calibration run before each round
	samples   []sample
	attempted int
	failed    int
	failures  []string // the first few, verbatim
	elapsed   time.Duration
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.failures) < 5 {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

// observer is the traced run's hook into the window. startRound says whether
// round p is traced; in a traced round before opens the client's span and
// after closes it and replays the request's SQL layer by layer, both outside
// the latency the window records. after is not called for a failed request.
type observer interface {
	startRound(p int) bool
	before(client int, o op)
	after(client int, o op, frame []byte)
}

// runWindow drives rounds until `seconds` have passed (and at least
// sz.minRounds rounds). A round is one pass of every client's op list, all
// clients starting together; every round of a workload costs the same, so
// the median of the per-round rates ignores a round a noisy neighbour
// spoiled. Each reply is checked for message type, error flag and byte
// length against the verified reply of its key; on a mutating workload the
// length may only grow.
func runWindow(s *session, seed int64, seconds float64, obs observer) *window {
	w := &window{}
	var mu sync.Mutex // guards w across client goroutines
	start := time.Now()
	dead := false
	for p := 0; !dead && (time.Since(start).Seconds() < seconds || p < s.sz.minRounds); p++ {
		lists := make([][]op, len(s.clients))
		for c := range s.clients {
			lists[c] = s.spec.pass(seed, s.sz, s.ds, c, p)
		}
		w.calibMs = append(w.calibMs, calibrate()...)
		busy := make([]float64, len(s.clients))
		answered := 0
		traced := obs != nil && obs.startRound(p)
		roundStart := time.Now()
		var wg sync.WaitGroup
		for c := range s.clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := s.clients[c]
				local := make([]sample, 0, len(lists[c]))
				for i, o := range lists[c] {
					if traced {
						obs.before(c, o)
					}
					t0 := time.Now()
					frame, err := cl.roundTrip(o.q)
					t1 := time.Now()
					if err != nil {
						// the connection is gone: every remaining op of the
						// pass was due and is missing
						mu.Lock()
						w.attempted += len(lists[c]) - i
						w.failed += len(lists[c]) - i - 1
						w.fail("%q: %v", o.q, err)
						dead = true
						mu.Unlock()
						break
					}
					want := s.want[o.key]
					if s.spec.ingest {
						// single reader, so s.want needs no lock
						if err = checkFrame(frame, -1); err == nil && messageLen(frame) < want {
							err = fmt.Errorf("reply shrank from %d to %d bytes while rows were only added", want, messageLen(frame))
						}
						if err == nil {
							s.want[o.key] = messageLen(frame)
						}
					} else {
						err = checkFrame(frame, want)
					}
					if err != nil {
						mu.Lock()
						w.attempted++
						w.fail("%q: %v", o.q, err)
						mu.Unlock()
						continue
					}
					ms := float64(t1.Sub(t0)) / float64(time.Millisecond)
					busy[c] += ms
					local = append(local, sample{op: o, round: p, ms: ms})
					if traced {
						obs.after(c, o, frame)
					}
				}
				mu.Lock()
				w.attempted += len(local)
				answered += len(local)
				w.samples = append(w.samples, local...)
				mu.Unlock()
			}(c)
		}
		wg.Wait()
		wall := time.Since(roundStart).Seconds()
		maxBusy := 0.0
		for _, b := range busy {
			if b > maxBusy {
				maxBusy = b
			}
		}
		if answered > 0 {
			w.rates = append(w.rates, float64(answered)/wall)
			w.busyRates = append(w.busyRates, float64(answered)/(maxBusy/1000))
			w.traced = append(w.traced, traced)
		}
		if s.afterRound != nil {
			s.afterRound(p)
		}
	}
	w.elapsed = time.Since(start)
	return w
}

// runLoad is the timed window plus, on an ingest workload, the writer beside
// it: started just before the first round, stopped after the last.
func runLoad(ctx context.Context, s *session, seed int64, seconds float64, obs observer) (*window, *ingestResult, error) {
	if !s.spec.ingest {
		return runWindow(s, seed, seconds, obs), nil, nil
	}
	// enough rows for twice the window: the last round may overrun it
	f := genFeed(seed, s.ds.table("trades"), s.ingested+int(2*seconds+10)*s.sz.ingestPerSec*s.sz.ingestBatch)
	f.next = f.preload + s.ingested
	var wr *ingestResult
	var wrErr error
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		wr, wrErr = runWriter(ctx, s.pgAddr, f, s.sz, stop)
	}()
	w := runWindow(s, seed, seconds, obs)
	close(stop)
	<-done
	if wr != nil {
		s.ingested += wr.sent
	}
	return w, wr, wrErr
}

// --- the ingest_mix writer ------------------------------------------------

// feed is the table the writer inserts from: the preloaded trades followed
// by the rows to ingest, so that core.LoadQTableRows numbers the new rows'
// implicit order column after the preload exactly as one bulk load would.
type feed struct {
	table   *qval.Table
	preload int
	next    int // row index the writer starts from
}

// genFeed appends n seeded after-hours trades to the preloaded day: times
// rise by one millisecond per row from 16:00:00.000.
func genFeed(seed int64, preload *qval.Table, n int) *feed {
	rng := rngFor(seed, -4)
	date := preload.Data[0].(qval.TemporalVec).V[0]
	dates := qval.TemporalVec{T: qval.KDate, V: make([]int64, n)}
	times := qval.TemporalVec{T: qval.KTime, V: make([]int64, n)}
	syms := make(qval.SymbolVec, n)
	prices := make(qval.FloatVec, n)
	sizes := make(qval.LongVec, n)
	exch := make(qval.SymbolVec, n)
	for i := 0; i < n; i++ {
		dates.V[i] = date
		times.V[i] = 16*3600_000 + int64(i)
		syms[i] = taq.DefaultSymbols[rng.Intn(len(taq.DefaultSymbols))]
		prices[i] = float64(5000+rng.Intn(10000)) / 100
		sizes[i] = int64(100 * (1 + rng.Intn(50)))
		exch[i] = []string{"N", "Q", "P", "B"}[rng.Intn(4)]
	}
	extra := qval.NewTable(preload.Cols, []qval.Value{dates, syms, times, prices, sizes, exch})
	return &feed{table: concatTables([]*qval.Table{preload, extra}), preload: preload.Len(), next: preload.Len()}
}

// ingestResult is what the writer measured.
type ingestResult struct {
	acked     int       // batches acknowledged
	rows      int       // rows in acknowledged batches
	sent      int       // feed rows consumed, acknowledged or not
	latencyMs []float64 // per acknowledged batch, from the time it was due
	lateMs    []float64 // per batch, how long after it was due it was sent
	failed    int
	failures  []string
}

// runWriter inserts batches open-loop: batch k is due at start + k/perSec
// whatever happened to batch k-1, and its latency counts from that due time,
// so a stall is charged to every batch it delayed. One connection, so a late
// batch delays the next. It stops when stop closes or the feed runs out.
func runWriter(ctx context.Context, pgAddr string, f *feed, sz sizes, stop <-chan struct{}) (*ingestResult, error) {
	gw, err := gateway.Dial(ctx, pgAddr, backendUser, backendUser, backendUser)
	if err != nil {
		return nil, fmt.Errorf("writer: %w", err)
	}
	defer gw.Close()
	res := &ingestResult{}
	interval := time.Second / time.Duration(sz.ingestPerSec)
	start := time.Now()
	for k := 0; ; k++ {
		lo := f.next + k*sz.ingestBatch
		hi := lo + sz.ingestBatch
		if hi > f.table.Len() {
			return res, nil
		}
		due := start.Add(time.Duration(k) * interval)
		select {
		case <-stop:
			return res, nil
		case <-time.After(time.Until(due)):
		}
		sent := time.Now()
		res.sent += hi - lo
		err := core.LoadQTableRows(ctx, gw, "trades", f.table, lo, hi)
		if err != nil {
			res.failed++
			if len(res.failures) < 5 {
				res.failures = append(res.failures, fmt.Sprintf("batch %d: %v", k, err))
			}
			continue
		}
		res.acked++
		res.rows += hi - lo
		res.lateMs = append(res.lateMs, float64(sent.Sub(due))/float64(time.Millisecond))
		res.latencyMs = append(res.latencyMs, float64(time.Since(due))/float64(time.Millisecond))
	}
}
