package main

import (
	"fmt"
	"math/rand"

	"hyperq/internal/taq"
	"hyperq/internal/workload"
)

// op is one q request a client sends.
type op struct {
	id    int    // query id: one query shape of the workload
	class string // "hit" or "miss" on point_lookups; elsewhere set from the reply size
	q     string // q text on the wire
	key   string // the verified reply this op must match: equal keys, equal replies
}

// spec is one workload: who is loaded with what, and what the clients send.
// Every op list is a pure function of (seed, client, pass), so the same seed
// replays the same bytes.
type spec struct {
	name    string
	why     string
	clients int
	// durable runs pgserver with -data-dir, checkpoints it by SIGTERM after
	// the load and reopens it cold; memBudget is the reopened server's
	// -mem-budget (0 keeps everything resident once faulted).
	durable   bool
	memBudget func(sz sizes) int64
	// ingest adds an open-loop writer on its own PG v3 connection to
	// pgserver, inserting into trades while the reader runs.
	ingest bool
	data   func(sz sizes) *dataset
	// prelude runs once per client session before anything else. It may only
	// assign scalars: a table-valued global would shadow the base table for
	// every later session of the same hyperq.
	prelude []string
	// warm lists one op per distinct key; the warm-up pass sends each and the
	// reply is diffed against the q interpreter.
	warm func(seed int64, sz sizes, ds *dataset) []op
	// pass lists the ops of one client for one round. Every pass of a
	// workload costs the same, so per-round rates are comparable.
	pass func(seed int64, sz sizes, ds *dataset, client, p int) []op
}

var specs = []spec{analyticMix, pointLookups, coldScan, ingestMix}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// rngFor derives an independent generator for one (seed, stream) pair.
func rngFor(seed int64, stream ...int) *rand.Rand {
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x7f4a7c15
	for _, s := range stream {
		h = (h ^ uint64(s+1)) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return rand.New(rand.NewSource(int64(h)))
}

func oneDay(sz sizes) *dataset { return genData(1, sz.tradesPerDay) }

// distinctKeys keeps the first op of every key.
func distinctKeys(ops []op) []op {
	seen := map[string]bool{}
	var out []op
	for _, o := range ops {
		if !seen[o.key] {
			seen[o.key] = true
			out = append(out, o)
		}
	}
	return out
}

// --- analytic_mix ---------------------------------------------------------

var analyticMix = spec{
	name:    "analytic_mix",
	why:     "the paper's 25-query Analytical Workload, memory-resident, one client: pgdb plan+execute and the wide-result path dominate",
	clients: 1,
	data:    oneDay,
	prelude: []string{"avgpx: 100.0"}, // query 12 reads it
	warm: func(seed int64, sz sizes, ds *dataset) []op {
		return analyticOps()
	},
	pass: func(seed int64, sz sizes, ds *dataset, client, p int) []op {
		ops := analyticOps()
		rngFor(seed, client, p).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		return ops
	},
}

func analyticOps() []op {
	var ops []op
	for _, q := range workload.Queries() {
		ops = append(ops, op{id: q.ID, q: q.Q, key: q.Q})
	}
	return ops
}

// --- point_lookups --------------------------------------------------------

// pointShapes are keyed single-row lookups over the small tables. Each has a
// symbol slot and a numeric slot; the numeric predicate is true for every
// literal the generator emits (integers above 9e8 against columns below
// that, fractions below 1 against prices above 25), so the reply depends on
// the symbol alone while the text — and with it the translation-cache key —
// changes with the literal.
var pointShapes = []struct {
	format string
	float  bool
}{
	{"select from daily where Symbol=`%s, Volume<%s", false},
	{"select attr_007 from refdata where Symbol=`%s, attr_007<%s", false},
	{"select Close from daily where Symbol=`%s, High>%s", true},
	{"select Symbol, attr_100, attr_250 from refdata where Symbol=`%s, attr_499<%s", false},
	{"select rng:High-Low from daily where Symbol=`%s, Low>%s", true},
	{"exec Close from daily where Symbol=`%s, Volume<%s", false},
	{"select Sector from refdata where Symbol=`%s, attr_000<%s", false},
	{"select Symbol, Open, Close from daily where Symbol=`%s, Open>%s", true},
}

const (
	pointHitTexts = 32      // fixed texts the hit class draws from
	missIndexes   = 900_000 // fresh-literal indexes before they wrap; 900000.. are reserved
	hitIndexBase  = 900_000
	warmIndexBase = 950_000
)

// pointOp renders shape s for a symbol with the idx-th literal of the seed.
// Literals of different seeds never collide: the seed's last three digits
// are part of every literal.
func pointOp(seed int64, s int, sym string, idx int, class string) op {
	tag := int(((seed % 1000) + 1000) % 1000)
	var lit string
	if pointShapes[s].float {
		lit = fmt.Sprintf("0.%03d%06d", tag, idx)
	} else {
		lit = fmt.Sprintf("1%03d%06d", tag, idx)
	}
	id := 2 * s
	if class == "miss" {
		id++
	}
	return op{
		id: id, class: class,
		q:   fmt.Sprintf(pointShapes[s].format, sym, lit),
		key: fmt.Sprintf("%d/%s", s, sym),
	}
}

// pointHits are the seed's 32 fixed texts, four per shape.
func pointHits(seed int64) []op {
	rng := rngFor(seed, -1)
	var ops []op
	for i := 0; i < pointHitTexts; i++ {
		s := i % len(pointShapes)
		sym := taq.DefaultSymbols[rng.Intn(len(taq.DefaultSymbols))]
		ops = append(ops, pointOp(seed, s, sym, hitIndexBase+i, "hit"))
	}
	return ops
}

var pointLookups = spec{
	name:    "point_lookups",
	why:     "keyed single-row lookups, two clients, half cached texts and half fresh literals: the fixed per-request path is the whole cost",
	clients: 2,
	data:    oneDay,
	warm: func(seed int64, sz sizes, ds *dataset) []op {
		// one text per (shape, symbol) fixes the expected reply of every
		// key; the hit texts follow so the timed window finds them cached
		var ops []op
		for s := range pointShapes {
			for j, sym := range taq.DefaultSymbols {
				ops = append(ops, pointOp(seed, s, sym, warmIndexBase+s*len(taq.DefaultSymbols)+j, "miss"))
			}
		}
		return append(ops, pointHits(seed)...)
	},
	pass: func(seed int64, sz sizes, ds *dataset, client, p int) []op {
		hits := pointHits(seed)
		rng := rngFor(seed, client, p)
		n := sz.pointOps
		ops := make([]op, n)
		for i := range ops {
			s := i % len(pointShapes)
			if (i/len(pointShapes))%2 == 0 {
				// hit texts are laid out shape-major: i%8 == shape
				ops[i] = hits[s+len(pointShapes)*rng.Intn(pointHitTexts/len(pointShapes))]
				continue
			}
			sym := taq.DefaultSymbols[rng.Intn(len(taq.DefaultSymbols))]
			idx := ((p*2+client)*n + i) % missIndexes
			ops[i] = pointOp(seed, s, sym, idx, "miss")
		}
		rng.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		return ops
	},
}

// --- cold_scan ------------------------------------------------------------

const coldShapes = 6

// coldOp renders shape s against day slot d of the history.
func coldOp(ds *dataset, s, d int, sym string) op {
	day := ds.days[d]
	var q string
	switch s {
	case 0: // one-day grouped aggregate
		q = fmt.Sprintf("select n:count Price, vol:sum Size by Symbol from trades where Date=%v", day)
	case 1: // one-day symbol + time-window lookup
		q = fmt.Sprintf("select Time, Price, Size from trades where Date=%v, Symbol=`%s, Time within 10:00:00.000 10:30:00.000", day, sym)
	case 2: // three-day wavg
		lo := d
		if lo+2 >= len(ds.days) {
			lo = len(ds.days) - 3
		}
		if lo < 0 {
			lo = 0
		}
		hi := lo + 2
		if hi >= len(ds.days) {
			hi = len(ds.days) - 1
		}
		q = fmt.Sprintf("select vwap:Size wavg Price by Symbol from trades where Date within %v %v", ds.days[lo], ds.days[hi])
	case 3: // one-day quote-spread aggregate
		q = fmt.Sprintf("select avgspread:avg Ask-Bid by Symbol from quotes where Date=%v", day)
	case 4: // one-day Price> projection
		q = fmt.Sprintf("select Symbol, Time, Price from trades where Date=%v, Price>150.0", day)
	case 5: // full-history two-column aggregate
		q = "select vol:sum Size by Symbol from trades"
	}
	return op{id: s, q: q, key: q}
}

// coldOps is the one op list of the seed: every (shape, day) pair once,
// consecutive ops on consecutive days of a seeded day order, so a budget
// smaller than the history keeps faulting whatever the order is.
func coldOps(seed int64, ds *dataset) []op {
	rng := rngFor(seed, -2)
	days := rng.Perm(len(ds.days))
	n := len(days)
	var ops []op
	for i := 0; i < coldShapes*n; i++ {
		sym := taq.DefaultSymbols[rng.Intn(len(taq.DefaultSymbols))]
		ops = append(ops, coldOp(ds, (i%n+i/n)%coldShapes, days[i%n], sym))
	}
	return ops
}

var coldScan = spec{
	name:      "cold_scan",
	why:       "durable pgserver reopened cold with a memory budget of a quarter of the history, one client: persist fault-in, decode and eviction dominate",
	clients:   1,
	durable:   true,
	memBudget: func(sz sizes) int64 { return sz.coldBudget },
	data:      func(sz sizes) *dataset { return genData(sz.coldDays, sz.coldTrades) },
	warm: func(seed int64, sz sizes, ds *dataset) []op {
		return distinctKeys(coldOps(seed, ds))
	},
	pass: func(seed int64, sz sizes, ds *dataset, client, p int) []op {
		return coldOps(seed, ds)
	},
}

// --- ingest_mix -----------------------------------------------------------

const ingestSymbols = 4

// ingestOps is the reader's one op list: five real-time shapes over the
// seed's four symbols, in a seeded order.
func ingestOps(seed int64) []op {
	rng := rngFor(seed, -3)
	var ops []op
	for _, j := range rng.Perm(len(taq.DefaultSymbols))[:ingestSymbols] {
		sym := taq.DefaultSymbols[j]
		for s, q := range []string{
			"select last Price by Symbol from trades",
			fmt.Sprintf("select o:first Price, h:max Price, l:min Price, c:last Price by bucket:300000 xbar Time from trades where Symbol=`%s", sym),
			fmt.Sprintf("select Time, Price, Size from trades where Symbol=`%s, Time>=16:00:00.000", sym),
			"select n:count Price by Exch from trades",
			fmt.Sprintf("select bid:last Bid, ask:last Ask from quotes where Symbol=`%s", sym),
		} {
			ops = append(ops, op{id: s, q: q, key: q})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

var ingestMix = spec{
	name:    "ingest_mix",
	why:     "durable resident pgserver, an open-loop PG v3 writer at a fixed rate beside one q reader on the growing table: WAL, index and zone-map upkeep under DML, and the statement lock between them",
	clients: 1,
	durable: true,
	ingest:  true,
	data:    oneDay,
	warm: func(seed int64, sz sizes, ds *dataset) []op {
		return distinctKeys(ingestOps(seed))
	},
	pass: func(seed int64, sz sizes, ds *dataset, client, p int) []op {
		return ingestOps(seed)
	},
}
