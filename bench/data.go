package main

import (
	"fmt"

	"hyperq/internal/qlang/qval"
	"hyperq/internal/taq"
)

// dataSeed seeds the generated tables. It is a constant and does not follow
// -seed: taq's random-walk prices make the selectivity of price predicates
// (analytic_mix query 2 returns 18 k to 26 k of 40 k rows across data seeds)
// and with it every latency depend on the data seed, and the gate that
// accepts this benchmark counts the spread across seeds as noise. -seed
// drives what the clients send: op order, symbols and literals.
const dataSeed = 20160627

// sizes scales every workload; full is what BENCHMARK.json measures, smoke
// is what `go test` runs.
type sizes struct {
	tradesPerDay int // quotes are twice that
	coldDays     int // trading days in the cold_scan history
	coldTrades   int // trades per day in the cold_scan history
	coldBudget   int64
	pointOps     int // ops per client per point_lookups round
	ingestPerSec int // INSERT batches per second
	ingestBatch  int // rows per INSERT
	setups       int // set-ups per end-to-end run; setup_s is their median
	minRounds    int
}

// fullSizes fit the gate's budget of about 35 s per run, builds and three
// set-ups included, on two shared cores: set-ups of 1 to 3 s, rounds of 0.4
// to 1.5 s, so a 15 s window holds 10 to 40 rounds.
var fullSizes = sizes{
	tradesPerDay: 20_000,
	coldDays:     6, coldTrades: 6000, coldBudget: 2_000_000,
	pointOps:     1000,
	ingestPerSec: 25, ingestBatch: 200,
	setups: 3, minRounds: 5,
}

var smokeSizes = sizes{
	tradesPerDay: 1000,
	coldDays:     2, coldTrades: 1000, coldBudget: 150_000,
	pointOps:     100,
	ingestPerSec: 25, ingestBatch: 20,
	setups: 1, minRounds: 2,
}

// namedTable is one table to load, in load order.
type namedTable struct {
	name string
	tbl  *qval.Table
}

// dataset is what a workload's servers are loaded with and what the q
// interpreter answers the same queries over.
type dataset struct {
	tables []namedTable
	days   []qval.Temporal // trading dates of trades/quotes, ascending
}

func (d *dataset) table(name string) *qval.Table {
	for _, t := range d.tables {
		if t.name == name {
			return t.tbl
		}
	}
	return nil
}

// rows counts the rows of every table.
func (d *dataset) rows() int {
	n := 0
	for _, t := range d.tables {
		n += t.tbl.Len()
	}
	return n
}

// genData builds `days` consecutive trading days of trades and quotes
// (dates ascending, so the durable store partitions by day) plus the daily
// and 502-column refdata tables of the first day.
func genData(days, tradesPerDay int) *dataset {
	ds := &dataset{}
	var trades, quotes []*qval.Table
	var first *taq.Data
	for i := 0; i < days; i++ {
		date := qval.MkDate(2016, 6, 27+i)
		d := taq.Generate(taq.Config{Seed: dataSeed + int64(i), Trades: tradesPerDay, Date: date})
		if i == 0 {
			first = d
		}
		trades = append(trades, d.Trades)
		quotes = append(quotes, d.Quotes)
		ds.days = append(ds.days, date)
	}
	ds.tables = []namedTable{
		{"trades", concatTables(trades)},
		{"quotes", concatTables(quotes)},
		{"refdata", first.RefData},
		{"daily", first.Daily},
	}
	return ds
}

// concatTables appends tables of one schema row-wise. It knows the four
// vector types taq generates.
func concatTables(ts []*qval.Table) *qval.Table {
	if len(ts) == 1 {
		return ts[0]
	}
	data := make([]qval.Value, len(ts[0].Cols))
	for c := range data {
		switch x := ts[0].Data[c].(type) {
		case qval.SymbolVec:
			var out qval.SymbolVec
			for _, t := range ts {
				out = append(out, t.Data[c].(qval.SymbolVec)...)
			}
			data[c] = out
		case qval.FloatVec:
			var out qval.FloatVec
			for _, t := range ts {
				out = append(out, t.Data[c].(qval.FloatVec)...)
			}
			data[c] = out
		case qval.LongVec:
			var out qval.LongVec
			for _, t := range ts {
				out = append(out, t.Data[c].(qval.LongVec)...)
			}
			data[c] = out
		case qval.TemporalVec:
			out := qval.TemporalVec{T: x.T}
			for _, t := range ts {
				out.V = append(out.V, t.Data[c].(qval.TemporalVec).V...)
			}
			data[c] = out
		default:
			panic(fmt.Sprintf("bench: concatTables: unsupported column type %T", x))
		}
	}
	return qval.NewTable(ts[0].Cols, data)
}
