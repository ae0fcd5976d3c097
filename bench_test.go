// Package hyperq_test is the benchmark harness for the paper's evaluation
// (§6). One benchmark per figure plus the ablations DESIGN.md calls out:
//
//	BenchmarkFigure6_*      translation vs execution per workload query
//	BenchmarkFigure7_*      translation stage split
//	BenchmarkMetadataCache  MDI caching on/off (§3.2.3, §6)
//	BenchmarkMaterialization logical (view) vs physical (temp table) (§4.3)
//	BenchmarkResultPivot    row-stream -> column pivot (§4.2)
//	BenchmarkQIPC*          wire encode/decode and compression
//	BenchmarkAblation*      Xformer rules on/off (§3.3)
//
// The serving stack (proxy, pool, cache, PG v3, pgserver as processes) is
// measured by the end-to-end benchmark in bench/, not here.
//
// Run: go test -bench=. -benchmem
package hyperq_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/interp"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/taq"
	"hyperq/internal/wire/pgv3"
	"hyperq/internal/wire/qipc"
	"hyperq/internal/workload"
	"hyperq/internal/xformer"
)

// ctx for benchmark queries: benchmarks exercise the happy path, no deadline.
var ctx = context.Background()

// benchStack caches one loaded backend per data size across benchmarks.
var benchStacks = map[int]*pgdb.DB{}

func stackFor(b *testing.B, trades int) (*core.Session, core.Backend) {
	b.Helper()
	db, ok := benchStacks[trades]
	if !ok {
		db = pgdb.NewDB()
		loader := pipe(b, db)
		_, err := workload.Setup(context.Background(), loader, taq.Config{Seed: 1, Trades: trades, NumSymbols: 100})
		loader.Close()
		if err != nil {
			b.Fatal(err)
		}
		benchStacks[trades] = db
	}
	backend := pipe(b, db)
	s := core.NewPlatform().NewSession(backend, core.Config{MDITTL: 5 * time.Minute})
	b.Cleanup(func() { s.Close() })
	return s, backend
}

// pipe opens an in-process gateway to db; a session over it closes it.
func pipe(b *testing.B, db *pgdb.DB) core.Backend {
	b.Helper()
	gw, err := gateway.Pipe(ctx, db)
	if err != nil {
		b.Fatal(err)
	}
	return gw
}

// BenchmarkFigure6_Translation times pure query translation (the overhead
// Hyper-Q adds) for each workload query.
func BenchmarkFigure6_Translation(b *testing.B) {
	for _, q := range workload.Queries() {
		b.Run(fmt.Sprintf("q%02d", q.ID), func(b *testing.B) {
			s, _ := stackFor(b, 5000)
			if _, _, err := s.Run(ctx, "avgpx: 100.0"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Translate(ctx, q.Q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure6_EndToEnd times full translate+execute per query; with
// BenchmarkFigure6_Translation it yields the Figure 6 ratio.
func BenchmarkFigure6_EndToEnd(b *testing.B) {
	for _, q := range workload.Queries() {
		b.Run(fmt.Sprintf("q%02d", q.ID), func(b *testing.B) {
			s, _ := stackFor(b, 5000)
			if _, _, err := s.Run(ctx, "avgpx: 100.0"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Run(ctx, q.Q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure7_Stages reports the per-stage translation split over the
// whole workload as custom metrics (ns per stage per query).
func BenchmarkFigure7_Stages(b *testing.B) {
	s, _ := stackFor(b, 5000)
	if _, _, err := s.Run(ctx, "avgpx: 100.0"); err != nil {
		b.Fatal(err)
	}
	var agg core.StageTiming
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := workload.TranslateAll(ctx, s)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range ms {
			agg.Add(m.Translation)
		}
	}
	total := float64(agg.Translation())
	if total > 0 {
		b.ReportMetric(100*float64(agg.Parse)/total, "parse%")
		b.ReportMetric(100*float64(agg.Bind)/total, "bind%")
		b.ReportMetric(100*float64(agg.Xform)/total, "optimize%")
		b.ReportMetric(100*float64(agg.Serialize)/total, "serialize%")
	}
}

// BenchmarkMetadataCache compares binding with the metadata cache enabled
// (the paper's experimental setting) vs disabled (every lookup is a catalog
// round trip).
func BenchmarkMetadataCache(b *testing.B) {
	const q = "select Symbol, Price, Close, Sector from trades lj daily lj refdata where Size>2000"
	for _, mode := range []struct {
		name string
		ttl  time.Duration
	}{{"enabled", 5 * time.Minute}, {"disabled", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			db, ok := benchStacks[5000]
			if !ok {
				stackFor(b, 5000)
				db = benchStacks[5000]
			}
			backend := pipe(b, db)
			ttl := mode.ttl
			if ttl < 0 {
				ttl = time.Nanosecond // effectively disabled
			}
			s := core.NewPlatform().NewSession(backend, core.Config{MDITTL: ttl})
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Translate(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.MDI().Stats().CatalogRTs)/float64(b.N), "catalogRTs/op")
		})
	}
}

// BenchmarkMaterialization compares physical (temp table) and logical
// (view) materialization of variable assignments (§4.3).
func BenchmarkMaterialization(b *testing.B) {
	const q = "gg: select Price, Size from trades where Symbol=`SYM0001; select max Price from gg"
	for _, mode := range []struct {
		name string
		m    core.Materialization
	}{{"physical_temp_table", core.Physical}, {"logical_view", core.Logical}} {
		b.Run(mode.name, func(b *testing.B) {
			db, ok := benchStacks[5000]
			if !ok {
				stackFor(b, 5000)
				db = benchStacks[5000]
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				backend := pipe(b, db)
				s := core.NewPlatform().NewSession(backend, core.Config{Materialization: mode.m})
				if _, _, err := s.Run(ctx, q); err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}

// BenchmarkResultPivot measures the row-oriented -> column-oriented result
// conversion the paper describes in §4.2: batches of PG v3 DataRow cells,
// as a served query's rerun gets them (Price, Size and Time in binary,
// Symbol as varchar text, the builders presized by the rerun's row-count
// hint), decode a column at a time into the column builders a session's
// TableSink pivots them with into a single Q table.
func BenchmarkResultPivot(b *testing.B) {
	cols := []core.BackendCol{
		{Name: "Symbol", SQLType: "varchar"},
		{Name: "Price", SQLType: "double precision", Binary: true},
		{Name: "Size", SQLType: "bigint", Binary: true},
		{Name: "Time", SQLType: "time", Binary: true},
	}
	var batch pgv3.Batch
	batch.Reset(len(cols))
	syms := []string{"GOOG", "IBM", "MSFT", "AAPL"}
	for r := range pgv3.BatchRows {
		batch.AppendRow([][]byte{
			[]byte(syms[r%len(syms)]),
			binary.BigEndian.AppendUint64(nil, math.Float64bits(101.25+float64(r%50))),
			binary.BigEndian.AppendUint64(nil, uint64(100*(r%9))),
			binary.BigEndian.AppendUint64(nil, uint64(34_200_000_000+1_000_000*int64(r))),
		})
	}
	for _, rows := range []int{1024, 10240, 102400} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink := core.GetTableSink()
				if err := sink.Schema(cols, rows); err != nil {
					b.Fatal(err)
				}
				for r := 0; r < rows; r += batch.Rows() {
					if err := sink.WireBatch(&batch); err != nil {
						b.Fatal(err)
					}
				}
				sink.Table()
				sink.Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// BenchmarkQIPCEncodeTable measures serializing a result table into the
// QIPC object format.
func BenchmarkQIPCEncodeTable(b *testing.B) {
	tbl := benchTable(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qipc.EncodeValue(tbl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQIPCDecodeTable measures the reverse direction.
func BenchmarkQIPCDecodeTable(b *testing.B) {
	raw, err := qipc.EncodeValue(benchTable(10000))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := qipc.DecodeValue(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQIPCCompression measures the kx LZ compression on a framed
// message (§3.1: the QIPC protocol includes data compression).
func BenchmarkQIPCCompression(b *testing.B) {
	body, err := qipc.EncodeValue(benchTable(10000))
	if err != nil {
		b.Fatal(err)
	}
	raw := make([]byte, 8+len(body))
	raw[0] = 1
	raw[4] = byte(len(raw))
	raw[5] = byte(len(raw) >> 8)
	raw[6] = byte(len(raw) >> 16)
	copy(raw[8:], body)
	b.Run("compress", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if _, ok := qipc.Compress(raw); !ok {
				b.Fatal("should compress")
			}
		}
	})
	z, _ := qipc.Compress(raw)
	b.Run("decompress", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if _, err := qipc.Decompress(z); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ratio", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = z
		}
		b.ReportMetric(float64(len(raw))/float64(len(z)), "x")
	})
}

// BenchmarkAblationXformer measures translation with individual Xformer
// rules disabled — the design-choice ablations DESIGN.md calls out.
func BenchmarkAblationXformer(b *testing.B) {
	const q = "select Symbol, Price, Close, Sector from trades lj daily lj refdata where Symbol=`SYM0002"
	configs := []struct {
		name string
		cfg  xformer.Config
	}{
		{"all_rules", xformer.Config{}},
		{"no_null_semantics", xformer.Config{DisableNullSemantics: true}},
		{"no_column_pruning", xformer.Config{DisableColumnPruning: true}},
		{"no_ordering", xformer.Config{DisableOrdering: true}},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			db, ok := benchStacks[5000]
			if !ok {
				stackFor(b, 5000)
				db = benchStacks[5000]
			}
			backend := pipe(b, db)
			s := core.NewPlatform().NewSession(backend, core.Config{Xformer: c.cfg, MDITTL: 5 * time.Minute})
			defer s.Close()
			var sqlLen int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sql, _, err := s.Translate(ctx, q)
				if err != nil {
					b.Fatal(err)
				}
				sqlLen = len(sql)
			}
			b.ReportMetric(float64(sqlLen), "sql_bytes")
		})
	}
}

// BenchmarkAblationExecutionPruning measures end-to-end execution with and
// without column pruning over the wide table — the §3.3 performance claim.
func BenchmarkAblationExecutionPruning(b *testing.B) {
	const q = "select Symbol, Price, attr_000 from trades lj refdata where Size>4000"
	for _, c := range []struct {
		name string
		cfg  xformer.Config
	}{
		{"pruned", xformer.Config{}},
		{"unpruned", xformer.Config{DisableColumnPruning: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			db, ok := benchStacks[5000]
			if !ok {
				stackFor(b, 5000)
				db = benchStacks[5000]
			}
			backend := pipe(b, db)
			s := core.NewPlatform().NewSession(backend, core.Config{Xformer: c.cfg, MDITTL: 5 * time.Minute})
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Run(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKdbBaselineVsHyperQ compares the same Q query on the in-memory
// kdb+ substrate and through the full Hyper-Q -> SQL stack, quantifying the
// real-time vs historical trade-off the paper's introduction motivates.
func BenchmarkKdbBaselineVsHyperQ(b *testing.B) {
	data := taq.Generate(taq.Config{Seed: 1, Trades: 5000, NumSymbols: 100})
	const q = "select mx:max Price, vol:sum Size by Symbol from trades"
	b.Run("kdb_substrate", func(b *testing.B) {
		in := newInterp(data)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := in.Eval(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hyperq_sql", func(b *testing.B) {
		s, _ := stackFor(b, 5000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Run(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchTable(n int) *qval.Table {
	syms := make(qval.SymbolVec, n)
	prices := make(qval.FloatVec, n)
	sizes := make(qval.LongVec, n)
	for i := 0; i < n; i++ {
		syms[i] = []string{"GOOG", "IBM", "MSFT", "AAPL"}[i%4]
		prices[i] = 100 + float64(i%97)/7
		sizes[i] = int64(100 * (i%17 + 1))
	}
	return qval.NewTable([]string{"Symbol", "Price", "Size"}, []qval.Value{syms, prices, sizes})
}

func newInterp(data *taq.Data) *interp.Interp {
	in := interp.New()
	in.SetGlobal("trades", data.Trades)
	in.SetGlobal("quotes", data.Quotes)
	in.SetGlobal("daily", data.Daily)
	return in
}
