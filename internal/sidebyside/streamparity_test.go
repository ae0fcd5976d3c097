package sidebyside

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/pgdb"
	"hyperq/internal/qgen"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/wire/pgv3"
	"hyperq/internal/wire/qipc"
)

// The columnar result pipeline and the retained text path must be
// observationally identical: for any query, the QIPC encoding of the result
// must agree byte for byte. These tests drive the qdiff corpus and a seeded
// generated stream through both paths, over both backend shapes — the
// embedded DirectBackend (typed values into builders) and a loopback PG v3
// gateway (wire text into builders).

// pathStack is one Hyper-Q session pinned to a result path, over its own
// freshly loaded database.
type pathStack struct {
	name    string
	session *core.Session
	cleanup func()
	// binary counts the streamed results that had binary cells (pgv3 only)
	binary *int
}

// binaryCounter is a gateway that counts the streamed results whose columns
// came in PostgreSQL binary format.
type binaryCounter struct {
	*gateway.Gateway
	n *int
}

func (g binaryCounter) ExecStream(ctx context.Context, sql string, sink core.RowSink) error {
	return g.Gateway.ExecStream(ctx, sql, binarySpy{sink, g.n})
}

// binarySpy passes a result through, counting it if any column is binary.
type binarySpy struct {
	core.RowSink
	n *int
}

func (s binarySpy) Schema(cols []core.BackendCol, hint int) error {
	for _, c := range cols {
		if c.Binary {
			*s.n++
			break
		}
	}
	return s.RowSink.Schema(cols, hint)
}

// newPathStack loads ds into a fresh pgdb, runs the setup statements on it,
// and opens a session with the given result path over the requested backend
// kind ("direct" or "pgv3").
func newPathStack(t *testing.T, ctx context.Context, ds *qgen.Dataset, kind string, path core.ResultPath, setup ...string) *pathStack {
	t.Helper()
	db := pgdb.NewDB()
	loader := core.NewDirectBackend(db)
	for _, name := range ds.Names() {
		tbl, ok := ds.Tables[name]
		if !ok {
			continue
		}
		if err := core.LoadQTable(ctx, loader, name, tbl); err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
	}
	for _, sql := range setup {
		if _, err := loader.Exec(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	name := kind + "/columnar"
	if path == core.TextPath {
		name = kind + "/text"
	}
	var backend core.Backend = loader
	cleanup := func() {}
	binary := new(int)
	if kind == "pgv3" {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go pgdb.Serve(context.Background(), l, db, pgdb.AuthConfig{Method: pgv3.AuthMethodTrust})
		gw, err := gateway.Dial(ctx, l.Addr().String(), "hq", "", "db")
		if err != nil {
			l.Close()
			t.Fatal(err)
		}
		backend = binaryCounter{gw, binary}
		cleanup = func() {
			gw.Close()
			l.Close()
		}
	}
	s := core.NewPlatform().NewSession(backend, core.Config{ResultPath: path})
	stackCleanup := cleanup
	return &pathStack{name: name, session: s, binary: binary, cleanup: func() {
		s.Close()
		stackCleanup()
	}}
}

// runEncoded evaluates q and returns the QIPC bytes of its result.
func (ps *pathStack) runEncoded(t *testing.T, ctx context.Context, q string) ([]byte, error) {
	t.Helper()
	v, _, err := ps.session.Run(ctx, q)
	if err != nil {
		return nil, err
	}
	b, err := qipc.EncodeValue(v)
	if err != nil {
		t.Fatalf("encode result of %q: %v", q, err)
	}
	return b, nil
}

// assertPathsAgree runs one query through both stacks and requires identical
// outcomes: both error, or both succeed with byte-identical QIPC encodings.
// It reports whether both succeeded.
func assertPathsAgree(t *testing.T, ctx context.Context, a, b *pathStack, q string) bool {
	t.Helper()
	ab, aerr := a.runEncoded(t, ctx, q)
	bb, berr := b.runEncoded(t, ctx, q)
	switch {
	case (aerr == nil) != (berr == nil):
		t.Errorf("error divergence on %q: %s=%v %s=%v", q, a.name, aerr, b.name, berr)
	case aerr == nil && !bytes.Equal(ab, bb):
		t.Errorf("QIPC bytes diverge on %q: %s %d bytes, %s %d bytes", q, a.name, len(ab), b.name, len(bb))
	}
	return aerr == nil && berr == nil
}

var streamParityBackends = []string{"direct", "pgv3"}

// TestStreamParityCorpus replays every checked-in qdiff reproducer through
// the columnar pipeline and the text fallback on both backend shapes. Each
// entry once exposed a semantic edge case (NaN, infinities, nulls, negative
// zero...), which makes the corpus a sharp oracle for cell conversion.
func TestStreamParityCorpus(t *testing.T) {
	entries, err := LoadCorpus("testdata/qdiff")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no corpus entries under testdata/qdiff")
	}
	ctx := context.Background()
	for _, kind := range streamParityBackends {
		for _, e := range entries {
			t.Run(kind+"/"+e.Name, func(t *testing.T) {
				ds, err := qgen.DecodeDataset(e.Tables)
				if err != nil {
					t.Fatal(err)
				}
				col := newPathStack(t, ctx, ds, kind, core.ColumnarPath)
				defer col.cleanup()
				txt := newPathStack(t, ctx, ds, kind, core.TextPath)
				defer txt.cleanup()
				assertPathsAgree(t, ctx, col, txt, e.Query)
			})
		}
	}
}

// TestFuzzTextFallbackPath runs a seeded qdiff stream with the text result
// path pinned, keeping the fallback verified against the kdb+ reference even
// though sessions default to the columnar pipeline.
func TestFuzzTextFallbackPath(t *testing.T) {
	rep, err := Fuzz(context.Background(), FuzzConfig{Seed: 7, N: 150, ResultPath: core.TextPath})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != rep.N {
		t.Errorf("text path: %d of %d queries matched", rep.Matches, rep.N)
	}
	for _, c := range rep.Mismatches {
		t.Errorf("text path, iteration %d [%s]: %s\n  diffs: %v", c.Iteration, c.Class, c.Query, c.Diffs)
	}
}

// TestStreamParityFuzz drives a seeded generated query stream through both
// result paths in lockstep. Both sessions see the identical statement
// sequence, so even stateful queries stay comparable.
func TestStreamParityFuzz(t *testing.T) {
	ctx := context.Background()
	for _, kind := range streamParityBackends {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			n, reload := 150, 25
			if kind == "pgv3" {
				n = 60 // real sockets per query: keep the stream shorter
			}
			g := qgen.New(qgen.Config{Seed: 11})
			var col, txt *pathStack
			for i := 0; i < n; i++ {
				if i%reload == 0 {
					if col != nil {
						col.cleanup()
						txt.cleanup()
					}
					ds := g.Dataset()
					col = newPathStack(t, ctx, ds, kind, core.ColumnarPath)
					txt = newPathStack(t, ctx, ds, kind, core.TextPath)
				}
				assertPathsAgree(t, ctx, col, txt, g.Query().Q())
			}
			col.cleanup()
			txt.cleanup()
		})
	}
}

// TestStreamParityBackends holds the two backend shapes to each other on the
// columnar path: the embedded engine's typed rows (Row) and a loopback PG v3
// server's wire rows (WireRow) must encode to byte-identical QIPC. The
// per-backend suites above compare two legs that read the same wire bytes;
// here one result crossed pgserver's DataRow writer and the other never did,
// so a server-side rendering bug shows.
func TestStreamParityBackends(t *testing.T) {
	ctx := context.Background()
	pair := func(t *testing.T, ds *qgen.Dataset, setup ...string) (direct, wire *pathStack) {
		direct = newPathStack(t, ctx, ds, "direct", core.ColumnarPath, setup...)
		wire = newPathStack(t, ctx, ds, "pgv3", core.ColumnarPath, setup...)
		return direct, wire
	}
	t.Run("corpus", func(t *testing.T) {
		entries, err := LoadCorpus("testdata/qdiff")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			ds, err := qgen.DecodeDataset(e.Tables)
			if err != nil {
				t.Fatal(err)
			}
			direct, wire := pair(t, ds)
			assertPathsAgree(t, ctx, direct, wire, e.Query)
			direct.cleanup()
			wire.cleanup()
		}
	})
	t.Run("fuzz", func(t *testing.T) {
		const n, reload = 300, 30
		g := qgen.New(qgen.Config{Seed: 23})
		var direct, wire *pathStack
		ok := 0
		for i := 0; i < n; i++ {
			if i%reload == 0 {
				if direct != nil {
					direct.cleanup()
					wire.cleanup()
				}
				direct, wire = pair(t, g.Dataset())
			}
			if assertPathsAgree(t, ctx, direct, wire, g.Query().Q()) {
				ok++
			}
		}
		direct.cleanup()
		wire.cleanup()
		// agreeing by erroring on both sides proves nothing about rendering
		if ok < n/2 {
			t.Errorf("only %d of %d queries returned a result on both backends", ok, n)
		}
	})
	t.Run("wide-symbols", func(t *testing.T) {
		// more distinct symbols than a column's intern table holds, then an
		// empty string next to a NULL in the same column
		const n = 3000
		syms := make(qval.SymbolVec, n)
		is := make(qval.LongVec, n)
		fs := make(qval.FloatVec, n)
		for j := range syms {
			syms[j] = fmt.Sprintf("k%04d", (j*7919)%n)
			is[j] = int64(j % 5)
			fs[j] = float64(j%17) / 8
		}
		ds := &qgen.Dataset{Tables: map[string]*qval.Table{
			"t": qval.NewTable([]string{"s", "i", "f"}, []qval.Value{syms, is, fs}),
		}}
		direct, wire := pair(t, ds,
			fmt.Sprintf("INSERT INTO t VALUES (%d, '', 1, 0.5), (%d, NULL, 2, 1.5), (%d, '', NULL, NULL)", n, n+1, n+2))
		defer direct.cleanup()
		defer wire.cleanup()
		for _, q := range []string{
			"select from t",
			"select s, f from t where i>1",
			"select n:count i by s from t",
			"select from t where s in `k0001`k2999`",
			"select last s by i from t",
		} {
			if !assertPathsAgree(t, ctx, direct, wire, q) {
				t.Errorf("%q failed", q)
			}
		}
	})
}

// TestStreamParityBinaryCells holds pgv3's binary result cells to the text
// path. Each query runs twice on the columnar wire stack: the first run
// describes the text's columns in text, the second gets binary cells for
// the binary-set types, and its QIPC bytes must equal the text path's.
func TestStreamParityBinaryCells(t *testing.T) {
	ctx := context.Background()
	agree := func(t *testing.T, wire, txt *pathStack, q string) bool {
		wire.session.Run(ctx, q) // learns the result types; compared on the rerun
		return assertPathsAgree(t, ctx, wire, txt, q)
	}
	binary := 0
	t.Run("corpus", func(t *testing.T) {
		entries, err := LoadCorpus("testdata/qdiff")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			ds, err := qgen.DecodeDataset(e.Tables)
			if err != nil {
				t.Fatal(err)
			}
			wire := newPathStack(t, ctx, ds, "pgv3", core.ColumnarPath)
			txt := newPathStack(t, ctx, ds, "pgv3", core.TextPath)
			agree(t, wire, txt, e.Query)
			binary += *wire.binary
			wire.cleanup()
			txt.cleanup()
		}
	})
	t.Run("fuzz", func(t *testing.T) {
		const n, reload = 150, 30
		g := qgen.New(qgen.Config{Seed: 29})
		var wire, txt *pathStack
		for i := 0; i < n; i++ {
			if i%reload == 0 {
				if wire != nil {
					binary += *wire.binary
					wire.cleanup()
					txt.cleanup()
				}
				ds := g.Dataset()
				wire = newPathStack(t, ctx, ds, "pgv3", core.ColumnarPath)
				txt = newPathStack(t, ctx, ds, "pgv3", core.TextPath)
			}
			agree(t, wire, txt, g.Query().Q())
		}
		binary += *wire.binary
		wire.cleanup()
		txt.cleanup()
	})
	t.Logf("%d results came with binary cells", binary)
	if binary < 50 {
		t.Errorf("only %d results came with binary cells", binary)
	}
}
