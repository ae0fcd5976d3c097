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

// A result's QIPC encoding must not depend on how its cells crossed the PG
// v3 wire. A session's first run of a SQL text gets every cell as text; the
// rerun on the same connection gets numeric, boolean, date and time columns
// as binary cells (pgv3's describe cache). These tests run each query of
// the qdiff corpus and of seeded generated streams twice on one connection
// and require byte-identical QIPC, over both transports a session reaches
// pgdb by: "direct", the in-process gateway over a socket pair
// (gateway.Pipe), and "pgv3", a loopback TCP pgdb.Serve (gateway.Dial).
// Compare's rerun holds the binary cells to the interpreter within a float
// tolerance; these hold them to the text cells exactly.

// wireStack is one Hyper-Q session over its own freshly loaded database.
type wireStack struct {
	name    string
	session *core.Session
	cleanup func()
}

// newWireStack loads ds into a fresh pgdb, runs the setup statements on it,
// and opens a session over the kind of transport named.
func newWireStack(t *testing.T, ctx context.Context, ds *qgen.Dataset, kind string, setup ...string) *wireStack {
	t.Helper()
	db := pgdb.NewDB()
	loader, err := gateway.Pipe(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	defer loader.Close()
	for _, name := range ds.Names() {
		if tbl, ok := ds.Tables[name]; ok {
			if err := core.LoadQTable(ctx, loader, name, tbl); err != nil {
				t.Fatalf("load %s: %v", name, err)
			}
		}
	}
	for _, sql := range setup {
		if _, err := loader.Exec(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	stop := func() {}
	var gw *gateway.Gateway
	if kind == "direct" {
		gw, err = gateway.Pipe(ctx, db)
	} else {
		l, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			t.Fatal(lerr)
		}
		go pgdb.Serve(context.Background(), l, db, pgdb.AuthConfig{Method: pgv3.AuthMethodTrust})
		stop = func() { l.Close() }
		gw, err = gateway.Dial(ctx, l.Addr().String(), "hq", "", "db")
	}
	if err != nil {
		stop()
		t.Fatal(err)
	}
	s := core.NewPlatform().NewSession(gw, core.Config{})
	return &wireStack{name: kind, session: s, cleanup: func() {
		s.Close()
		stop()
	}}
}

// runEncoded evaluates q and returns the QIPC bytes of its result.
func (ws *wireStack) runEncoded(t *testing.T, ctx context.Context, q string) ([]byte, error) {
	t.Helper()
	v, _, err := ws.session.Run(ctx, q)
	if err != nil {
		return nil, err
	}
	b, err := qipc.EncodeValue(v)
	if err != nil {
		t.Fatalf("encode result of %q: %v", q, err)
	}
	return b, nil
}

// runTwice runs q twice on ws and requires the two runs to agree: both
// error, or both succeed with byte-identical QIPC. It returns the rerun's
// bytes, nil when q failed.
func runTwice(t *testing.T, ctx context.Context, ws *wireStack, q string) []byte {
	t.Helper()
	text, terr := ws.runEncoded(t, ctx, q)
	binary, berr := ws.runEncoded(t, ctx, q)
	switch {
	case (terr == nil) != (berr == nil):
		t.Errorf("%s: error divergence on %q: first run %v, rerun %v", ws.name, q, terr, berr)
	case terr == nil && !bytes.Equal(text, binary):
		t.Errorf("%s: QIPC bytes diverge on %q: first run %d bytes, rerun %d bytes", ws.name, q, len(text), len(binary))
	}
	return binary
}

var streamParityBackends = []string{"direct", "pgv3"}

// TestStreamParityCorpus runs every checked-in qdiff reproducer twice over
// each transport. Each entry once exposed a semantic edge case (NaN,
// infinities, nulls, negative zero...), which makes the corpus a sharp
// oracle for cell conversion.
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
				ws := newWireStack(t, ctx, ds, kind)
				defer ws.cleanup()
				runTwice(t, ctx, ws, e.Query)
			})
		}
	}
}

// TestStreamParityFuzz runs a seeded generated query stream twice over
// each transport.
func TestStreamParityFuzz(t *testing.T) {
	ctx := context.Background()
	for _, kind := range streamParityBackends {
		t.Run(kind, func(t *testing.T) {
			const n, reload = 100, 25
			g := qgen.New(qgen.Config{Seed: 11})
			var ws *wireStack
			for i := 0; i < n; i++ {
				if i%reload == 0 {
					if ws != nil {
						ws.cleanup()
					}
					ws = newWireStack(t, ctx, g.Dataset(), kind)
				}
				runTwice(t, ctx, ws, g.Query().Q())
			}
			ws.cleanup()
		})
	}
}

// TestStreamParityBackends holds the two transports to each other: the same
// query over the socket pair and over loopback TCP must encode to
// byte-identical QIPC, so the in-process gateway qdiff and hyperq -embedded
// use shows what a served client gets.
func TestStreamParityBackends(t *testing.T) {
	ctx := context.Background()
	agree := func(t *testing.T, direct, wire *wireStack, q string) bool {
		a, b := runTwice(t, ctx, direct, q), runTwice(t, ctx, wire, q)
		if (a == nil) != (b == nil) || !bytes.Equal(a, b) {
			t.Errorf("transports diverge on %q: direct %d bytes, pgv3 %d bytes", q, len(a), len(b))
		}
		return a != nil && b != nil
	}
	pair := func(t *testing.T, ds *qgen.Dataset, setup ...string) (direct, wire *wireStack) {
		return newWireStack(t, ctx, ds, "direct", setup...), newWireStack(t, ctx, ds, "pgv3", setup...)
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
			agree(t, direct, wire, e.Query)
			direct.cleanup()
			wire.cleanup()
		}
	})
	t.Run("fuzz", func(t *testing.T) {
		const n, reload = 100, 25
		g := qgen.New(qgen.Config{Seed: 23})
		var direct, wire *wireStack
		ok := 0
		for i := 0; i < n; i++ {
			if i%reload == 0 {
				if direct != nil {
					direct.cleanup()
					wire.cleanup()
				}
				direct, wire = pair(t, g.Dataset())
			}
			if agree(t, direct, wire, g.Query().Q()) {
				ok++
			}
		}
		direct.cleanup()
		wire.cleanup()
		// agreeing by erroring on both sides proves nothing about rendering
		if ok < n/2 {
			t.Errorf("only %d of %d queries returned a result on both transports", ok, n)
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
			if !agree(t, direct, wire, q) {
				t.Errorf("%q failed", q)
			}
		}
	})
}

// binaryCounter is a backend that counts the streamed results whose
// columns came in PostgreSQL binary format.
type binaryCounter struct {
	core.Backend
	n *int
}

func (b binaryCounter) ExecStream(ctx context.Context, sql string, sink core.RowSink) error {
	return b.Backend.ExecStream(ctx, sql, binarySpy{sink, b.n})
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

// countBinary makes every framework opened until the test ends count its
// binary results into the returned counter.
func countBinary(t *testing.T) *int {
	n := new(int)
	open := pipe
	pipe = func(db *pgdb.DB) (core.Backend, error) {
		b, err := open(db)
		if err != nil {
			return nil, err
		}
		return binaryCounter{b, n}, nil
	}
	t.Cleanup(func() { pipe = open })
	return n
}

// TestStreamParityBinaryCells pins that the differential runs reach binary
// cells: Compare's rerun of a query gets them, so replaying the corpus and
// a qdiff run at seed 7 must both match the interpreter with binary results
// among them.
func TestStreamParityBinaryCells(t *testing.T) {
	ctx := context.Background()
	t.Run("corpus", func(t *testing.T) {
		binary := countBinary(t)
		entries, err := LoadCorpus("testdata/qdiff")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			r, err := ReplayEntry(ctx, e)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Match {
				t.Errorf("%s: %v", e.Name, r.Diffs)
			}
		}
		t.Logf("%d corpus results came with binary cells", *binary)
		if *binary == 0 {
			t.Error("no corpus result came with binary cells")
		}
	})
	t.Run("fuzz", func(t *testing.T) {
		binary := countBinary(t)
		rep, err := Fuzz(ctx, FuzzConfig{Seed: 7, N: 150})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range rep.Mismatches {
			t.Errorf("iteration %d [%s]: %s\n  diffs: %v", c.Iteration, c.Class, c.Query, c.Diffs)
		}
		t.Logf("%d results came with binary cells over %d queries", *binary, rep.N)
		if *binary == 0 {
			t.Error("no result came with binary cells")
		}
	})
}
