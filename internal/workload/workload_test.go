package workload

import (
	"context"
	"testing"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/taq"
)

func smallStack(t *testing.T) *core.Session {
	t.Helper()
	db := pgdb.NewDB()
	b, err := gateway.Pipe(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Setup(context.Background(), b, taq.Config{Seed: 1, Trades: 400, Quotes: 800, WideCols: 500}); err != nil {
		t.Fatal(err)
	}
	p := core.NewPlatform()
	s := p.NewSession(b, core.Config{})
	t.Cleanup(func() { s.Close() })
	return s
}

func TestWorkloadHas25Queries(t *testing.T) {
	qs := Queries()
	if len(qs) != 25 {
		t.Fatalf("workload has %d queries, want 25 (paper §6)", len(qs))
	}
	seen := map[int]bool{}
	for i, q := range qs {
		if q.ID != i+1 {
			t.Errorf("query %d has ID %d", i+1, q.ID)
		}
		if seen[q.ID] {
			t.Errorf("duplicate ID %d", q.ID)
		}
		seen[q.ID] = true
		if q.Q == "" || q.Name == "" {
			t.Errorf("query %d incomplete", q.ID)
		}
	}
}

func TestOutlierQueriesJoinMoreTables(t *testing.T) {
	// paper §6: queries 10, 18, 19, 20 involve more tables to join
	byID := map[int]Query{}
	for _, q := range Queries() {
		byID[q.ID] = q
	}
	for _, id := range []int{10, 18, 19, 20} {
		if byID[id].Tables < 3 {
			t.Errorf("query %d should join 3+ tables, has %d", id, byID[id].Tables)
		}
	}
}

func TestEveryQueryTranslates(t *testing.T) {
	s := smallStack(t)
	ms, err := TranslateAll(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 25 {
		t.Fatalf("translated %d queries", len(ms))
	}
	for _, m := range ms {
		if m.Translation.Translation() <= 0 {
			t.Errorf("query %d: zero translation time", m.Query.ID)
		}
	}
}

func TestEveryQueryExecutes(t *testing.T) {
	s := smallStack(t)
	ms, err := RunAll(context.Background(), s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 25 {
		t.Fatalf("executed %d queries", len(ms))
	}
	for _, m := range ms {
		if m.TranslationShare() < 0 || m.TranslationShare() > 1 {
			t.Errorf("query %d: share %f out of range", m.Query.ID, m.TranslationShare())
		}
	}
}

func TestWideTableIsWide(t *testing.T) {
	data := taq.Generate(taq.Config{Seed: 7})
	if data.RefData.NumCols() < 500 {
		t.Fatalf("refdata has %d columns, paper needs 500+", data.RefData.NumCols())
	}
}

func TestGenerationDeterminism(t *testing.T) {
	a := taq.Generate(taq.Config{Seed: 42, Trades: 100, Quotes: 100, WideCols: 5})
	b := taq.Generate(taq.Config{Seed: 42, Trades: 100, Quotes: 100, WideCols: 5})
	pa, _ := a.Trades.Column("Price")
	pb, _ := b.Trades.Column("Price")
	if pa.String() != pb.String() {
		t.Fatal("same seed should generate identical data")
	}
	c := taq.Generate(taq.Config{Seed: 43, Trades: 100, Quotes: 100, WideCols: 5})
	pc, _ := c.Trades.Column("Price")
	if pa.String() == pc.String() {
		t.Fatal("different seeds should differ")
	}
}

func TestTradesTimesAreMonotone(t *testing.T) {
	data := taq.Generate(taq.Config{Seed: 3, Trades: 500, Quotes: 10, WideCols: 1})
	col, ok := data.Trades.Column("Time")
	if !ok {
		t.Fatal("no Time column")
	}
	tv, ok := col.(qval.TemporalVec)
	if !ok {
		t.Fatalf("Time column is %T", col)
	}
	for i := 1; i < len(tv.V); i++ {
		if tv.V[i] < tv.V[i-1] {
			t.Fatalf("times not monotone at %d: %d < %d", i, tv.V[i], tv.V[i-1])
		}
	}
}
