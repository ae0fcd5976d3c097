package sidebyside

import (
	"testing"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/interp"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/taq"
	"hyperq/internal/workload"
)

// TestFullWorkloadAgreement runs the entire 25-query Analytical Workload on
// both engines — the in-memory kdb+ substrate and the Hyper-Q -> SQL stack —
// and requires identical results. This is the reproduction's analog of the
// paper's side-by-side framework validating customer workloads in staging
// (§5).
func TestFullWorkloadAgreement(t *testing.T) {
	db := pgdb.NewDB()
	b, err := gateway.Pipe(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPlatform()
	s := p.NewSession(b, core.Config{})
	defer s.Close()
	fw := New(interp.New(), s, b)
	data := taq.Generate(taq.Config{Seed: 20, Trades: 600, Quotes: 1200, WideCols: 500,
		Symbols: []string{"AAPL", "MSFT", "IBM", "JPM"}})
	for name, tbl := range map[string]*qval.Table{
		"trades": data.Trades, "quotes": data.Quotes,
		"refdata": data.RefData, "daily": data.Daily,
	} {
		if err := fw.LoadTable(ctx, name, tbl); err != nil {
			t.Fatal(err)
		}
	}
	// the prelude query 12 depends on
	if rep, err := fw.Compare(ctx, "avgpx: 100.0"); err != nil || !rep.Match {
		t.Fatalf("prelude: %v %v", err, rep)
	}
	for _, q := range workload.Queries() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			rep, err := fw.Compare(ctx, q.Q)
			if err != nil {
				t.Fatalf("q%d: %v", q.ID, err)
			}
			if !rep.Match {
				t.Errorf("q%d (%s) diverges:\n%s", q.ID, q.Name, rep)
			}
		})
	}
}
