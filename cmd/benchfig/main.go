// Command benchfig regenerates the paper's evaluation figures (§6) from the
// reproduction:
//
//	-figure 6   per-query translation time as % of total execution time for
//	            the 25-query Analytical Workload (paper: mean ≈ 0.5%,
//	            max ≈ 4%, outliers at queries 10, 18, 19, 20)
//	-figure 7   split of translation time across stages (parse, bind,
//	            optimize, serialize) relative to total translation (paper:
//	            optimization and serialization dominate)
//
// Absolute numbers differ from the paper's testbed (Greenplum on customer
// hardware vs an embedded engine); the shape of the series is the
// reproduction target. -delay adds artificial backend latency to model a
// networked MPP system.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/pgdb"
	"hyperq/internal/taq"
	"hyperq/internal/workload"
)

func main() {
	figure := flag.Int("figure", 6, "figure to regenerate (6 or 7)")
	trades := flag.Int("trades", 50000, "trade count of the data set")
	symbols := flag.Int("symbols", 200, "ticker universe size (rows of the reference tables)")
	reps := flag.Int("reps", 3, "repetitions per query (best kept)")
	seed := flag.Int64("seed", 1, "data seed")
	delay := flag.Duration("delay", 2*time.Millisecond, "per-statement backend dispatch latency, modeling the MPP cluster of the paper's testbed (0 disables)")
	flag.Parse()

	db := pgdb.NewDB()
	b := core.NewDirectBackend(db)
	b.Delay = *delay
	if _, err := workload.Setup(context.Background(), b, taq.Config{Seed: *seed, Trades: *trades, NumSymbols: *symbols}); err != nil {
		log.Fatalf("setup: %v", err)
	}
	p := core.NewPlatform()
	s := p.NewSession(b, core.Config{MDITTL: 5 * time.Minute})
	defer s.Close()

	ms, err := workload.RunAll(context.Background(), s, *reps)
	if err != nil {
		log.Fatalf("workload: %v", err)
	}
	switch *figure {
	case 6:
		printFigure6(ms)
	case 7:
		printFigure7(ms)
	default:
		fmt.Fprintln(os.Stderr, "unknown figure; use 6 or 7")
		os.Exit(2)
	}
}

func printFigure6(ms []workload.Measurement) {
	fmt.Println("Figure 6 — Efficiency of query translation")
	fmt.Println("query  translation  execution    translation%  bar")
	var sum, max float64
	maxID := 0
	for _, m := range ms {
		share := m.TranslationShare() * 100
		sum += share
		if share > max {
			max, maxID = share, m.Query.ID
		}
		fmt.Printf("%5d  %11v  %9v  %11.2f%%  %s\n",
			m.Query.ID, m.Translation.Translation().Round(time.Microsecond),
			m.Execution.Round(time.Microsecond), share, bar(share, 8))
	}
	fmt.Printf("\nmean translation share: %.2f%%   max: %.2f%% (query %d)\n",
		sum/float64(len(ms)), max, maxID)
	fmt.Println("paper: mean ~0.5%, max ~4%, outliers at queries 10, 18, 19, 20")
}

func printFigure7(ms []workload.Measurement) {
	fmt.Println("Figure 7 — Time consumed by translation stages")
	fmt.Println("query    parse%    bind%  optimize%  serialize%")
	var tp, tb, tx, ts time.Duration
	for _, m := range ms {
		st := m.Translation
		total := st.Translation()
		if total == 0 {
			continue
		}
		tp += st.Parse
		tb += st.Bind
		tx += st.Xform
		ts += st.Serialize
		fmt.Printf("%5d  %7.1f%%  %7.1f%%  %8.1f%%  %9.1f%%\n",
			m.Query.ID,
			pct(st.Parse, total), pct(st.Bind, total),
			pct(st.Xform, total), pct(st.Serialize, total))
	}
	total := tp + tb + tx + ts
	fmt.Printf("\noverall  %7.1f%%  %7.1f%%  %8.1f%%  %9.1f%%\n",
		pct(tp, total), pct(tb, total), pct(tx, total), pct(ts, total))
	fmt.Println("paper: optimization and serialization consume most of the translation time")
}

func pct(d, total time.Duration) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(d) / float64(total)
}

func bar(v float64, perUnit int) string {
	n := int(v * float64(perUnit))
	if n > 60 {
		n = 60
	}
	return strings.Repeat("#", n)
}
