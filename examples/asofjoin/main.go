// As-of join: the paper's Example 1 — "a standard point-in-time query to
// get the prevailing quote as of each trade", described as one of the most
// commonly used queries by financial market analysts. The example runs the
// query both on the kdb+ substrate (the real-time baseline) and through
// Hyper-Q against the SQL backend, then uses the side-by-side framework
// (paper §5) to verify the two agree.
//
//	go run ./examples/asofjoin
package main

import (
	"context"
	"fmt"
	"log"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/interp"
	"hyperq/internal/sidebyside"
	"hyperq/internal/taq"
)

func main() {
	ctx := context.Background()
	// synthetic TAQ market data (stand-in for NYSE TAQ)
	data := taq.Generate(taq.Config{
		Seed: 2016, Trades: 2000, Quotes: 4000,
		Symbols: []string{"GOOG", "IBM", "AAPL"},
	})

	// the two worlds: a kdb+ substrate and a Hyper-Q session over SQL
	kdb := interp.New()
	db := pgdb.NewDB()
	backend, err := gateway.Pipe(ctx, db)
	if err != nil {
		log.Fatal(err)
	}
	session := core.NewPlatform().NewSession(backend, core.Config{})
	defer session.Close()

	fw := sidebyside.New(kdb, session, backend)
	if err := fw.LoadTable(ctx, "trades", data.Trades); err != nil {
		log.Fatal(err)
	}
	if err := fw.LoadTable(ctx, "quotes", data.Quotes); err != nil {
		log.Fatal(err)
	}

	// Example 1, adapted to the generated schema: prevailing quote as of
	// each GOOG trade
	q := "aj[`Symbol`Time; select Symbol, Time, Price, Size from trades where Symbol=`GOOG; select Symbol, Time, Bid, Ask from quotes]"

	sql, _, err := session.Translate(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Q query (paper Example 1):")
	fmt.Println(" ", q)
	fmt.Println("\ntranslates to the left-outer-join + window SQL of Figure 2:")
	fmt.Println(" ", truncate(sql, 240))
	fmt.Println()

	rep, err := fw.Compare(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("side-by-side verdict:", verdict(rep.Match))
	if rep.HyperQResult != nil {
		fmt.Println("\nfirst rows through Hyper-Q:")
		fmt.Println(rep.HyperQResult.Slice(0, min(5, rep.HyperQResult.Len())))
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + " ..."
}

func verdict(ok bool) string {
	if ok {
		return "MATCH — kdb+ substrate and Hyper-Q/SQL agree row for row"
	}
	return "MISMATCH"
}
