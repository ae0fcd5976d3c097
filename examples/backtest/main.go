// Backtest: the historical-analytics scenario that motivates the paper —
// the same Q code a trading desk runs in real time against kdb+ executes
// unchanged against the scale-out SQL backend for backtesting over history.
// This example computes per-symbol VWAP benchmarks and evaluates a simple
// "buy below VWAP" fill-quality rule, entirely in Q, through Hyper-Q.
//
//	go run ./examples/backtest
package main

import (
	"context"
	"fmt"
	"log"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/taq"
	"hyperq/internal/workload"
)

func main() {
	ctx := context.Background()
	db := pgdb.NewDB()
	backend, err := gateway.Pipe(ctx, db)
	if err != nil {
		log.Fatal(err)
	}
	// a bigger "historical" data set than a single in-memory day
	if _, err := workload.Setup(ctx, backend, taq.Config{Seed: 7, Trades: 30000}); err != nil {
		log.Fatal(err)
	}
	session := core.NewPlatform().NewSession(backend, core.Config{})
	defer session.Close()

	run := func(q string) qval.Value {
		v, _, err := session.Run(ctx, q)
		if err != nil {
			log.Fatalf("%s: %v", q, err)
		}
		return v
	}

	fmt.Println("== per-symbol VWAP benchmark (analytical aggregate over history) ==")
	fmt.Println(run("select vwap:Size wavg Price, vol:sum Size by Symbol from trades"))

	fmt.Println("== intraday volume profile, 15-minute buckets, AAPL ==")
	fmt.Println(run("select vol:sum Size by bucket:900000 xbar Time from trades where Symbol=`AAPL"))

	// a Q function, exactly as an analyst would define on a kdb+ server;
	// Hyper-Q stores the definition and unrolls it on each invocation
	// (paper §4.3), materializing the local variable as a temp table
	fmt.Println("== fill-quality function, unrolled per symbol ==")
	run("fillq:{[s] dt: select Price, Size from trades where Symbol=s; :select worst:max Price, best:min Price, avgpx:avg Price from dt;}")
	for _, sym := range []string{"AAPL", "GOOG", "JPM"} {
		fmt.Printf("-- fillq[`%s]\n", sym)
		fmt.Println(run(fmt.Sprintf("fillq[`%s]", sym)))
	}

	fmt.Println("== enriched execution report: trades joined to daily stats and sector ==")
	fmt.Println(run("select Symbol, Price, Size, Close, Sector from trades lj daily lj refdata where Size>4500"))
}
