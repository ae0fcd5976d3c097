// Quickstart: translate a Q query to SQL and run it end-to-end against the
// embedded PostgreSQL-dialect backend, entirely in-process (the session
// reads its results over PG v3 from an in-process gateway).
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/qval"
)

func main() {
	ctx := context.Background()
	// 1. Start an embedded PG-compatible backend and load a Q table into it.
	db := pgdb.NewDB()
	backend, err := gateway.Pipe(ctx, db)
	if err != nil {
		log.Fatal(err)
	}
	trades := qval.NewTable(
		[]string{"Symbol", "Time", "Price", "Size"},
		[]qval.Value{
			qval.SymbolVec{"GOOG", "IBM", "GOOG", "IBM", "GOOG"},
			qval.TemporalVec{T: qval.KTime, V: []int64{
				34200000, 34201000, 34202000, 34203000, 34204000}},
			qval.FloatVec{740.10, 150.55, 740.35, 150.60, 740.20},
			qval.LongVec{100, 200, 300, 400, 500},
		})
	if err := core.LoadQTable(ctx, backend, "trades", trades); err != nil {
		log.Fatal(err)
	}

	// 2. Open a Hyper-Q session.
	platform := core.NewPlatform()
	session := platform.NewSession(backend, core.Config{})
	defer session.Close()

	// 3. Show the translation: Q in, SQL out.
	q := "select mx:max Price, vol:sum Size by Symbol from trades where Price>100"
	sql, _, err := session.Translate(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Q:  ", q)
	fmt.Println("SQL:", sql)
	fmt.Println()

	// 4. Run it for real and print the Q-side result.
	v, stats, err := session.Run(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(v)
	fmt.Printf("translation %v (parse %v, bind %v, optimize %v, serialize %v), execution %v\n",
		stats.Stages.Translation(), stats.Stages.Parse, stats.Stages.Bind,
		stats.Stages.Xform, stats.Stages.Serialize, stats.Execute)
}
