// Proxy: the full network deployment of Figure 1, in one process for
// demonstration. It starts (a) the embedded PG-compatible database behind a
// real PG v3 TCP server, (b) the Hyper-Q proxy listening on a QIPC port and
// connecting to the database through the Gateway, and (c) a Q application
// that performs the QIPC handshake and sends sync queries — three actual
// TCP connections, every byte crossing real sockets in both wire formats.
//
//	go run ./examples/proxy
package main

import (
	"context"
	"fmt"
	"log"
	"net"

	"hyperq/internal/core"
	"hyperq/internal/endpoint"
	"hyperq/internal/gateway"
	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/taq"
	"hyperq/internal/wire/pgv3"
	"hyperq/internal/wire/qipc"
	"hyperq/internal/xc"
)

func main() {
	// --- backend: embedded engine behind a PG v3 server with MD5 auth ---
	db := pgdb.NewDB()
	loader, err := gateway.Pipe(context.Background(), db)
	if err != nil {
		log.Fatal(err)
	}
	data := taq.Generate(taq.Config{Seed: 5, Trades: 5000})
	for _, t := range []struct {
		name string
		tbl  *qval.Table
	}{{"trades", data.Trades}, {"quotes", data.Quotes}, {"daily", data.Daily}} {
		if err := core.LoadQTable(context.Background(), loader, t.name, t.tbl); err != nil {
			log.Fatal(err)
		}
	}
	loader.Close()
	pgL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go pgdb.Serve(context.Background(), pgL, db, pgdb.AuthConfig{
		Method: pgv3.AuthMethodMD5,
		Users:  map[string]string{"hyperq": "s3cret"},
	})
	fmt.Println("pg backend  :", pgL.Addr(), "(PG v3, MD5 auth)")

	// --- Hyper-Q proxy: QIPC in, PG v3 out ---
	platform := core.NewPlatform()
	qL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go endpoint.Serve(context.Background(), qL, endpoint.Config{
		Auth: func(user, pass string) bool { return user == "trader" && pass == "moneybags" },
		NewHandler: func(creds *qipc.Credentials) (endpoint.Handler, func(), error) {
			gw, err := gateway.Dial(context.Background(), pgL.Addr().String(), "hyperq", "s3cret", "hyperq")
			if err != nil {
				return nil, nil, err
			}
			session := platform.NewSession(gw, core.Config{})
			compiler := xc.New(session)
			h := endpoint.HandlerFunc(func(ctx context.Context, q string) (qval.Value, error) {
				v, _, err := compiler.HandleQuery(ctx, q)
				return v, err
			})
			return h, func() { session.Close() }, nil
		},
	})
	fmt.Println("hyperq proxy:", qL.Addr(), "(QIPC)")

	// --- the Q application: dials the "kdb+" port, none the wiser ---
	conn, err := net.Dial("tcp", qL.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	if err := qipc.ClientHandshake(conn, "trader", "moneybags"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("q app       : handshake accepted")
	fmt.Println()

	ask := func(q string) {
		if err := qipc.WriteMessage(conn, qipc.Sync, qval.CharVec(q)); err != nil {
			log.Fatal(err)
		}
		msg, err := qipc.ReadMessage(conn)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("q)", q)
		fmt.Println(msg.Value)
	}

	ask("select n:count Price, hi:max Price by Symbol from trades")
	ask("aj[`Symbol`Time; select Symbol, Time, Price from trades where Symbol=`AAPL; select Symbol, Time, Bid, Ask from quotes]")
	ask("select from daily")
}
