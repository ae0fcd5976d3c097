// Command qrepl is an interactive Q shell. In -local mode it evaluates
// against the in-process kdb+ substrate (package interp); with -connect it
// acts as a Q application speaking QIPC to a remote server — which can be a
// real kdb+ or a Hyper-Q proxy, demonstrating the paper's claim that Q
// applications run unchanged against either (§3.1).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/interp"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/taq"
	"hyperq/internal/wire/qipc"
)

func main() {
	connect := flag.String("connect", "", "QIPC server address (kdb+ or hyperq proxy)")
	user := flag.String("user", "repl", "handshake user")
	password := flag.String("password", "", "handshake password")
	demo := flag.Bool("demo", false, "local mode: preload synthetic TAQ data")
	viaHQ := flag.Bool("hyperq", false, "local mode: route queries through an in-process Hyper-Q stack instead of the Q interpreter")
	flag.Parse()

	var eval func(string) (qval.Value, error)
	switch {
	case *connect != "":
		conn, err := net.Dial("tcp", *connect)
		if err != nil {
			log.Fatalf("connect: %v", err)
		}
		defer conn.Close()
		if err := qipc.ClientHandshake(conn, *user, *password); err != nil {
			log.Fatalf("handshake: %v", err)
		}
		fmt.Printf("connected to %s\n", *connect)
		eval = func(q string) (qval.Value, error) {
			if err := qipc.WriteMessage(conn, qipc.Sync, qval.CharVec(q)); err != nil {
				return nil, err
			}
			msg, err := qipc.ReadMessage(conn)
			if err != nil {
				return nil, err
			}
			if qe, isErr := msg.Value.(*qval.QError); isErr {
				return nil, qe
			}
			return msg.Value, nil
		}
	case *viaHQ:
		db := pgdb.NewDB()
		b, err := gateway.Pipe(context.Background(), db)
		if err != nil {
			log.Fatalf("embedded backend: %v", err)
		}
		if *demo {
			loadDemo(b)
		}
		session := core.NewPlatform().NewSession(b, core.Config{})
		defer session.Close()
		fmt.Println("local Hyper-Q stack (Q -> XTRA -> SQL -> embedded engine)")
		eval = func(q string) (qval.Value, error) {
			v, _, err := session.Run(context.Background(), q)
			return v, err
		}
	default:
		in := interp.New()
		if *demo {
			data := taq.Generate(taq.Config{Seed: 1, Trades: 5000})
			in.SetGlobal("trades", data.Trades)
			in.SetGlobal("quotes", data.Quotes)
			in.SetGlobal("daily", data.Daily)
			fmt.Println("demo tables loaded: trades, quotes, daily")
		}
		fmt.Println("local kdb+ substrate")
		eval = in.Eval
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("q) ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch line {
		case "":
			fmt.Print("q) ")
			continue
		case `\\`, "exit", "quit":
			return
		}
		v, err := eval(line)
		if err != nil {
			fmt.Println(err)
		} else if v != nil && v != qval.Value(qval.Identity) {
			fmt.Println(v)
		}
		fmt.Print("q) ")
	}
}

func loadDemo(b core.Backend) {
	data := taq.Generate(taq.Config{Seed: 1, Trades: 5000})
	for _, t := range []struct {
		name string
		tbl  *qval.Table
	}{
		{"trades", data.Trades}, {"quotes", data.Quotes},
		{"refdata", data.RefData}, {"daily", data.Daily},
	} {
		if err := core.LoadQTable(context.Background(), b, t.name, t.tbl); err != nil {
			log.Fatalf("loading %s: %v", t.name, err)
		}
	}
	fmt.Println("demo tables loaded: trades, quotes, refdata, daily")
}
