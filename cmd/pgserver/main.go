// Command pgserver runs the embedded PostgreSQL-dialect database as a
// standalone PG v3 server — the reproduction's stand-in for the Greenplum
// backend of the paper's evaluation. With -demo it preloads the synthetic
// TAQ data set so a Hyper-Q proxy can serve the Analytical Workload.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"hyperq/internal/config"
	"hyperq/internal/gateway"
	"hyperq/internal/pgdb"
	"hyperq/internal/taq"
	"hyperq/internal/wire/pgv3"
	"hyperq/internal/workload"
)

// options is the parsed command line; the engine's share of it is declared
// in internal/config.
type options struct {
	engine                   config.Engine
	listen                   string
	auth                     pgv3.AuthMethod
	authMode, user, password string
	demo                     bool
	trades                   int
	seed                     int64
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.listen, "listen", "127.0.0.1:5432", "address to listen on")
	fs.StringVar(&o.authMode, "auth", "trust", "authentication: trust, cleartext or md5")
	fs.StringVar(&o.user, "user", "hyperq", "accepted user name")
	fs.StringVar(&o.password, "password", "hyperq", "accepted password")
	fs.BoolVar(&o.demo, "demo", false, "preload the synthetic TAQ data set")
	fs.IntVar(&o.trades, "trades", 10000, "demo trade count")
	fs.Int64Var(&o.seed, "seed", 1, "demo data seed")
	o.engine.RegisterFlags(fs)
	return o
}

// validate checks the parsed flags of fs before anything is opened.
func (o *options) validate(fs *flag.FlagSet) error {
	switch o.authMode {
	case "trust":
		o.auth = pgv3.AuthMethodTrust
	case "cleartext":
		o.auth = pgv3.AuthMethodCleartext
	case "md5":
		o.auth = pgv3.AuthMethodMD5
	default:
		return fmt.Errorf("unknown auth mode %q", o.authMode)
	}
	return o.engine.Validate(fs)
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := o.validate(flag.CommandLine); err != nil {
		fmt.Fprintln(os.Stderr, "pgserver:", err)
		os.Exit(2)
	}
	// ctx is the server's life: SIGINT/SIGTERM cancels it and Serve drains
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		log.Fatal(err)
	}
}

// run serves until ctx is canceled. Every exit, a startup failure included,
// goes through the engine's Close, so a durable store is always left
// checkpointed.
func run(ctx context.Context, o *options) (err error) {
	eng, err := o.engine.Open()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := eng.Close(); err == nil {
			err = cerr
		}
	}()
	if eng.Restored {
		log.Printf("restored durable catalog from %s", o.engine.DataDir)
	}
	if eng.StatsAddr != "" {
		log.Printf("stats on http://%s/debug/vars", eng.StatsAddr)
	}
	if o.demo && !eng.Restored { // a restored catalog wins over reseeding
		loader, err := gateway.Pipe(ctx, eng.DB)
		if err != nil {
			return err
		}
		data, err := workload.Setup(ctx, loader, taq.Config{Seed: o.seed, Trades: o.trades})
		loader.Close()
		if err != nil {
			return err
		}
		log.Printf("demo data loaded: %d trades, %d quotes, %d-column refdata",
			data.Trades.Len(), data.Quotes.Len(), data.RefData.NumCols())
	}

	l, err := net.Listen("tcp", o.listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	log.Printf("pgserver listening on %s (auth=%s)", o.listen, o.authMode)
	if err := pgdb.Serve(ctx, l, eng.DB, pgdb.AuthConfig{
		Method: o.auth,
		Users:  map[string]string{o.user: o.password},
	}); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}
