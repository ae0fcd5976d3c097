// Command qdiff is the differential query fuzzer: it generates random typed
// tables and random q-sql queries, runs each query through both the kdb+
// substrate (package interp) and the Hyper-Q → SQL pipeline, and reports
// every divergence (paper §5's side-by-side methodology, automated). Hyper-Q
// reads each result over PG v3 from the embedded engine in this process, and
// runs each query twice so the rerun's binary cells are compared too.
//
//	qdiff -seed 1 -n 10000            # fuzz, exit 1 on any divergence
//	qdiff -seed 1 -n 1000 -shrink     # minimize failures before reporting
//	qdiff -seed 1 -n 1000 -out DIR    # persist reproducers as corpus JSON
//
// The report is JSON on stdout; diagnostics go to stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hyperq/internal/config"
	"hyperq/internal/pgdb"
	"hyperq/internal/sidebyside"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed (same seed, same run)")
	n := flag.Int("n", 1000, "number of queries to generate")
	shrink := flag.Bool("shrink", false, "minimize failing cases before reporting")
	out := flag.String("out", "", "directory to write failing cases as corpus JSON")
	maxRows := flag.Int("maxrows", 0, "max fact-table rows (0 = generator default)")
	persistMode := flag.Bool("persist", false, "disk-backed mode: checkpoint every dataset to splayed column files under a temporary -data-dir and force each query to fault its segments back from disk")
	index := flag.Bool("index", false, "force-enable secondary indexes and load tables in halves around an index-building probe, so queries run against incrementally-maintained indexes")
	exec := pgdb.ExecCompiled
	flag.Func("exec", "execution `engine` under test: compiled (the serving engine, default) or interpreted (the reference walker)", func(s string) (err error) {
		exec, err = pgdb.ParseExecMode(s)
		return err
	})
	// the engine settings qdiff varies, spelled as the servers spell them
	var engine config.Engine
	engine.RegisterFlags(flag.CommandLine, "mem-budget")
	flag.Parse()

	if *persistMode {
		dir, err := os.MkdirTemp("", "qdiff-persist-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "qdiff:", err)
			os.Exit(2)
		}
		defer os.RemoveAll(dir)
		engine.DataDir = dir
	}
	if err := engine.Validate(flag.CommandLine); err != nil {
		fmt.Fprintf(os.Stderr, "qdiff: %v (-persist supplies it)\n", err)
		os.Exit(2)
	}

	rep, err := sidebyside.Fuzz(context.Background(), sidebyside.FuzzConfig{
		Seed:    *seed,
		N:       *n,
		Shrink:  *shrink,
		MaxRows: *maxRows,
		Engine:  engine,
		Exec:    exec,
		Index:   *index,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "qdiff:", err)
		os.Exit(2)
	}

	if *out != "" {
		for i, c := range rep.Mismatches {
			e := &sidebyside.CorpusEntry{
				Name:   fmt.Sprintf("seed%d-iter%d", c.Seed, c.Iteration),
				Note:   fmt.Sprintf("class=%s found by qdiff -seed %d (iteration %d)", c.Class, c.Seed, c.Iteration),
				Query:  c.Query,
				Tables: c.Tables,
			}
			if err := sidebyside.WriteCorpusEntry(*out, e); err != nil {
				fmt.Fprintf(os.Stderr, "qdiff: write case %d: %v\n", i, err)
				os.Exit(2)
			}
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "qdiff:", err)
		os.Exit(2)
	}
	if len(rep.Mismatches) > 0 {
		fmt.Fprintf(os.Stderr, "qdiff: %d divergence(s) in %d queries (seed %d)\n",
			len(rep.Mismatches), rep.N, rep.Seed)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "qdiff: %d queries, %d matches (%d as agreeing errors), 0 divergences\n",
		rep.N, rep.Matches, rep.BothError)
}
