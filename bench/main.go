// Command bench is the repository's one end-to-end benchmark: it builds
// cmd/pgserver and cmd/hyperq, starts them with their default flags, loads
// generated TAQ data over PG v3, drives q text over QIPC sockets, checks the
// answers against the q interpreter and prints every metric by name. See
// README.md in this directory and BENCHMARK.json at the root.
//
//	go run -C bench . -workload analytic_mix -seed 1           one run
//	go run -C bench . -workload all -seed 1                    all four
//	go run -C bench . -workload cold_scan -seed 1 -trace 1     per-layer run
//	go run -C bench . -selfcheck                               noise check
//
// It needs Linux: it reads /proc and asks the kernel to kill the servers if
// the benchmark itself dies.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run: analytic_mix, point_lookups, cold_scan, ingest_mix or all")
	seed := flag.Int64("seed", 1, "seed of the clients' op lists: order, symbols, literals")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1 runs the traced, per-layer run; 0 the end-to-end run")
	smoke := flag.Bool("smoke", false, "tiny sizes: a functional check, not a measurement")
	selfcheck := flag.Bool("selfcheck", false, "run two interleaved sets of end-to-end runs per workload and compare them with the bounds")
	runs := flag.Int("runs", 5, "runs per set and workload in -selfcheck")
	flag.Parse()

	// SIGINT/SIGTERM cancel the run so deferred teardown stops the servers
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *workloadName, *seed, *seconds, *trace != 0, *smoke, *selfcheck, *runs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, seed int64, seconds float64, traced, smoke, selfcheck bool, runs int) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	binDir, err := buildServers(root)
	if err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	e := &env{root: root, binDir: binDir, scratch: scratch}
	sz := fullSizes
	if smoke {
		sz = smokeSizes
	}
	if selfcheck {
		return selfCheck(ctx, e, sz, seconds, runs)
	}
	var todo []spec
	if name == "all" {
		todo = specs
	} else if sp, ok := specByName(name); ok {
		todo = []spec{sp}
	} else {
		return fmt.Errorf("unknown -workload %q", name)
	}
	for _, sp := range todo {
		r, err := runOne(ctx, e, sp, sz, seed, seconds, traced)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		report(sp, seed, traced, r)
	}
	return nil
}

func runOne(ctx context.Context, e *env, sp spec, sz sizes, seed int64, seconds float64, traced bool) (*result, error) {
	if traced {
		return runTraced(ctx, e, sp, sz, seed, seconds)
	}
	return runSpawned(ctx, e, sp, sz, seed, seconds, false)
}

// report prints every number the run measured, with its unit where the
// contract names one, then the contract's JSON object as the last line: the
// end-to-end metrics of an end-to-end run, the per-layer metrics of a traced
// one.
func report(sp spec, seed int64, traced bool, r *result) {
	fmt.Printf("# %s seed=%d trace=%v: %d attempted, %d failed\n", sp.name, seed, traced, r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-28s %14.4f %s\n", name, r.metrics[name], units[name])
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		out.Metrics[d.name] = value{r.metrics[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // floats and strings only
	}
	fmt.Println(string(line))
}
