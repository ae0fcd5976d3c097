package main

import (
	"context"
	"fmt"
	"math"
)

// selfCheck measures the benchmark's own noise the way its gate does: two
// sets of end-to-end runs of the same binaries, interleaved (A B A B ...) so
// that drift of the machine hits both alike, every run with another seed. Per
// metric it prints each set's median and quartiles, how far the second
// median is on the worse side of the first, and the spread (interquartile
// range over median) of all runs. It fails when a difference exceeds half
// the metric's bound or a spread exceeds the bound itself; the sizes in
// data.go were chosen so that spreads stay under a third of the bound.
func selfCheck(ctx context.Context, e *env, sz sizes, seconds float64, runs int) error {
	if runs < 2 {
		return fmt.Errorf("-selfcheck needs -runs of at least 2")
	}
	misses := 0
	for _, sp := range specs {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*runs; i++ {
			seed := int64(i + 1)
			r, err := runSpawned(ctx, e, sp, sz, seed, seconds, false)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", sp.name, seed, err)
			}
			if !r.correct {
				return fmt.Errorf("%s seed %d: incorrect run: %v", sp.name, seed, r.notes)
			}
			for _, d := range endToEnd {
				sets[i%2][d.name] = append(sets[i%2][d.name], r.metrics[d.name])
			}
			fmt.Printf("# %s seed %d done: qps %.2f, setup_s %.3f\n", sp.name, seed, r.metrics["qps"], r.metrics["setup_s"])
		}
		fmt.Printf("%-14s %-16s %10s %10s %10s | %10s %10s %10s | %7s %7s %6s\n",
			"workload", "metric", "A.median", "A.q1", "A.q3", "B.median", "B.q1", "B.q3", "worse%", "spread%", "bound%")
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			ma, mb := median(a), median(b)
			aq1, aq3 := quartiles(a)
			bq1, bq3 := quartiles(b)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			all := spread(append(append([]float64(nil), a...), b...))
			verdict := ""
			if all > d.bound/3 {
				verdict = " (spread above a third of the bound)"
			}
			if math.Abs(worse) > d.bound/2 {
				verdict = " MISS: medians differ by more than half the bound"
				misses++
			} else if all > d.bound && d.name != "setup_s" {
				verdict = " MISS: spread exceeds the bound"
				misses++
			}
			fmt.Printf("%-14s %-16s %10.4f %10.4f %10.4f | %10.4f %10.4f %10.4f | %7.2f %7.2f %6.1f%s\n",
				sp.name, d.name, ma, aq1, aq3, mb, bq1, bq3, 100*worse, 100*all, 100*d.bound, verdict)
		}
	}
	if misses > 0 {
		return fmt.Errorf("self-check: %d metric(s) outside their bounds", misses)
	}
	return nil
}
