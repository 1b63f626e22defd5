// Command paper regenerates the tables and figures of the paper's
// evaluation (Section 7) against the calibrated synthetic datasets.
//
// Usage:
//
//	paper -exp all            # every artifact
//	paper -exp fig4a          # one artifact
//	paper -list               # available artifacts
//	paper -exp fig8 -quick    # reduced budgets
//	paper -exp fig2 -scale 1  # full paper-scale datasets
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	list := flag.Bool("list", false, "list experiments")
	scale := flag.Float64("scale", 0.01, "dataset scale in (0,1]")
	seed := flag.Int64("seed", 1, "random seed")
	quick := flag.Bool("quick", false, "reduced search budgets")
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-8s %s\n", r.ID, r.Title)
		}
		return
	}

	cfg := experiments.Config{Scale: *scale, Seed: *seed, Quick: *quick}
	run := func(r experiments.Runner) {
		start := time.Now()
		rep, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paper: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		fmt.Printf("%s(completed in %v)\n\n", rep, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, r := range experiments.All() {
			run(r)
		}
		return
	}
	r, ok := experiments.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "paper: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	run(r)
}
