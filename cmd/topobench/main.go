// Command topobench regenerates the tables and figures of the paper
// "Topological Relations in the World of Minimum Bounding Rectangles:
// A Study with R-trees" (SIGMOD 1995).
//
// Usage:
//
//	topobench -exp all
//	topobench -exp table3 -n 10000 -queries 100 -seed 1995
//	topobench -exp window [-class small|medium|large]
//
// The experiments, their order and their claims are the registry in
// internal/experiments; this command only parses flags, and an unknown
// -exp value prints the ids with the claim each checks. Standard output
// is counts alone, so two runs with the same flags are byte-identical:
// `-exp all` is results_full.txt (`make paper` diffs it) and
// `-quick -exp all` is internal/experiments/testdata/quick.golden.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mbrtopo/internal/experiments"
	"mbrtopo/internal/workload"
)

func main() {
	cfg := experiments.Default()
	var (
		exp      = flag.String("exp", "all", "experiment id ("+strings.Join(experiments.IDs(), ", ")+")")
		n        = flag.Int("n", cfg.NData, "data file cardinality")
		queries  = flag.Int("queries", cfg.NQueries, "search file cardinality")
		seed     = flag.Int64("seed", cfg.Seed, "random seed")
		pageSize = flag.Int("pagesize", cfg.PageSize, "page size in bytes (2008 → 50 entries/page)")
		class    = flag.String("class", "medium", "size class for single-class experiments (small, medium, large)")
		quick    = flag.Bool("quick", false, "use a scaled-down configuration")
	)
	flag.Parse()

	cfg.NData, cfg.NQueries, cfg.Seed, cfg.PageSize = *n, *queries, *seed, *pageSize
	if *quick {
		cfg = experiments.Quick()
	}
	cls, err := parseClass(*class)
	if err != nil {
		fatal(err)
	}

	if err := experiments.Run(os.Stdout, *exp, cfg, cls); err != nil {
		fatal(err)
	}
}

func parseClass(s string) (workload.SizeClass, error) {
	switch strings.ToLower(s) {
	case "small":
		return workload.Small, nil
	case "medium":
		return workload.Medium, nil
	case "large":
		return workload.Large, nil
	}
	return 0, fmt.Errorf("unknown size class %q", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "topobench:", err)
	os.Exit(1)
}
