// Command rpqbench regenerates the paper's evaluation figures.
//
// Usage:
//
//	rpqbench -fig 13c          # one figure, full workload
//	rpqbench -all              # every figure
//	rpqbench -all -quick       # smoke-sized workloads
//	rpqbench -fig boot -json . # also write machine-readable BENCH_boot.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"provrpq/internal/bench"
)

func main() {
	fig := flag.String("fig", "", "figure id to run (13a..13h, 15a, 15b, plan, boot, ingest)")
	all := flag.Bool("all", false, "run every figure")
	quick := flag.Bool("quick", false, "shrink workloads for a smoke run")
	seed := flag.Int64("seed", 1, "workload seed")
	jsonDir := flag.String("json", "", "directory for machine-readable BENCH_<figure>.json records (figures boot, plan, ingest)")
	flag.Parse()

	cfg := bench.Config{W: os.Stdout, Quick: *quick, Seed: *seed, JSONDir: *jsonDir}
	var ids []string
	switch {
	case *all:
		ids = bench.Figures()
	case *fig != "":
		ids = []string{*fig}
	default:
		fmt.Fprintln(os.Stderr, "usage: rpqbench -fig <id> | -all [-quick] [-seed N]")
		fmt.Fprintln(os.Stderr, "figures:", bench.Figures())
		os.Exit(2)
	}
	for _, id := range ids {
		start := time.Now()
		if err := bench.Run(id, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "rpqbench: figure %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stdout, "(figure %s took %.1fs)\n\n", id, time.Since(start).Seconds())
	}
}
