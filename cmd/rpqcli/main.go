// Command rpqcli evaluates regular path queries over a stored workflow run.
//
// Usage:
//
//	rpqcli -spec wf.spec.json -run wf.run.json -query "_*.emit._*"
//	rpqcli -spec ... -run ... -query "a*" -from a:1 -to a:9
//	rpqcli -spec ... -run ... -query "a*" -explain
//	rpqcli -spec ... -run ... -query "a*" -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"provrpq"
	"provrpq/internal/metrics"
)

func main() {
	specPath := flag.String("spec", "", "specification JSON (from wfgen or SaveSpec)")
	runPath := flag.String("run", "", "run JSON (from wfgen or SaveRun)")
	queryStr := flag.String("query", "", "regular path query")
	from := flag.String("from", "", "pairwise source node, e.g. a:1")
	to := flag.String("to", "", "pairwise target node")
	explain := flag.Bool("explain", false, "print the evaluation plan instead of results")
	limit := flag.Int("limit", 20, "max result pairs to print (0 = all)")
	stats := flag.Bool("stats", false, "print plan-cache statistics after evaluating")
	flag.Parse()

	if *stats {
		defer printStats()
	}

	if *specPath == "" || *runPath == "" || *queryStr == "" {
		fmt.Fprintln(os.Stderr, "usage: rpqcli -spec S.json -run R.json -query Q [-from u -to v | -explain]")
		os.Exit(2)
	}
	spec, err := provrpq.LoadSpec(*specPath)
	fatal(err)
	run, err := provrpq.LoadRun(*runPath, spec)
	fatal(err)
	q, err := provrpq.ParseQuery(*queryStr)
	fatal(err)

	eng := provrpq.NewEngine(run)
	safe, err := eng.IsSafe(q)
	fatal(err)
	fmt.Printf("query %s — safe: %v\n", q, safe)

	if *explain {
		rep, err := eng.Explain(q)
		fatal(err)
		if rep.Safe {
			fmt.Printf("plan: single safe scan, strategy %s\n", rep.Strategy)
			if rep.SeedTag != "" {
				dir := "forward"
				if rep.Reverse {
					dir = "reverse"
				}
				fmt.Printf("  seed tag %q (%d occurrence(s), %s)\n", rep.SeedTag, rep.SeedCount, dir)
			}
			fmt.Printf("  estimated decodes: rpl=%.0f optrpl=%.0f seeded=%.0f\n",
				rep.CostRPL, rep.CostOptRPL, rep.CostSeeded)
			return
		}
		fmt.Printf("plan: decomposition; safe subtrees evaluated with labels: %v (%d relational node(s))\n",
			rep.SafeSubtrees, rep.RelationalNodes)
		return
	}

	if *from != "" && *to != "" {
		u, ok := run.NodeByName(*from)
		if !ok {
			fatal(fmt.Errorf("node %q not found", *from))
		}
		v, ok := run.NodeByName(*to)
		if !ok {
			fatal(fmt.Errorf("node %q not found", *to))
		}
		match, err := eng.Pairwise(q, u, v)
		fatal(err)
		fmt.Printf("%s --[%s]--> %s: %v\n", *from, q, *to, match)
		return
	}

	pairs, err := eng.Evaluate(q)
	fatal(err)
	fmt.Printf("%d matching pairs\n", len(pairs))
	for i, p := range pairs {
		if *limit > 0 && i >= *limit {
			fmt.Printf("... (%d more)\n", len(pairs)-*limit)
			break
		}
		fmt.Printf("  %s -> %s\n", run.NodeName(p.From), run.NodeName(p.To))
	}
}

// printStats dumps the process-wide metrics registry: the plan-cache
// summary rpqcli has always printed, then every counter and gauge the
// evaluation touched, with per-strategy latency summaries (p50/p95/p99
// estimated from the histogram buckets) for the strategies that ran.
func printStats() {
	s := provrpq.DefaultPlanCache().Stats()
	fmt.Printf("plan cache: %d plans resident, %d hits, %d misses, %d evictions\n",
		s.Plans, s.Hits, s.Misses, s.Evictions)
	for _, fam := range metrics.Default().Snapshot() {
		for _, sm := range fam.Samples {
			name := fam.Name
			if len(sm.LabelValues) > 0 {
				name += "{" + strings.Join(sm.LabelValues, ",") + "}"
			}
			if sm.Histogram == nil {
				if sm.Value != 0 {
					fmt.Printf("%s: %g\n", name, sm.Value)
				}
				continue
			}
			h := sm.Histogram
			if h.Count == 0 {
				continue
			}
			unit := ""
			if strings.HasSuffix(fam.Name, "_seconds") {
				unit = "s"
			}
			fmt.Printf("%s: n=%d mean=%.3g%s p50=%.3g%s p95=%.3g%s p99=%.3g%s\n",
				name, h.Count, h.Sum/float64(h.Count), unit,
				h.Quantile(0.50), unit, h.Quantile(0.95), unit, h.Quantile(0.99), unit)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpqcli:", err)
		os.Exit(1)
	}
}
