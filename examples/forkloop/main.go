// Forkloop: Kleene-star queries over fork recursion (the paper's Fig. 14
// workload). A fork distributor "a" fans work out into chains a:1 -a->
// a:2 -a-> ...; the query a* asks which distributors lie on a common fork
// chain — the provenance question "was this datum processed inside the
// same fork?".
package main

import (
	"fmt"
	"log"
	"time"

	"provrpq"
)

func main() {
	// Fork: each Fork node spawns a distributor and recurses; ForkLoop
	// keeps starting new chains.
	spec, err := provrpq.NewSpecBuilder().
		Start("Job").
		Prod("Job", []string{"start", "ForkLoop", "collect"}, []provrpq.BodyEdge{
			{From: 0, To: 1, Tag: "go"},
			{From: 1, To: 2, Tag: "done"},
		}).
		Prod("ForkLoop", []string{"Fork", "ForkLoop"}, []provrpq.BodyEdge{{From: 0, To: 1, Tag: "fl"}}).
		Prod("ForkLoop", []string{"Fork", "stop"}, []provrpq.BodyEdge{{From: 0, To: 1, Tag: "fl"}}).
		Prod("Fork", []string{"a", "Fork"}, []provrpq.BodyEdge{{From: 0, To: 1, Tag: "a"}}).
		Prod("Fork", []string{"a"}, nil).
		Build()
	if err != nil {
		log.Fatal(err)
	}

	run, err := spec.Derive(provrpq.DeriveOptions{
		Seed:         3,
		TargetEdges:  4000,
		FavorModules: []string{"Fork", "ForkLoop"},
		FavorCaps:    map[string]int{"Fork": 80},
	})
	if err != nil {
		log.Fatal(err)
	}
	dists := run.NodesOfModule("a")
	fmt.Printf("run: %d edges, %d fork distributors\n", run.NumEdges(), len(dists))

	eng := provrpq.NewEngine(run)
	q := provrpq.MustParseQuery("a*")
	safe, err := eng.IsSafe(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query a* safe=%v\n", safe)

	// Compare the two safe all-pairs strategies on the same workload (the
	// relational baseline's numbers are `rpqbench -fig 13g/13h`).
	for _, st := range []struct {
		name string
		s    provrpq.Strategy
	}{
		{"optRPL (S2)", provrpq.StrategyOptRPL},
		{"RPL (S1)", provrpq.StrategyRPL},
	} {
		startT := time.Now()
		pairs, err := eng.AllPairs(q, dists, dists, st.s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %8d pairs in %8.1fms\n",
			st.name, len(pairs), float64(time.Since(startT).Microseconds())/1000)
	}

	// Pairwise: same chain vs different chains.
	first, err := eng.Pairwise(q, dists[0], dists[1])
	if err != nil {
		log.Fatal(err)
	}
	last, err := eng.Pairwise(q, dists[0], dists[len(dists)-1])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s -a*-> %s: %v; %s -a*-> %s: %v\n",
		run.NodeName(dists[0]), run.NodeName(dists[1]), first,
		run.NodeName(dists[0]), run.NodeName(dists[len(dists)-1]), last)
}
