package bench

import (
	"fmt"
	"time"

	"provrpq/internal/automata"
	"provrpq/internal/core"
	"provrpq/internal/derive"
	"provrpq/internal/label"
	"provrpq/internal/workload"
)

// FigPar is an experiment beyond the paper: parallel scaling of the
// all-pairs scans on one large fork run. For each worker count it times the
// RPL nested-loop scan and the optRPL tree-walk scan of a*
// over the fork distributor nodes, reporting the speedup over the serial
// scan and cross-checking that every worker count finds the same matches.
func FigPar(cfg Config) error {
	size := 16000
	if cfg.Quick {
		size = 1200
	}
	header(cfg, fmt.Sprintf("Fig P: parallel all-pairs scaling (BioAID fork, a*, ~%d edges)", size))
	workerSweep := []int{1, 2, 4, 8}
	if cfg.Workers > 1 {
		found := false
		for _, w := range workerSweep {
			if w == cfg.Workers {
				found = true
			}
		}
		if !found {
			workerSweep = append(workerSweep, cfg.Workers)
		}
	}

	d := workload.BioAID()
	run, err := derive.Derive(d.Spec, derive.Options{
		Seed: cfg.Seed, TargetEdges: size,
		FavorModules: d.ForkFavor, FavorCaps: d.ForkCaps,
	})
	if err != nil {
		return err
	}
	q := automata.MustParse(d.StarQuery())
	env, err := core.Compile(run.Spec, q)
	if err != nil {
		return err
	}
	if !env.Safe() {
		return fmt.Errorf("bench: %s unexpectedly unsafe", d.StarQuery())
	}
	anodes := run.NodesOfModule("a")
	labels := make([]label.Label, len(anodes))
	for i, id := range anodes {
		labels[i] = run.Label(id)
	}
	fmt.Fprintf(cfg.W, "run edges: %d, a-nodes: %d (l1 = l2 = fork distributor nodes)\n",
		run.NumEdges(), len(anodes))
	fmt.Fprintf(cfg.W, "%-9s %-10s %-10s %-12s %-12s %-9s\n",
		"workers", "RPL-s", "optRPL-s", "RPL-spdup", "opt-spdup", "matches")

	var serialRPL, serialOpt time.Duration
	wantMatches := -1
	for _, w := range workerSweep {
		matches := 0
		rplT, err := timeOfErr(func() error {
			matches = 0
			return env.AllPairsSafeParallel(labels, labels, core.RPL, w, func(i, j int) { matches++ })
		})
		if err != nil {
			return err
		}
		optMatches := 0
		optT, err := timeOfErr(func() error {
			optMatches = 0
			return env.AllPairsSafeParallel(labels, labels, core.OptRPL, w, func(i, j int) { optMatches++ })
		})
		if err != nil {
			return err
		}
		if matches != optMatches {
			return fmt.Errorf("bench: RPL found %d matches, optRPL %d at %d workers", matches, optMatches, w)
		}
		if wantMatches < 0 {
			wantMatches = matches
			serialRPL, serialOpt = rplT, optT
		} else if matches != wantMatches {
			return fmt.Errorf("bench: %d workers found %d matches, serial found %d", w, matches, wantMatches)
		}
		fmt.Fprintf(cfg.W, "%-9d %-10.3f %-10.3f %-12.2f %-12.2f %-9d\n",
			w, sec(rplT), sec(optT),
			sec(serialRPL)/sec(rplT), sec(serialOpt)/sec(optT), matches)
	}
	return nil
}
