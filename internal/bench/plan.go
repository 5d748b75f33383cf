package bench

import (
	"fmt"
	"math/rand"

	"provrpq/internal/automata"
	"provrpq/internal/core"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/label"
	"provrpq/internal/plan"
	"provrpq/internal/workload"
)

// FigPlan is the selectivity-planner experiment (beyond the paper; the
// paper's future-work item 1 asks for exactly this cost model): all-pairs
// IFQ queries over BioAID and QBLast runs, one highly selective (anchored
// at the run's ends, under ten matches) and one dense (per-iteration
// pipeline tags, many matches), timed under each forced strategy and under
// Auto (the planner's choice). The planner wins when Auto tracks the best
// forced column on both rows: seeded on the selective workload, optRPL on
// the dense one.
func FigPlan(cfg Config) error {
	header(cfg, "plan: selectivity planner — Auto vs forced strategies (l1 = l2 = all nodes)")
	size := 2000
	if cfg.Quick {
		size = 300
	}
	report := PlanFigReport{Quick: cfg.Quick, RunEdges: size}
	fmt.Fprintf(cfg.W, "%-8s %-10s %-34s %-8s %-18s %-10s %-10s %-10s %-10s\n",
		"dataset", "workload", "query", "matches", "chosen(seed)", "RPL-s", "optRPL-s", "seeded-s", "Auto-s")
	for _, d := range []*workload.Dataset{workload.BioAID(), workload.QBLast()} {
		run, err := derive.Derive(d.Spec, derive.Options{Seed: cfg.Seed, TargetEdges: size})
		if err != nil {
			return err
		}
		ix := index.Build(run)
		pl := plan.New(ix)
		pl.ReachDensity() // pay the one-time statistics sample outside the timings
		nodes := run.AllNodes()
		labels := make([]label.Label, len(nodes))
		for i, id := range nodes {
			labels[i] = run.Label(id)
		}
		r := rand.New(rand.NewSource(cfg.Seed + 7))
		cases := []struct{ sel, q string }{
			{"selective", d.SafeIFQ(r, 3, false)},
			{"dense", d.SafeIFQ(r, 3, true)},
		}
		for _, c := range cases {
			q := automata.MustParse(c.q)
			env, err := core.Compile(run.Spec, q)
			if err != nil {
				return err
			}
			if !env.Safe() {
				return fmt.Errorf("bench: IFQ %s unexpectedly unsafe on %s", c.q, d.Name)
			}
			matches := 0
			rplT, err := timeOfErr(func() error {
				matches = 0
				return env.AllPairsSafeParallel(labels, labels, core.RPL, 1, func(i, j int) { matches++ })
			})
			if err != nil {
				return err
			}
			optT, err := timeOfErr(func() error {
				return env.AllPairsSafeParallel(labels, labels, core.OptRPL, 1, func(i, j int) {})
			})
			if err != nil {
				return err
			}
			dec := pl.Plan(env, len(nodes), len(nodes))
			seedT, err := timeOfErr(func() error {
				return plan.AllPairsSeeded(env, ix, dec, nodes, nodes, func(i, j int) {})
			})
			if err != nil {
				return err
			}
			// Auto pays for the plan decision plus the chosen strategy.
			autoT, err := timeOfErr(func() error {
				dec := pl.Plan(env, len(nodes), len(nodes))
				switch dec.Strategy {
				case plan.RPL:
					return env.AllPairsSafeParallel(labels, labels, core.RPL, 1, func(i, j int) {})
				case plan.Seeded:
					return plan.AllPairsSeeded(env, ix, dec, nodes, nodes, func(i, j int) {})
				default:
					return env.AllPairsSafeParallel(labels, labels, core.OptRPL, 1, func(i, j int) {})
				}
			})
			if err != nil {
				return err
			}
			qs := c.q
			if len(qs) > 32 {
				qs = qs[:29] + "..."
			}
			chosen := fmt.Sprintf("%s(%s:%d)", dec.Strategy, dec.SeedTag, dec.SeedCount)
			fmt.Fprintf(cfg.W, "%-8s %-10s %-34s %-8d %-18s %-10.4f %-10.4f %-10.4f %-10.4f\n",
				d.Name, c.sel, qs, matches, chosen, sec(rplT), sec(optT), sec(seedT), sec(autoT))
			report.Rows = append(report.Rows, PlanFigRow{
				Dataset:  d.Name,
				Workload: c.sel,
				Query:    c.q,
				Matches:  matches,
				Chosen:   chosen,
				RPLSec:   sec(rplT),
				OptSec:   sec(optT),
				SeedSec:  sec(seedT),
				AutoSec:  sec(autoT),
			})
		}
	}
	return writeFigJSON(cfg, "plan", report)
}

// PlanFigReport is the machine-readable record of the planner experiment,
// written as BENCH_plan.json when Config.JSONDir is set.
type PlanFigReport struct {
	Quick    bool         `json:"quick"`
	RunEdges int          `json:"run_edges"`
	Rows     []PlanFigRow `json:"rows"`
}

// PlanFigRow is one (dataset, workload) cell of the planner experiment.
type PlanFigRow struct {
	Dataset  string  `json:"dataset"`
	Workload string  `json:"workload"`
	Query    string  `json:"query"`
	Matches  int     `json:"matches"`
	Chosen   string  `json:"chosen"`
	RPLSec   float64 `json:"rpl_sec"`
	OptSec   float64 `json:"optrpl_sec"`
	SeedSec  float64 `json:"seeded_sec"`
	AutoSec  float64 `json:"auto_sec"`
}
