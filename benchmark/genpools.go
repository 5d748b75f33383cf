package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"provrpq"
	"provrpq/internal/automata"
	"provrpq/internal/baseline"
	"provrpq/internal/core"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/plan"
	"provrpq/internal/reach"
)

// Pool bounds. Admission uses only values that repeat exactly on a given
// program — safety verdict, match count, planner choice and estimate under
// static unit costs, decomposition shape, relational tuple count — never a
// measured time, so the same program always admits the same pool; and the
// admitted pool is frozen in pools.json, so parent and change always run
// the same queries even when a change moves one of those values (the run
// then fails its pool check instead).
const (
	selectiveMaxPairs = 10
	// selectiveMaxCandidates bounds, in multiples of the run's node count,
	// the pairs the seeded strategy must verify: Σ over the seed tag's edges
	// of (nodes reaching the edge) × (nodes it reaches). The planner's own
	// estimate does not separate an anchor at the run's end (n candidates,
	// 6 ms at 16K edges) from one in its middle (n²/4.5, 0.8 s).
	selectiveMaxCandidates = 4
	denseMinPairs          = 10000
	denseMaxPairs          = 120000
	// decomposeMaxTuples bounds the sum of the relation sizes G1 builds for
	// every subtree of an unsafe query: it excludes the known traps that
	// materialise _* (7 s at 2K edges, past the server deadline at 8K).
	decomposeMaxTuples = 150000
)

// genCandidate is one drawn query with the exact values admission reads
// and the one measured value (ms) that is printed for sizing only.
type genCandidate struct {
	poolQuery
	seedCands int
	required  int
	tuples    int
	ms        float64
}

type genRun struct {
	rf  *runFixture
	eng *provrpq.Engine
	// baseEng evaluates over the served base of a growing run (nil otherwise).
	baseEng *provrpq.Engine
	ix      *index.Index
	pl      *plan.Planner
	g1      *baseline.G1
}

func newGenRun(rf *runFixture) (*genRun, error) {
	pub, err := rf.publicFull()
	if err != nil {
		return nil, err
	}
	ix := index.Build(rf.full)
	eopts := provrpq.EngineOptions{Workers: engineWorkers, PlanCache: provrpq.NewPlanCache(0)}
	g := &genRun{rf: rf, eng: provrpq.NewEngineOpts(pub, eopts), ix: ix, pl: plan.New(ix), g1: baseline.NewG1(ix)}
	if rf.def.Grow > 0 {
		base, err := rf.publicRun()
		if err != nil {
			return nil, err
		}
		g.baseEng = provrpq.NewEngineOpts(base, eopts)
	}
	return g, nil
}

// measure fills a candidate's exact values. evaluate=false stops before the
// evaluation (for candidates a cheaper exact value already excludes).
func (g *genRun) measure(role, query string, evaluate bool) (*genCandidate, error) {
	node, err := automata.Parse(query)
	if err != nil {
		return nil, err
	}
	env, err := core.Compile(g.rf.ds.d.Spec, node)
	if err != nil {
		return nil, err
	}
	c := &genCandidate{poolQuery: poolQuery{Role: role, Run: g.rf.def.Name, Query: query, Safe: env.Safe(), Count: -1, node: node}}
	c.required = len(env.RequiredSyms())
	if c.Safe {
		n := g.rf.full.NumNodes()
		dec := g.pl.Plan(env, n, n)
		c.Strategy = dec.Strategy.String()
		if dec.Strategy == plan.Seeded {
			c.seedCands = g.seedCandidates(dec.SeedTag)
		}
	}
	if !evaluate {
		return c, nil
	}
	q, err := provrpq.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	plan.SharedTimings().Reset()
	if _, _, err := g.eng.EvaluatePlanned(q); err != nil { // builds the engine's lazy parts
		return nil, err
	}
	plan.SharedTimings().Reset()
	start := time.Now()
	pairs, rep, err := g.eng.EvaluatePlanned(q)
	if err != nil {
		return nil, err
	}
	c.ms = float64(time.Since(start).Microseconds()) / 1000
	c.Count = len(pairs)
	c.Subtrees, c.Relational = len(rep.SafeSubtrees), rep.RelationalNodes
	if g.baseEng != nil {
		plan.SharedTimings().Reset()
		basePairs, err := g.baseEng.Evaluate(q)
		if err != nil {
			return nil, err
		}
		c.BaseCount = len(basePairs)
	}
	if rep.Decomposed {
		c.Strategy = "decompose"
	}
	return c, nil
}

// seedCandidates counts the pairs a seeded scan anchored on tag verifies.
func (g *genRun) seedCandidates(tag string) int {
	run, spec := g.rf.full, g.rf.ds.d.Spec
	n, total := run.NumNodes(), 0
	for _, e := range g.ix.Pairs(tag) {
		from, to := run.LabelBytes(e.From), run.LabelBytes(e.To)
		up, down := 1, 1
		for x := 0; x < n; x++ {
			lx := run.LabelBytes(derive.NodeID(x))
			if derive.NodeID(x) != e.From && reach.PairwiseBytes(spec, lx, from) {
				up++
			}
			if derive.NodeID(x) != e.To && reach.PairwiseBytes(spec, to, lx) {
				down++
			}
		}
		total += up * down
	}
	return total
}

// tuples sums the sizes of the relations G1 builds bottom-up for every
// subtree of the query — exact, and proportional to the relational work.
// It gives up (returning limit+1) once the bound is passed.
func (g *genRun) tuples(n *automata.Node, limit int) int {
	total := g.g1.Eval(n).Len()
	for _, c := range n.Children {
		if total > limit {
			return total
		}
		total += g.tuples(c, limit-total)
	}
	return total
}

// genPools regenerates pools.json from fixtureSeed. It prints every
// candidate with its values so the bounds above can be reviewed.
func genPools(path string) error {
	out := poolFile{FixtureSeed: fixtureSeed, Workloads: map[string][]poolQuery{}}
	for i := range workloads {
		wl := &workloads[i]
		fx, err := buildRuns(wl, false)
		if err != nil {
			return err
		}
		for ri, name := range fx.runOrder {
			g, err := newGenRun(fx.runs[name])
			if err != nil {
				return err
			}
			r := rand.New(rand.NewSource(fixtureSeed + int64(100*i+ri)))
			admitted, err := genForRun(wl, g, r)
			if err != nil {
				return err
			}
			out.Workloads[wl.Name] = append(out.Workloads[wl.Name], admitted...)
		}
		fmt.Printf("# %s: %d queries\n", wl.Name, len(out.Workloads[wl.Name]))
	}
	raw, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func genForRun(wl *workloadDef, g *genRun, r *rand.Rand) ([]poolQuery, error) {
	d := g.rf.ds.d
	var admitted []poolQuery
	seen := map[string]bool{}
	admit := func(c *genCandidate, ok bool) {
		mark := " "
		if ok {
			mark = "+"
			admitted = append(admitted, c.poolQuery)
		}
		fmt.Printf("%s %-14s %-8s %-10s safe=%-5v count=%-8d base=%-6d strat=%-9s cands=%-9d req=%d sub=%d rel=%d tuples=%-7d %8.2fms  %s\n",
			mark, wl.Name, c.Run, c.Role, c.Safe, c.Count, c.BaseCount, c.Strategy, c.seedCands, c.required, c.Subtrees, c.Relational, c.tuples, c.ms, c.Query)
	}
	draw := func(role string, n int, gen func() string, test func(q string) (*genCandidate, bool, error)) error {
		for i := 0; i < n; i++ {
			q := gen()
			if seen[role+q] {
				continue
			}
			seen[role+q] = true
			c, ok, err := test(q)
			if err != nil {
				return fmt.Errorf("%s %s %q: %w", wl.Name, role, q, err)
			}
			if c != nil {
				admit(c, ok)
			}
		}
		return nil
	}
	selective := func(q string) (*genCandidate, bool, error) {
		c, err := g.measure("selective", q, false)
		if err != nil || !c.Safe || c.Strategy != "seeded" || c.seedCands > selectiveMaxCandidates*g.rf.full.NumNodes() {
			return c, false, err
		}
		if c, err = g.measure("selective", q, true); err != nil {
			return nil, false, err
		}
		if g.baseEng != nil {
			// On a growing run the query must already match on the served
			// base (an empty answer costs nothing to compute) and may match
			// up to a pair per node: reachability from the run's first step.
			return c, c.BaseCount >= 1 && c.Count <= 2*g.rf.full.NumNodes() && c.Strategy == "seeded", nil
		}
		return c, c.Count >= 1 && c.Count <= selectiveMaxPairs && c.Strategy == "seeded", nil
	}
	pairwise := func(q string) (*genCandidate, bool, error) {
		c, err := g.measure("pairwise", q, false)
		return c, err == nil && c.Safe, err
	}
	ifq := func(low bool) func() string {
		return func() string { return d.SafeIFQ(r, 1+r.Intn(4), low) }
	}
	switch wl.Cycle {
	case "point":
		if err := draw("pairwise", 1, d.StarQuery, pairwise); err != nil {
			return nil, err
		}
		if err := draw("pairwise", 4, ifq(false), pairwise); err != nil {
			return nil, err
		}
		if err := draw("pairwise", 4, ifq(true), pairwise); err != nil {
			return nil, err
		}
		if err := draw("selective", 200, func() string { return d.SafeIFQ(r, 1+r.Intn(4), false) }, selective); err != nil {
			return nil, err
		}
	case "dense":
		err := draw("dense", 60, ifq(true), func(q string) (*genCandidate, bool, error) {
			c, err := g.measure("dense", q, true)
			return c, err == nil && c.Safe && c.Strategy == "seeded" && c.Count >= denseMinPairs && c.Count <= denseMaxPairs, err
		})
		if err != nil {
			return nil, err
		}
	case "scan":
		if wl.Pool == "decompose" {
			err := draw("decompose", 400, func() string { return d.RandomQuery(r, 2+r.Intn(2)) }, func(q string) (*genCandidate, bool, error) {
				c, err := g.measure("decompose", q, false)
				if err != nil || c.Safe {
					return nil, false, err
				}
				c.tuples = g.tuples(c.node, decomposeMaxTuples)
				if c.tuples > decomposeMaxTuples {
					return c, false, nil
				}
				t := c.tuples
				if c, err = g.measure("decompose", q, true); err != nil {
					return nil, false, err
				}
				c.tuples = t
				return c, c.Subtrees >= 1 && c.Relational >= 1 && c.Count >= 1, nil
			})
			if err != nil {
				return nil, err
			}
			break
		}
		// Safe queries that require no tag, so the seeded strategy does not
		// apply: stars and optional steps over the run's recursion tags.
		tags := []string{d.ForkTag, "fl"}
		for _, t := range d.Spec.Tags() {
			if len(t) > 4 && t[:4] == "next" {
				tags = append(tags, t)
			}
		}
		sort.Strings(tags[2:])
		var cands []string
		for _, a := range tags {
			cands = append(cands, a+"*", "_?."+a+"*", a+"*._?")
			for _, b := range tags {
				if a < b {
					cands = append(cands, "("+a+"|"+b+")*", a+"*."+b+"*")
				}
			}
		}
		i := 0
		err := draw("scan", len(cands), func() string { i++; return cands[i-1] }, func(q string) (*genCandidate, bool, error) {
			c, err := g.measure("scan", q, false)
			if err != nil || !c.Safe || c.required != 0 {
				return c, false, err
			}
			c, err = g.measure("scan", q, true)
			return c, err == nil && c.Count >= 1 && c.Strategy != "seeded", err
		})
		if err != nil {
			return nil, err
		}
	}
	if wl.Watch {
		// The standing query: the first dense safe IFQ in draw order.
		found := false
		err := draw("watch", 60, ifq(true), func(q string) (*genCandidate, bool, error) {
			if found {
				return nil, false, nil
			}
			c, err := g.measure("watch", q, true)
			ok := err == nil && c.Safe && c.Count >= denseMinPairs && c.Count <= denseMaxPairs
			found = ok
			return c, ok, err
		})
		if err != nil {
			return nil, err
		}
	}
	return admitted, nil
}
