// Package bench regenerates every figure of the paper's evaluation
// (Section V): one runner per figure, printing the same series the paper
// plots. Absolute numbers differ from the paper's 2013 Java/Mac testbed;
// EXPERIMENTS.md records the shape comparison.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"provrpq/internal/automata"
	"provrpq/internal/baseline"
	"provrpq/internal/core"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/label"
	"provrpq/internal/rel"
	"provrpq/internal/workload"
)

// Config controls a figure run.
type Config struct {
	// W receives the report (required).
	W io.Writer
	// Quick shrinks workloads for tests and smoke runs.
	Quick bool
	// Seed randomizes workload generation deterministically.
	Seed int64
	// JSONDir, when non-empty, makes figures with machine-readable output
	// ("boot" and "plan") also write a BENCH_<figure>.json file into this
	// directory, alongside the textual report on W.
	JSONDir string
}

// Figures lists the available experiment ids in paper order; "plan" is the
// selectivity-planner experiment, "boot" the zero-copy columnar boot
// experiment and "ingest" the group-commit ingest experiment, all beyond
// the paper.
func Figures() []string {
	return []string{"13a", "13b", "13c", "13d", "13e", "13f", "13g", "13h", "15a", "15b", "plan", "boot", "ingest"}
}

// Run dispatches one figure by id.
func Run(id string, cfg Config) error {
	switch id {
	case "13a":
		return Fig13a(cfg)
	case "13b":
		return Fig13b(cfg)
	case "13c":
		return Fig13c(cfg)
	case "13d":
		return Fig13d(cfg)
	case "13e":
		return Fig13e(cfg)
	case "13f":
		return Fig13f(cfg)
	case "13g":
		return Fig13g(cfg)
	case "13h":
		return Fig13h(cfg)
	case "15a":
		return Fig15a(cfg)
	case "15b":
		return Fig15b(cfg)
	case "plan":
		return FigPlan(cfg)
	case "boot":
		return FigBoot(cfg)
	case "ingest":
		return FigIngest(cfg)
	}
	return fmt.Errorf("bench: unknown figure %q (have %v)", id, Figures())
}

func header(cfg Config, title string) {
	fmt.Fprintf(cfg.W, "== %s ==\n", title)
}

// timeOf measures one invocation.
func timeOf(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// timeOfErr measures one fallible invocation, propagating its error — a
// figure runner is library code, so an evaluation failure must travel up
// the gather path as a value, never tear the process down as a panic.
func timeOfErr(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// Fig13a: safety-check time overhead versus grammar size (synthetic
// specifications, 20 IFQs with k=3 per size; avg and worst, ms).
func Fig13a(cfg Config) error {
	header(cfg, "Fig 13a: time overhead vs grammar size (synthetic, IFQ k=3)")
	sizes := []int{400, 600, 800, 1000, 1200}
	queries := 20
	if cfg.Quick {
		sizes = []int{200, 400}
		queries = 4
	}
	fmt.Fprintf(cfg.W, "%-14s %-12s %-12s\n", "grammar-size", "avg-ms", "worst-ms")
	for _, size := range sizes {
		d := workload.Synthetic(size, cfg.Seed)
		r := rand.New(rand.NewSource(cfg.Seed + int64(size)))
		var total, worst time.Duration
		for i := 0; i < queries; i++ {
			q := automata.MustParse(d.SafeIFQ(r, 3, true))
			dur, err := timeOfErr(func() error {
				_, err := core.Compile(d.Spec, q)
				return err
			})
			if err != nil {
				return err
			}
			total += dur
			if dur > worst {
				worst = dur
			}
		}
		fmt.Fprintf(cfg.W, "%-14d %-12.3f %-12.3f\n",
			d.Spec.Size(), ms(total)/float64(queries), ms(worst))
	}
	return nil
}

// Fig13b: safety-check overhead versus query size k on BioAID and QBLast.
func Fig13b(cfg Config) error {
	header(cfg, "Fig 13b: time overhead vs query size k (BioAID, QBLast IFQs)")
	ks := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	queries := 10
	if cfg.Quick {
		ks = []int{0, 2, 4}
		queries = 3
	}
	fmt.Fprintf(cfg.W, "%-8s %-9s %-14s %-14s\n", "dataset", "k", "avg-ms", "worst-ms")
	for _, d := range []*workload.Dataset{workload.BioAID(), workload.QBLast()} {
		r := rand.New(rand.NewSource(cfg.Seed + 1))
		for _, k := range ks {
			var total, worst time.Duration
			for i := 0; i < queries; i++ {
				q := automata.MustParse(d.SafeIFQ(r, k, i%2 == 0))
				dur, err := timeOfErr(func() error {
					_, err := core.Compile(d.Spec, q)
					return err
				})
				if err != nil {
					return err
				}
				total += dur
				if dur > worst {
					worst = dur
				}
			}
			fmt.Fprintf(cfg.W, "%-8s %-9d %-14.3f %-14.3f\n",
				d.Name, k, ms(total)/float64(queries), ms(worst))
		}
	}
	return nil
}

// pairSample draws npairs random node pairs from a run.
func pairSample(r *rand.Rand, run *derive.Run, npairs int) [][2]derive.NodeID {
	n := run.NumNodes()
	out := make([][2]derive.NodeID, npairs)
	for i := range out {
		out[i] = [2]derive.NodeID{derive.NodeID(r.Intn(n)), derive.NodeID(r.Intn(n))}
	}
	return out
}

// Fig13c: pairwise query time versus run size (BioAID, IFQ k=3, 10K node
// pairs): RPL vs Option G3 vs Option G2, µs per pair.
func Fig13c(cfg Config) error {
	header(cfg, "Fig 13c: pairwise query time vs run size (BioAID, IFQ k=3)")
	sizes := []int{1000, 2000, 4000, 8000}
	npairs := 10000
	if cfg.Quick {
		sizes = []int{300, 600}
		npairs = 500
	}
	d := workload.BioAID()
	r := rand.New(rand.NewSource(cfg.Seed + 2))
	// Draw the three symbols from one high-traffic pipeline so their
	// occurrence lists grow with run size (what stresses G3).
	g := d.LowSelGroups[0]
	query := workload.IFQ(g[1], g[6], g[11])
	fmt.Fprintf(cfg.W, "query: %s\n", query)
	fmt.Fprintf(cfg.W, "%-10s %-12s %-12s %-12s\n", "run-edges", "RPL-µs", "G3-µs", "G2-µs")
	for _, size := range sizes {
		run, err := derive.Derive(d.Spec, derive.Options{Seed: cfg.Seed, TargetEdges: size})
		if err != nil {
			return err
		}
		pairs := pairSample(r, run, npairs)
		q := automata.MustParse(query)
		ix := index.Build(run)

		// RPL: compile (the amortized overhead) plus one decode per pair.
		var env *core.Env
		rplTotal, err := timeOfErr(func() error {
			env, err = core.Compile(run.Spec, q)
			if err != nil {
				return err
			}
			dec := env.NewDecoder() // hold one decoder: no pool traffic in the timed loop
			for _, p := range pairs {
				dec.PairwiseUnchecked(run.Label(p[0]), run.Label(p[1]))
			}
			return nil
		})
		if err != nil {
			return err
		}
		if !env.Safe() {
			return fmt.Errorf("bench: query %s unexpectedly unsafe", query)
		}

		g3, ok := baseline.NewG3(ix, q)
		if !ok {
			return fmt.Errorf("bench: %s is not an IFQ", query)
		}
		g3Total := timeOf(func() {
			for _, p := range pairs {
				g3.Pairwise(p[0], p[1])
			}
		})

		g2 := baseline.NewG2(ix, q)
		g2Pairs := pairs
		g2Scale := 1.0
		if len(pairs) > 200 {
			// G2 re-searches per pair; sample to keep the sweep tractable
			// and scale the per-pair cost accordingly (it is unaffected).
			g2Pairs = pairs[:200]
			g2Scale = float64(len(pairs)) / 200
		}
		g2Total := time.Duration(float64(timeOf(func() {
			for _, p := range g2Pairs {
				g2.Pairwise(p[0], p[1])
			}
		})))
		_ = g2Scale

		fmt.Fprintf(cfg.W, "%-10d %-12.3f %-12.3f %-12.3f\n",
			run.NumEdges(),
			us(rplTotal)/float64(len(pairs)),
			us(g3Total)/float64(len(pairs)),
			us(g2Total)/float64(len(g2Pairs)))
	}
	return nil
}

// Fig13d: pairwise query time versus query size k (BioAID, runs of 2K).
func Fig13d(cfg Config) error {
	header(cfg, "Fig 13d: pairwise query time vs query size k (BioAID, run 2K)")
	ks := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	npairs := 10000
	size := 2000
	if cfg.Quick {
		ks = []int{0, 2, 4}
		npairs = 400
		size = 400
	}
	d := workload.BioAID()
	r := rand.New(rand.NewSource(cfg.Seed + 3))
	run, err := derive.Derive(d.Spec, derive.Options{Seed: cfg.Seed, TargetEdges: size})
	if err != nil {
		return err
	}
	ix := index.Build(run)
	pairs := pairSample(r, run, npairs)
	fmt.Fprintf(cfg.W, "%-6s %-12s %-12s %-12s\n", "k", "RPL-µs", "G3-µs", "G2-µs")
	for _, k := range ks {
		q := automata.MustParse(d.SafeIFQ(r, k, true))
		var env *core.Env
		rplTotal, err := timeOfErr(func() error {
			env, err = core.Compile(run.Spec, q)
			if err != nil {
				return err
			}
			dec := env.NewDecoder() // hold one decoder: no pool traffic in the timed loop
			for _, p := range pairs {
				dec.PairwiseUnchecked(run.Label(p[0]), run.Label(p[1]))
			}
			return nil
		})
		if err != nil {
			return err
		}
		g3, ok := baseline.NewG3(ix, q)
		if !ok {
			return fmt.Errorf("bench: not an IFQ")
		}
		g3Pairs := pairs
		if k >= 2 && len(pairs) > 1000 {
			g3Pairs = pairs[:1000] // occurrence-chain joins grow with k
		}
		g3Total := timeOf(func() {
			for _, p := range g3Pairs {
				g3.Pairwise(p[0], p[1])
			}
		})
		g2 := baseline.NewG2(ix, q)
		g2Pairs := pairs
		if len(pairs) > 200 {
			g2Pairs = pairs[:200]
		}
		g2Total := timeOf(func() {
			for _, p := range g2Pairs {
				g2.Pairwise(p[0], p[1])
			}
		})
		fmt.Fprintf(cfg.W, "%-6d %-12.3f %-12.3f %-12.3f\n",
			k,
			us(rplTotal)/float64(len(pairs)),
			us(g3Total)/float64(len(g3Pairs)),
			us(g2Total)/float64(len(g2Pairs)))
	}
	return nil
}

// allPairsIFQ runs one Fig 13e/f dataset: 8 IFQs with k=3, four highly and
// four lowly selective, l1 = l2 = all nodes; baseline Option G3 vs RPL vs
// optRPL, seconds per query.
func allPairsIFQ(cfg Config, d *workload.Dataset) error {
	size := 2000
	if cfg.Quick {
		size = 300
	}
	run, err := derive.Derive(d.Spec, derive.Options{Seed: cfg.Seed, TargetEdges: size})
	if err != nil {
		return err
	}
	ix := index.Build(run)
	nodes := run.AllNodes()
	labels := make([]label.Label, len(nodes))
	for i, id := range nodes {
		labels[i] = run.Label(id)
	}
	r := rand.New(rand.NewSource(cfg.Seed + 4))
	type queryCase struct {
		sel string
		q   string
	}
	var cases []queryCase
	for i := 0; i < 4; i++ {
		cases = append(cases, queryCase{"high", d.SafeIFQ(r, 3, false)})
	}
	for i := 0; i < 4; i++ {
		cases = append(cases, queryCase{"low", d.SafeIFQ(r, 3, true)})
	}
	fmt.Fprintf(cfg.W, "run edges: %d, nodes: %d (l1 = l2 = all nodes)\n", run.NumEdges(), run.NumNodes())
	fmt.Fprintf(cfg.W, "%-4s %-5s %-36s %-9s %-12s %-10s %-10s\n",
		"id", "sel", "query", "matches", "G3-s", "RPL-s", "optRPL-s")
	for i, c := range cases {
		q := automata.MustParse(c.q)
		env, err := core.Compile(run.Spec, q)
		if err != nil {
			return err
		}
		if !env.Safe() {
			return fmt.Errorf("bench: IFQ %s unexpectedly unsafe", c.q)
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
		g3, ok := baseline.NewG3(ix, q)
		if !ok {
			return fmt.Errorf("bench: not an IFQ")
		}
		g3T := timeOf(func() {
			g3.AllPairs(nodes, nodes, func(i, j int) {})
		})
		fmt.Fprintf(cfg.W, "%-4d %-5s %-36s %-9d %-12.3f %-10.3f %-10.3f\n",
			i+1, c.sel, c.q, matches, sec(g3T), sec(rplT), sec(optT))
	}
	return nil
}

// Fig13e: all-pairs IFQ time on BioAID.
func Fig13e(cfg Config) error {
	header(cfg, "Fig 13e: all-pairs IFQ query time (BioAID, 8 IFQs k=3, run 2K)")
	return allPairsIFQ(cfg, workload.BioAID())
}

// Fig13f: all-pairs IFQ time on QBLast.
func Fig13f(cfg Config) error {
	header(cfg, "Fig 13f: all-pairs IFQ query time (QBLast, 8 IFQs k=3, run 2K)")
	return allPairsIFQ(cfg, workload.QBLast())
}

// kleene runs one Fig 13g/h dataset: all-pairs a* over the fork workload,
// baseline Option G1 vs RPL vs optRPL, varying run size.
func kleene(cfg Config, d *workload.Dataset) error {
	// The paper sweeps 1K-16K; we stop at 8K because the naive-fixpoint
	// baseline needs minutes beyond that (the trend is established well
	// before).
	sizes := []int{1000, 2000, 4000, 8000}
	if cfg.Quick {
		sizes = []int{300, 600}
	}
	q := automata.MustParse(d.StarQuery())
	fmt.Fprintf(cfg.W, "query: %s (l1 = l2 = fork distributor nodes)\n", d.StarQuery())
	fmt.Fprintf(cfg.W, "%-10s %-8s %-9s %-12s %-10s %-10s\n",
		"run-edges", "a-nodes", "matches", "G1-s", "RPL-s", "optRPL-s")
	for _, size := range sizes {
		run, err := derive.Derive(d.Spec, derive.Options{
			Seed: cfg.Seed, TargetEdges: size,
			FavorModules: d.ForkFavor, FavorCaps: d.ForkCaps,
		})
		if err != nil {
			return err
		}
		ix := index.Build(run)
		env, err := core.Compile(run.Spec, q)
		if err != nil {
			return err
		}
		if !env.Safe() {
			return fmt.Errorf("bench: %s unexpectedly unsafe on %s", d.StarQuery(), d.Name)
		}
		anodes := run.NodesOfModule("a")
		labels := make([]label.Label, len(anodes))
		for i, id := range anodes {
			labels[i] = run.Label(id)
		}
		matches := 0
		rplT, err := timeOfErr(func() error {
			matches = 0
			return env.AllPairsSafeParallel(labels, labels, core.RPL, 1, func(i, j int) { matches++ })
		})
		if err != nil {
			return err
		}
		optMatches := 0
		optT, err := timeOfErr(func() error {
			optMatches = 0
			return env.AllPairsSafeParallel(labels, labels, core.OptRPL, 1, func(i, j int) { optMatches++ })
		})
		if err != nil {
			return err
		}
		if optMatches != matches {
			return fmt.Errorf("bench: %s on %d edges: optRPL found %d matches, RPL %d", d.StarQuery(), size, optMatches, matches)
		}
		// The paper-faithful baseline self-joins naively until a fixpoint.
		g1 := baseline.NewG1Naive(ix)
		g1T := timeOf(func() {
			g1.AllPairs(q, anodes, anodes, func(i, j int) {})
		})
		fmt.Fprintf(cfg.W, "%-10d %-8d %-9d %-12.3f %-10.3f %-10.3f\n",
			run.NumEdges(), len(anodes), matches, sec(g1T), sec(rplT), sec(optT))
	}
	return nil
}

// Fig13g: all-pairs a* on BioAID fork runs.
func Fig13g(cfg Config) error {
	header(cfg, "Fig 13g: all-pairs Kleene star a* vs run size (BioAID)")
	return kleene(cfg, workload.BioAID())
}

// Fig13h: all-pairs a* on QBLast fork runs.
func Fig13h(cfg Config) error {
	header(cfg, "Fig 13h: all-pairs Kleene star a* vs run size (QBLast)")
	return kleene(cfg, workload.QBLast())
}

// general runs one Fig 15 dataset: random unsafe queries; % improvement of
// the safe-subtree decomposition (optRPL components) over Option G1.
func general(cfg Config, d *workload.Dataset) error {
	// Run size 1200 rather than the paper's 2K keeps the full 40-query
	// sweep within minutes; the improvement percentages are size-stable.
	wantUnsafe := 40
	size := 1200
	if cfg.Quick {
		wantUnsafe = 5
		size = 250
	}
	run, err := derive.Derive(d.Spec, derive.Options{Seed: cfg.Seed, TargetEdges: size})
	if err != nil {
		return err
	}
	ix := index.Build(run)
	r := rand.New(rand.NewSource(cfg.Seed + 5))

	// Collect random unsafe queries with lowly selective components (stars
	// or wildcards): the paper reports the improvement only for the subset
	// of unsafe queries "that generate massive intermediate results due to
	// lowly selective components" (31/40 on BioAID, 13/40 on QBLast).
	var unsafe []*automata.Node
	generated := 0
	for len(unsafe) < wantUnsafe && generated < wantUnsafe*400 {
		generated++
		qn, err := automata.Parse(d.RandomQuery(r, 3))
		if err != nil {
			continue
		}
		if !hasLowSelComponent(qn) {
			continue
		}
		env, err := core.Compile(d.Spec, qn)
		if err != nil || env.Safe() {
			continue
		}
		unsafe = append(unsafe, qn)
	}
	fmt.Fprintf(cfg.W, "run edges: %d; %d unsafe queries out of %d generated\n",
		run.NumEdges(), len(unsafe), generated)
	fmt.Fprintf(cfg.W, "%-4s %-44s %-10s %-10s %-12s %-12s %-12s\n",
		"id", "query", "matches", "G1-pairs", "G1-s", "ours-s", "improve-%")

	// Like the paper, report only the subset of unsafe queries that
	// actually generate massive intermediate results (31/40 on BioAID,
	// 13/40 on QBLast there); the rest are trivially cheap for both sides.
	// "Massive" is a count, not a wall-clock time, so the subset is the same
	// on every machine and does not shrink when the relation gets faster:
	// the pairs G1 materialises over all its intermediates for the query.
	massivePairs := 100_000
	if cfg.Quick {
		massivePairs = 10_000
	}
	var improvements []float64
	shown := 0
	for _, qn := range unsafe {
		g1 := baseline.NewG1(ix)
		g1Pairs := g1Intermediates(g1, qn)
		if g1Pairs < massivePairs {
			continue
		}
		var g1Rel, oursRel *rel.Rel
		g1T := timeOf(func() { g1Rel = g1.Eval(qn) })
		oursT, err := timeOfErr(func() error {
			ours := core.NewGeneral(run, ix, core.CostBased)
			var err error
			oursRel, _, err = ours.Eval(qn)
			return err
		})
		if err != nil {
			return err
		}
		if g1Rel.Len() != oursRel.Len() {
			return fmt.Errorf("bench: result mismatch on %s: ours %d vs G1 %d", qn, oursRel.Len(), g1Rel.Len())
		}
		imp := 100 * (sec(g1T) - sec(oursT)) / sec(g1T)
		improvements = append(improvements, imp)
		shown++
		qs := qn.String()
		if len(qs) > 42 {
			qs = qs[:39] + "..."
		}
		fmt.Fprintf(cfg.W, "%-4d %-44s %-10d %-10d %-12.4f %-12.4f %-12.1f\n",
			shown, qs, oursRel.Len(), g1Pairs, sec(g1T), sec(oursT), imp)
	}
	sort.Float64s(improvements)
	improved, big := 0, 0
	for _, imp := range improvements {
		if imp > 0 {
			improved++
		}
		if imp > 40 {
			big++
		}
	}
	fmt.Fprintf(cfg.W, "massive-intermediate queries: %d/%d; improved: %d/%d; >40%% improvement: %d/%d\n",
		shown, len(unsafe), improved, len(improvements), big, len(improvements))
	return nil
}

// g1Intermediates returns the pairs Option G1 materialises for the query:
// the sizes of the relations it builds for every node of the parse tree,
// leaves and result included.
func g1Intermediates(g1 *baseline.G1, q *automata.Node) int {
	total := g1.Eval(q).Len()
	for _, c := range q.Children {
		total += g1Intermediates(g1, c)
	}
	return total
}

// hasLowSelComponent reports whether the query contains a subexpression
// that makes relational evaluation materialize large intermediates: a
// Kleene star/plus over more than a single symbol, or a wildcard.
func hasLowSelComponent(q *automata.Node) bool {
	switch q.Kind {
	case automata.KindWild:
		return true
	case automata.KindStar, automata.KindPlus:
		if q.Children[0].Kind != automata.KindSym {
			return true
		}
	}
	for _, c := range q.Children {
		if hasLowSelComponent(c) {
			return true
		}
	}
	return false
}

// Fig15a: improvement of the decomposition over G1 on BioAID.
func Fig15a(cfg Config) error {
	header(cfg, "Fig 15a: optRPL improvement on unsafe general queries (BioAID)")
	return general(cfg, workload.BioAID())
}

// Fig15b: improvement of the decomposition over G1 on QBLast.
func Fig15b(cfg Config) error {
	header(cfg, "Fig 15b: optRPL improvement on unsafe general queries (QBLast)")
	return general(cfg, workload.QBLast())
}

func ms(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e3 }
func sec(d time.Duration) float64 { return d.Seconds() }
