package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"provrpq/internal/automata"
	"provrpq/internal/baseline"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/label"
	"provrpq/internal/reach"
	"provrpq/internal/rel"
	"provrpq/internal/wf"
	"provrpq/internal/workload"
)

// checkGeneralAgainstOracle evaluates every query with gen and holds the
// relation against the product-BFS oracle, pair for pair.
func checkGeneralAgainstOracle(t *testing.T, what string, run *derive.Run, gen *General, queries []string) {
	t.Helper()
	for _, qs := range queries {
		q := automata.MustParse(qs)
		got, rep, err := gen.Eval(q)
		if err != nil {
			t.Fatalf("%s: Eval(%q): %v", what, qs, err)
		}
		oracle := baseline.NewOracle(run, q)
		want := rel.NewRel()
		for _, u := range run.AllNodes() {
			for _, v := range oracle.From(u) {
				want.Add(u, v)
			}
		}
		if got.Len() != want.Len() {
			t.Fatalf("%s query %q: %d pairs, oracle %d (report %+v)", what, qs, got.Len(), want.Len(), rep)
		}
		want.Each(func(u, v derive.NodeID) {
			if !got.Has(u, v) {
				t.Fatalf("%s query %q: missing (%s,%s)", what, qs, run.Nodes[u].Name, run.Nodes[v].Name)
			}
		})
	}
}

// TestGeneralMatchesOracle: on every enumerated specification × run ×
// unsafe query, General.Eval under each strategy gives the oracle's relation.
func TestGeneralMatchesOracle(t *testing.T) {
	for _, e := range enumerate(t) {
		queries := make([]string, len(e.unsafe))
		for i, env := range e.unsafe {
			queries[i] = env.Query.String()
		}
		for ri, run := range e.runs {
			ix := index.Build(run)
			for _, strategy := range []GeneralStrategy{LargestSafeSubtree, CostBased, RelationalOnly} {
				what := fmt.Sprintf("%s run %d strategy %d", e.name, ri, strategy)
				checkGeneralAgainstOracle(t, what, run, NewGeneral(run, ix, strategy), queries)
			}
		}
	}
}

// TestGeneralMatchesOracleOnServedShapes runs the decomposition shapes the
// served unsafe workload is made of — a selective tag around _*, a closure
// beside it, a closure over it, an alternation of two of them — on runs of
// its size: the safe subtree is tens of thousands of pairs filled block by
// block, the remainder joins over rows.
func TestGeneralMatchesOracleOnServedShapes(t *testing.T) {
	cases := []struct {
		d       *workload.Dataset
		queries []string
	}{
		{workload.BioAID(), []string{
			"p3_2._*._", "(_._*.p1_11).(_._)", "p2_6*._*.p5_2", "(p6_9._*._)+._",
			"(p3_2._*._)|(_._*.p5_2)",
		}},
		{workload.QBLast(), []string{
			"q1_8._*._", "(_._*.q1_5).(_._)", "q2_20*._*.q1_12", "(x2._*._)+._",
			"(q1_7._*._)|(_._*.q2_18)",
		}},
	}
	for _, c := range cases {
		run, err := derive.Derive(c.d.Spec, derive.Options{Seed: 3, TargetEdges: 300})
		if err != nil {
			t.Fatal(err)
		}
		ix := index.Build(run)
		for _, strategy := range []GeneralStrategy{LargestSafeSubtree, CostBased} {
			what := fmt.Sprintf("%s strategy %d", c.d.Name, strategy)
			checkGeneralAgainstOracle(t, what, run, NewGeneral(run, ix, strategy), c.queries)
		}
		// The alternation really has two safe subtrees to fill and unite.
		alt := c.queries[len(c.queries)-1]
		rep, err := NewGeneral(run, ix, LargestSafeSubtree).Plan(automata.MustParse(alt))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Safe || len(rep.SafeSubtrees) != 2 {
			t.Errorf("%s %q: want an unsafe query with two safe subtrees, got %+v", c.d.Name, alt, rep)
		}
	}
}

func TestGeneralReportsDecomposition(t *testing.T) {
	spec := wf.PaperSpec()
	run, err := derive.Derive(spec, derive.Options{Seed: 1, TargetEdges: 60})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(run)
	gen := NewGeneral(run, ix, LargestSafeSubtree)

	// Whole query safe: exactly one safe subtree, no relational nodes.
	_, rep, err := gen.Eval(automata.MustParse("_*.e._*"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe || len(rep.SafeSubtrees) != 1 || rep.RelationalNodes != 0 {
		t.Errorf("safe query report = %+v", rep)
	}

	// Unsafe query with a safe subtree: the safe part must be found. (The
	// leading A makes it unsafe: W3 executions of module A kill the query
	// while W2 executions satisfy the A and proceed.)
	_, rep, err = gen.Eval(automata.MustParse("A.(_*.e._*)"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Safe {
		t.Error("A.(_*.e._*) should be unsafe overall")
	}
	if len(rep.SafeSubtrees) == 0 {
		t.Error("expected a maximal safe subtree to be used")
	}
	if rep.RelationalNodes == 0 {
		t.Error("expected a relational remainder")
	}

	// RelationalOnly never uses safe subtrees.
	genRel := NewGeneral(run, ix, RelationalOnly)
	_, rep, err = genRel.Eval(automata.MustParse("_*.e._*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SafeSubtrees) != 0 {
		t.Errorf("RelationalOnly used safe subtrees: %+v", rep)
	}
}

func TestGeneralEnvCacheReuse(t *testing.T) {
	spec := wf.PaperSpec()
	run, err := derive.Derive(spec, derive.Options{Seed: 1, TargetEdges: 40})
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGeneral(run, index.Build(run), LargestSafeSubtree)
	if _, _, err := gen.Eval(automata.MustParse("_*.e._*")); err != nil {
		t.Fatal(err)
	}
	count := func() int {
		n := 0
		gen.envs.Range(func(_, _ any) bool { n++; return true })
		return n
	}
	before := count()
	if _, _, err := gen.Eval(automata.MustParse("_*.e._*")); err != nil {
		t.Fatal(err)
	}
	if count() != before {
		t.Error("env cache should be reused for a repeated query")
	}
}

// servedFixture is one run of the served read-decompose workload with the
// queries benchmark/pools.json freezes for it.
type servedFixture struct {
	d       *workload.Dataset
	run     *derive.Run
	gen     *General
	queries []string
	counts  map[string]int // the frozen result sizes
}

// servedDecomposeFixtures derives the two read-decompose runs as the benchmark
// does and reads their query pool.
func servedDecomposeFixtures(t *testing.T) map[string]*servedFixture {
	t.Helper()
	raw, err := os.ReadFile("../../benchmark/pools.json")
	if err != nil {
		t.Fatal(err)
	}
	var pf struct {
		Seed      int64 `json:"fixture_seed"`
		Workloads map[string][]struct {
			Run, Query string
			Count      int
		}
	}
	if err := json.Unmarshal(raw, &pf); err != nil {
		t.Fatal(err)
	}
	out := map[string]*servedFixture{}
	for name, f := range map[string]struct {
		d     *workload.Dataset
		edges int
	}{"bio300": {workload.BioAID(), 300}, "qbl400": {workload.QBLast(), 400}} {
		run, err := derive.Derive(f.d.Spec, derive.Options{Seed: pf.Seed, TargetEdges: f.edges})
		if err != nil {
			t.Fatal(err)
		}
		gen := NewGeneral(run, index.Build(run), CostBased)
		out[name] = &servedFixture{d: f.d, run: run, gen: gen, counts: map[string]int{}}
	}
	for _, pq := range pf.Workloads["read-decompose"] {
		fx := out[pq.Run]
		if fx == nil {
			t.Fatalf("pools.json: read-decompose query on unknown run %q", pq.Run)
		}
		fx.queries = append(fx.queries, pq.Query)
		fx.counts[pq.Query] = pq.Count
	}
	if n := len(out["bio300"].queries) + len(out["qbl400"].queries); n != 32 {
		t.Fatalf("pools.json: %d read-decompose queries, want 32", n)
	}
	return out
}

// decomposition is an evaluation's report without its Work: what Plan
// reports.
func decomposition(rep *EvalReport) EvalReport {
	out := *rep
	out.Work = Work{}
	return out
}

// randomSet draws a node set in the form EvalContext takes.
func randomSet(r *rand.Rand, n int) []int32 {
	set := []int32{}
	switch r.Intn(5) {
	case 0: // every node
		return nil
	case 1: // none
	case 2:
		set = append(set, int32(r.Intn(n)))
	default:
		p := []float64{0.02, 0.3, 0.9}[r.Intn(3)]
		for u := 0; u < n; u++ {
			if r.Float64() < p {
				set = append(set, int32(u))
			}
		}
	}
	return set
}

// TestGeneralRestrictedEqualsFiltered: for the served pool and 100 random
// queries per dataset, and random source and target sets, what EvalContext
// returns for from × to holds, inside from × to, exactly the oracle's pairs
// — as the unrestricted result does — and nothing outside the unrestricted
// result; and every evaluation reports the decomposition Plan does.
func TestGeneralRestrictedEqualsFiltered(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	ctx := context.Background()
	for name, fx := range servedDecomposeFixtures(t) {
		queries := slices.Clone(fx.queries)
		for len(queries) < len(fx.queries)+100 {
			queries = append(queries, fx.d.RandomQuery(r, 3))
		}
		n := fx.run.NumNodes()
		for _, qs := range queries {
			q := automata.MustParse(qs)
			full, rep, err := fx.gen.Eval(q)
			if err != nil {
				t.Fatalf("%s %q: %v", name, qs, err)
			}
			if want, frozen := fx.counts[qs]; frozen && full.Len() != want {
				t.Fatalf("%s %q: %d pairs, pools.json froze %d", name, qs, full.Len(), want)
			}
			plan, err := fx.gen.Plan(q)
			if err != nil || !reflect.DeepEqual(decomposition(rep), *plan) {
				t.Fatalf("%s %q: Eval reports %+v, Plan %+v (%v)", name, qs, rep, plan, err)
			}
			oracle := baseline.NewOracle(fx.run, q)
			for round := 0; round < 3; round++ {
				from, to := randomSet(r, n), randomSet(r, n)
				got, rep, err := fx.gen.EvalContext(ctx, q, from, to)
				if err != nil || !reflect.DeepEqual(decomposition(rep), *plan) {
					t.Fatalf("%s %q in %d × %d: report %+v, Plan %+v (%v)", name, qs, len(from), len(to), rep, plan, err)
				}
				in := func(set []int32, v derive.NodeID) bool {
					_, found := slices.BinarySearch(set, int32(v))
					return set == nil || found
				}
				inside := 0
				got.Each(func(u, v derive.NodeID) {
					if !full.Has(u, v) {
						t.Fatalf("%s %q in %d × %d: (%d,%d) is not in the result", name, qs, len(from), len(to), u, v)
					}
					if in(from, u) && in(to, v) {
						inside++
					}
				})
				for u := derive.NodeID(0); int(u) < n; u++ {
					if !in(from, u) {
						continue
					}
					for _, v := range oracle.From(u) {
						if !in(to, v) {
							continue
						}
						if inside--; !got.Has(u, v) || !full.Has(u, v) {
							t.Fatalf("%s %q in %d × %d: the oracle's (%d,%d) is missing (restricted %v, unrestricted %v)",
								name, qs, len(from), len(to), u, v, got.Has(u, v), full.Has(u, v))
						}
					}
				}
				if inside != 0 {
					t.Fatalf("%s %q in %d × %d: %d pairs inside from × to that the oracle does not have", name, qs, len(from), len(to), inside)
				}
			}
		}
	}
}

// TestGeneralSafeSubtreeWorkIsOutputBound counts the pairs safe subtrees
// materialise, from the evaluation's own report. A selective tag beside _* has it walked from that tag's few
// targets, not over all 81,003 pairs; where the neighbours reach and leave
// nearly every node there is nothing to pass sideways and all of _* is walked.
func TestGeneralSafeSubtreeWorkIsOutputBound(t *testing.T) {
	t.Parallel()
	fxs := servedDecomposeFixtures(t)
	materialised := func(run, qs string) (pairs, answers int) {
		rel, rep, err := fxs[run].gen.Eval(automata.MustParse(qs))
		if err != nil || !slices.Equal(rep.SafeSubtrees, []string{"_*"}) {
			t.Fatalf("%s %q: want the one safe subtree _*, got %+v (%v)", run, qs, rep, err)
		}
		return rep.Work.Pairs, rel.Len()
	}
	if pairs, answers := materialised("bio300", "p6_2._*._"); answers != 54 || pairs > 10*answers {
		t.Errorf("p6_2._*._: %d pairs of _* materialised for %d answers, want at most 10 per answer", pairs, answers)
	}
	if pairs, _ := materialised("bio300", "p5_11._*.p2_11"); pairs > 100 {
		t.Errorf("p5_11._*.p2_11: %d pairs of _* materialised, want at most 100", pairs)
	}
	// P2* reaches every node and _ leaves all but the sinks: neither set is
	// worth a sub-trie, and the walk over all nodes — what the whole query _*
	// takes — still runs.
	all, _ := materialised("qbl400", "_*")
	if pairs, _ := materialised("qbl400", "P2*._*._"); all != 60217 || pairs != all {
		t.Errorf("P2*._*._: %d pairs of _* materialised, want all %d (60217) of them", pairs, all)
	}
}

// TestGeneralConcurrentEvalSharesOrder: evaluations that race to build the
// trie of every node all get one, and the same relations (run under -race);
// rank is the label order of every node.
func TestGeneralConcurrentEvalSharesOrder(t *testing.T) {
	fx := servedDecomposeFixtures(t)["bio300"]
	gen := NewGeneral(fx.run, index.Build(fx.run), CostBased)
	var wg sync.WaitGroup
	off := make([]int, 8)
	tries := make([]*reach.Trie, len(off))
	for i := range off {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qs := fx.queries[i%4]
			rel, _, err := gen.Eval(automata.MustParse(qs))
			if err != nil {
				t.Error(err)
				return
			}
			off[i], tries[i] = rel.Len()-fx.counts[qs], gen.Trie()
		}()
	}
	wg.Wait()
	if !slices.Equal(off, make([]int, len(off))) {
		t.Errorf("concurrent evaluations differ from the frozen counts by %v", off)
	}
	for i, tr := range tries {
		if tr != tries[0] || tr == nil {
			t.Fatalf("evaluation %d got the whole trie %p, evaluation 0 got %p", i, tr, tries[0])
		}
	}
	labels := fx.run.MaterializeLabels()
	order := make([]int, len(labels))
	seen := make([]bool, len(labels))
	for u, i := range gen.rank {
		if seen[i] {
			t.Fatalf("rank %d is given twice", i)
		}
		order[i], seen[i] = u, true
	}
	for i := 1; i < len(order); i++ {
		if label.Compare(labels[order[i-1]], labels[order[i]]) > 0 {
			t.Fatalf("rank %d holds %v, after %v", i, labels[order[i]], labels[order[i-1]])
		}
	}
}

// TestGeneralWarmDecompositionBuildsNoWholeTrie: the trie of every node is
// built once per General. p6_2._*._ on bio300 walks _* from p6_2's few targets
// to every node, so its first evaluation builds that trie; a second one
// allocates at least such a build less than a fresh General's first does.
func TestGeneralWarmDecompositionBuildsNoWholeTrie(t *testing.T) {
	fx := servedDecomposeFixtures(t)["bio300"]
	q := automata.MustParse("p6_2._*._")
	bytesOf := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	eval := func(g *General) func() {
		return func() {
			if _, _, err := g.Eval(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	eval(fx.gen)()
	fresh := NewGeneral(fx.run, fx.gen.ix, CostBased)
	fx.gen.envs.Range(func(k, v any) bool { fresh.envs.Store(k, v); return true }) // the same plans
	first, second := bytesOf(eval(fresh)), ^uint64(0)
	for i := 0; i < 3; i++ { // a pooled decoder a collection dropped is not the trie
		second = min(second, bytesOf(eval(fx.gen)))
	}
	build := bytesOf(func() { reach.NewTrie(fx.run.MaterializeLabels()) })
	if first < second+build {
		t.Errorf("a warm evaluation allocates %d B, a cold one %d B: not the %d B of the whole trie less", second, first, build)
	}
}

// cancelAt is a context that counts how often its Err is asked and cancels
// itself right after answering the at-th time: what runs between that look
// and the next finds it done.
type cancelAt struct {
	context.Context
	asked, at int
	cancel    func()
}

func (c *cancelAt) Err() error {
	err := c.Context.Err()
	if c.asked++; c.asked == c.at {
		c.cancel()
	}
	return err
}

// TestGeneralCancelledAtEveryPoint cancels the decomposition whose joins
// dominate after each look it takes at its context in turn — the last but one
// of them after its last child, when only joins remain, which then give up at
// their first block of rows: it must end with the context's error every time,
// never with the relation a stopped operator left.
func TestGeneralCancelledAtEveryPoint(t *testing.T) {
	fx := servedDecomposeFixtures(t)["qbl400"]
	q := automata.MustParse("P2*._*._")
	count := &cancelAt{Context: context.Background()}
	if rel, _, err := fx.gen.EvalContext(count, q, nil, nil); err != nil || rel.Len() != fx.counts["P2*._*._"] || count.asked < 6 {
		t.Fatalf("uncancelled: %v, %d looks at the context", err, count.asked)
	}
	for at := 1; at < count.asked; at++ {
		ctx, cancel := context.WithCancel(context.Background())
		rel, rep, err := fx.gen.EvalContext(&cancelAt{Context: ctx, at: at, cancel: cancel}, q, nil, nil)
		if !errors.Is(err, context.Canceled) || rel != nil || rep != nil {
			t.Errorf("cancelled after look %d of %d: relation %v, report %v, error %v, want context.Canceled alone", at, count.asked, rel != nil, rep != nil, err)
		}
		cancel()
	}
}
