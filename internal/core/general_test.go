package core

import (
	"fmt"
	"slices"
	"testing"

	"provrpq/internal/automata"
	"provrpq/internal/baseline"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/wf"
	"provrpq/internal/workload"
)

// generalQueries mixes safe, unsafe and structured queries on PaperSpec.
var generalQueries = []string{
	// Safe as a whole.
	"_*.e._*",
	"_*",
	// Unsafe as a whole with safe subtrees.
	"_*.A._*",     // A occurs only in W2 executions
	"(_*.e._*).A", // safe prefix, unsafe suffix
	"d.(_*.e._*)", // unsafe head, safe tail
	"_*.d._*",     // unsafe IFQ
	"(A|d)+",      // recursion-ish unsafe
	"A+",
	"e",
	"b|e",
	"d*._*.e._*",
	"(b.b)|(e.d)",
	"_?",
}

// checkGeneralAgainstOracle evaluates every query with gen and holds the
// relation against the product-BFS oracle, pair for pair.
func checkGeneralAgainstOracle(t *testing.T, what string, run *derive.Run, gen *General, queries []string) {
	t.Helper()
	for _, qs := range queries {
		q := automata.MustParse(qs)
		rel, rep, err := gen.Eval(q)
		if err != nil {
			t.Fatalf("%s: Eval(%q): %v", what, qs, err)
		}
		oracle := baseline.NewOracle(run, q)
		want := baseline.NewRel()
		for _, u := range run.AllNodes() {
			for _, v := range oracle.From(u) {
				want.Add(u, v)
			}
		}
		if rel.Len() != want.Len() {
			t.Fatalf("%s query %q: %d pairs, oracle %d (report %+v)", what, qs, rel.Len(), want.Len(), rep)
		}
		want.Each(func(u, v derive.NodeID) {
			if !rel.Has(u, v) {
				t.Fatalf("%s query %q: missing (%s,%s)", what, qs, run.Nodes[u].Name, run.Nodes[v].Name)
			}
		})
	}
}

func TestGeneralMatchesOracle(t *testing.T) {
	spec := wf.PaperSpec()
	for seed := int64(0); seed < 4; seed++ {
		run, err := derive.Derive(spec, derive.Options{Seed: seed, TargetEdges: 80})
		if err != nil {
			t.Fatal(err)
		}
		ix := index.Build(run)
		for _, strategy := range []GeneralStrategy{LargestSafeSubtree, CostBased, RelationalOnly} {
			what := fmt.Sprintf("strategy %d seed %d", strategy, seed)
			checkGeneralAgainstOracle(t, what, run, NewGeneral(run, ix, strategy), generalQueries)
		}
	}
}

// TestGeneralMatchesOracleOnServedShapes runs the decomposition shapes the
// served unsafe workload is made of — a selective tag around _*, a closure
// beside it, a closure over it, an alternation of two of them — on runs of
// its size, serial and sharded: the safe subtree is tens of thousands of
// pairs filled block by block, the remainder joins over rows.
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
		for _, workers := range []int{1, 2} {
			for _, strategy := range []GeneralStrategy{LargestSafeSubtree, CostBased} {
				gen := NewGeneralOpts(run, ix, strategy, GeneralOptions{Workers: workers})
				what := fmt.Sprintf("%s strategy %d workers %d", c.d.Name, strategy, workers)
				checkGeneralAgainstOracle(t, what, run, gen, c.queries)
			}
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

// TestGeneralShardedFillMatchesSerial runs a safe subtree above the OptRPL
// cut-off, where two workers fill disjoint row ranges of one relation side
// by side: the relation must equal the one a single worker fills.
func TestGeneralShardedFillMatchesSerial(t *testing.T) {
	d := workload.BioAID()
	run, err := derive.Derive(d.Spec, derive.Options{Seed: 5, TargetEdges: optParallelCutoff + 400})
	if err != nil {
		t.Fatal(err)
	}
	if run.NumNodes() < optParallelCutoff {
		t.Fatalf("fixture has %d nodes, below the cut-off %d", run.NumNodes(), optParallelCutoff)
	}
	ix := index.Build(run)
	q := automata.MustParse("_*.p3_2._*.p5_2._*")
	var rels [2]*baseline.Rel
	for i, workers := range []int{1, 2} {
		gen := NewGeneralOpts(run, ix, LargestSafeSubtree, GeneralOptions{Workers: workers})
		rel, rep, err := gen.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.SafeSubtrees) != 1 || rel.Len() == 0 {
			t.Fatalf("workers %d: want a non-empty result filled from one safe subtree, got %d pairs, %+v", workers, rel.Len(), rep)
		}
		rels[i] = rel
	}
	if !slices.Equal(rels[0].Pairs(), rels[1].Pairs()) {
		t.Fatalf("1 worker found %d pairs, 2 workers %d", rels[0].Len(), rels[1].Len())
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
