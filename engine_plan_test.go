package provrpq_test

// Tests for the plan report surface: Engine.Explain / EvaluatePlanned
// across safe and unsafe queries, the empty-run and absent-tag
// edge cases the cost model must stay finite on, and the catalog wiring
// (per-run-generation plan refresh after growth).

import (
	"math"
	"testing"

	"provrpq"
	"provrpq/internal/metrics"
)

// planSpec is the package-doc grammar: S -> x A p over a linear A
// recursion. Tag "p" occurs exactly once per run, making it the natural
// seed for anchored queries.
func planSpec(t testing.TB) *provrpq.Spec {
	t.Helper()
	spec, err := provrpq.NewSpecBuilder().
		Start("S").
		Chain("S", "x", "A", "p").
		Chain("A", "a1", "A", "s").
		Chain("A", "a2", "s").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// evalCounts returns the observation count of provrpq_eval_seconds per
// strategy label.
func evalCounts() map[string]uint64 {
	out := map[string]uint64{}
	for _, fam := range metrics.Default().Snapshot() {
		if fam.Name == "provrpq_eval_seconds" {
			for _, s := range fam.Samples {
				out[s.LabelValues[0]] = s.Histogram.Count
			}
		}
	}
	return out
}

func finite(c float64) bool { return !math.IsNaN(c) && !math.IsInf(c, 0) && c >= 0 }

func checkCosts(t *testing.T, rep *provrpq.PlanReport) {
	t.Helper()
	for name, c := range map[string]float64{"rpl": rep.CostRPL, "optrpl": rep.CostOptRPL, "seeded": rep.CostSeeded} {
		if !finite(c) {
			t.Errorf("cost %s = %v, want finite and non-negative", name, c)
		}
	}
}

func TestExplainSafeQuery(t *testing.T) {
	spec := planSpec(t)
	run, err := spec.Derive(provrpq.DeriveOptions{Seed: 2, TargetEdges: 200})
	if err != nil {
		t.Fatal(err)
	}
	eng := provrpq.NewEngine(run)
	q := provrpq.MustParseQuery("_*.p._*")
	rep, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe || rep.Decomposed {
		t.Fatalf("expected a safe single-scan report, got %+v", rep)
	}
	switch rep.Strategy {
	case provrpq.StrategyRPL, provrpq.StrategyOptRPL, provrpq.StrategySeeded:
	default:
		t.Fatalf("safe query planned strategy %v, want a concrete scan strategy", rep.Strategy)
	}
	if rep.SeedTag != "p" || rep.SeedCount < 1 {
		t.Errorf("seed = %q (%d occurrences), want the rare required tag \"p\"", rep.SeedTag, rep.SeedCount)
	}
	checkCosts(t, rep)

	// EvaluatePlanned reports the same plan and answers identically to
	// Evaluate and to the forced strategy; the one scan it ran is
	// observed under the strategy its report names.
	before := evalCounts()
	pairs, rep2, err := eng.EvaluatePlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Strategy != rep.Strategy {
		t.Errorf("EvaluatePlanned strategy %v != Explain strategy %v", rep2.Strategy, rep.Strategy)
	}
	for strategy, n := range evalCounts() {
		want := uint64(0)
		if strategy == rep2.Strategy.String() {
			want = 1
		}
		if got := n - before[strategy]; got != want {
			t.Errorf("provrpq_eval_seconds{strategy=%q} moved by %d, want %d (report says %v)", strategy, got, want, rep2.Strategy)
		}
	}
	direct, err := eng.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !samePairs(pairs, direct) {
		t.Errorf("EvaluatePlanned (%d pairs) and Evaluate (%d pairs) disagree", len(pairs), len(direct))
	}
	forced, err := eng.AllPairs(q, run.AllNodes(), run.AllNodes(), rep.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	if !samePairs(pairs, forced) {
		t.Errorf("planned strategy %v disagrees with its forced run", rep.Strategy)
	}
}

func TestExplainUnsafeQuery(t *testing.T) {
	spec := forkSpec(t)
	run := forkRun(t, spec, 2, 150)
	eng := provrpq.NewEngine(run)
	// a+ is genuinely unsafe on the fork grammar: iterations of M spell a^j
	// with differing j.
	rep, err := eng.Explain(provrpq.MustParseQuery("a+"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Safe || !rep.Decomposed {
		t.Fatalf("expected an unsafe decomposition report, got %+v", rep)
	}
	if rep.Strategy != provrpq.Auto {
		t.Errorf("unsafe strategy = %v, want Auto (decomposition)", rep.Strategy)
	}
	if rep.RelationalNodes == 0 {
		t.Error("decomposition reports zero relational nodes")
	}
	checkCosts(t, rep) // zeroed, but must not be NaN
}

// TestExplainEmptyRun: a run with zero nodes must plan and evaluate
// without dividing by zero.
func TestExplainEmptyRun(t *testing.T) {
	spec := planSpec(t)
	run, err := provrpq.DecodeRun(spec, []byte(`{"nodes":[],"edges":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	eng := provrpq.NewEngine(run)
	for _, qs := range []string{"_*.p._*", "_*", "a1.(_*.s._*)"} {
		rep, err := eng.Explain(provrpq.MustParseQuery(qs))
		if err != nil {
			t.Fatalf("Explain(%s) on empty run: %v", qs, err)
		}
		checkCosts(t, rep)
		pairs, rep2, err := eng.EvaluatePlanned(provrpq.MustParseQuery(qs))
		if err != nil {
			t.Fatalf("EvaluatePlanned(%s) on empty run: %v", qs, err)
		}
		if len(pairs) != 0 {
			t.Errorf("empty run matched %d pairs for %s", len(pairs), qs)
		}
		checkCosts(t, rep2)
	}
}

// TestExplainAbsentTag: a query anchored on a tag with zero occurrences
// (here a tag outside Γ entirely) plans finitely and evaluates to nothing.
func TestExplainAbsentTag(t *testing.T) {
	spec := planSpec(t)
	run, err := spec.Derive(provrpq.DeriveOptions{Seed: 4, TargetEdges: 100})
	if err != nil {
		t.Fatal(err)
	}
	eng := provrpq.NewEngine(run)
	q := provrpq.MustParseQuery("_*.ghost._*")
	rep, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe {
		t.Fatalf("_*.ghost._* should be (vacuously) safe, got %+v", rep)
	}
	if rep.SeedTag != "ghost" || rep.SeedCount != 0 {
		t.Errorf("seed = %q (%d), want ghost with zero occurrences", rep.SeedTag, rep.SeedCount)
	}
	checkCosts(t, rep)
	pairs, err := eng.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Errorf("absent tag matched %d pairs", len(pairs))
	}
}

// TestCatalogExplainTracksGrowth: Catalog.Explain serves plan reports, and
// a growth batch — which swaps the run's engine — refreshes the planner's
// statistics, so the seed occurrence count follows the run's generation.
func TestCatalogExplainTracksGrowth(t *testing.T) {
	cat := provrpq.NewCatalog(provrpq.CatalogOptions{})
	spec := planSpec(t)
	if err := cat.RegisterSpec("wf", spec); err != nil {
		t.Fatal(err)
	}
	run, err := spec.Derive(provrpq.DeriveOptions{Seed: 6, TargetEdges: 120})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("r1", "wf", run); err != nil {
		t.Fatal(err)
	}
	q := provrpq.MustParseQuery("_*.p._*")
	before, err := cat.Explain("r1", q)
	if err != nil {
		t.Fatal(err)
	}
	if before.SeedTag != "p" {
		t.Fatalf("seed = %q, want p", before.SeedTag)
	}
	// Append one more p-tagged edge between existing nodes: the new engine's
	// index must count it.
	batch, err := provrpq.DecodeBatch(spec, []byte(`{"edges":[{"From":0,"To":1,"Tag":"p"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AppendEdges("r1", batch); err != nil {
		t.Fatal(err)
	}
	after, err := cat.Explain("r1", q)
	if err != nil {
		t.Fatal(err)
	}
	if after.SeedCount != before.SeedCount+1 {
		t.Errorf("seed count after growth = %d, want %d (statistics must refresh with the run generation)",
			after.SeedCount, before.SeedCount+1)
	}
}
