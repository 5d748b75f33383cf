package provrpq

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// catalogFixture registers one spec and three runs of it.
func catalogFixture(t *testing.T) (*Catalog, []string) {
	t.Helper()
	cat := NewCatalog(CatalogOptions{})
	if err := cat.RegisterSpec("intro", introSpec(t)); err != nil {
		t.Fatal(err)
	}
	var runs []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("run-%d", i)
		if _, err := cat.DeriveRun(name, "intro", DeriveOptions{Seed: int64(i + 1), TargetEdges: 100 + 50*i}); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, name)
	}
	return cat, runs
}

func TestCatalogRegistration(t *testing.T) {
	cat, runs := catalogFixture(t)
	if got := cat.SpecNames(); len(got) != 1 || got[0] != "intro" {
		t.Fatalf("SpecNames = %v", got)
	}
	if got := cat.RunNames(); len(got) != 3 {
		t.Fatalf("RunNames = %v", got)
	}
	if got := cat.RunsOfSpec("intro"); len(got) != 3 {
		t.Fatalf("RunsOfSpec = %v", got)
	}
	if sp, ok := cat.RunSpecName(runs[0]); !ok || sp != "intro" {
		t.Fatalf("RunSpecName = %q, %v", sp, ok)
	}
	if err := cat.RegisterSpec("intro", introSpec(t)); err == nil {
		t.Error("duplicate spec name should fail")
	}
	if err := cat.RegisterSpec("nil", nil); err == nil {
		t.Error("nil spec should fail")
	}
	if _, err := cat.DeriveRun("run-0", "intro", DeriveOptions{Seed: 9}); err == nil {
		t.Error("duplicate run name should fail")
	}
	if _, err := cat.DeriveRun("x", "ghost", DeriveOptions{}); err == nil {
		t.Error("deriving from unknown spec should fail")
	}
	if _, err := cat.Engine("ghost"); err == nil {
		t.Error("unknown run engine should fail")
	}

	// AddRun rejects a run of a *different* spec object: identity matters
	// for label decoding and plan sharing.
	other := introSpec(t)
	foreign, err := other.Derive(DeriveOptions{Seed: 1, TargetEdges: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("foreign", "intro", foreign); err == nil {
		t.Error("run of a different spec instance should be rejected")
	}

	// A run decoded against the registered spec is accepted.
	spec, _ := cat.Spec("intro")
	native, err := spec.Derive(DeriveOptions{Seed: 42, TargetEdges: 60})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeRun(native)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeRun(spec, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("uploaded", "intro", decoded); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Engine("uploaded"); err != nil {
		t.Fatal(err)
	}
}

// TestCatalogEngineIdentity verifies one lazily-built engine per run.
func TestCatalogEngineIdentity(t *testing.T) {
	cat, runs := catalogFixture(t)
	e1, err := cat.Engine(runs[0])
	if err != nil {
		t.Fatal(err)
	}
	e2, err := cat.Engine(runs[0])
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("repeated Engine calls should return the same engine")
	}
	run, ok := cat.Run(runs[0])
	if !ok || e1.Run() != run {
		t.Error("engine is not over the registered run")
	}
}

// TestEvaluateBatch checks the batch fan-out against direct Engine
// evaluation, per-item errors, and plan-cache sharing across runs.
func TestEvaluateBatch(t *testing.T) {
	cat, runs := catalogFixture(t)
	queries := []*Query{
		MustParseQuery("_*.s._*.publish"),
		MustParseQuery("ingest._*"),
		MustParseQuery("_*.a1._*"), // unsafe: exercises the decomposition path
	}
	results := cat.EvaluateBatch(runs, queries)
	if len(results) != len(runs)*len(queries) {
		t.Fatalf("got %d results, want %d", len(results), len(runs)*len(queries))
	}
	for i, res := range results {
		wantRun, wantQ := runs[i/len(queries)], queries[i%len(queries)]
		if res.Run != wantRun || res.Query != wantQ.String() {
			t.Fatalf("result %d is (%s, %s), want (%s, %s)", i, res.Run, res.Query, wantRun, wantQ)
		}
		if res.Err != nil {
			t.Fatalf("result %d failed: %v", i, res.Err)
		}
		eng, err := cat.Engine(res.Run)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := eng.Evaluate(wantQ)
		if err != nil {
			t.Fatal(err)
		}
		if len(direct) != len(res.Pairs) {
			t.Fatalf("result %d: batch %d pairs, direct %d", i, len(res.Pairs), len(direct))
		}
		for j := range direct {
			if direct[j] != res.Pairs[j] {
				t.Fatalf("result %d pair %d: batch %v, direct %v", i, j, res.Pairs[j], direct[j])
			}
		}
	}

	// Empty run list = all runs; unknown runs fail per-item, not globally.
	all := cat.EvaluateBatch(nil, queries[:1])
	if len(all) != 3 {
		t.Fatalf("nil runs should select all 3 runs, got %d results", len(all))
	}
	mixed := cat.EvaluateBatch([]string{runs[0], "ghost"}, queries[:1])
	if mixed[0].Err != nil {
		t.Errorf("known run errored: %v", mixed[0].Err)
	}
	if mixed[1].Err == nil {
		t.Error("unknown run should carry a per-item error")
	}

	// Three runs of one spec share plans: each query compiles once
	// (a miss) and hits on every other run.
	stats := cat.Stats()
	if stats.Specs != 1 || stats.Runs != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.PlanCache.Hits <= stats.PlanCache.Misses {
		t.Errorf("plan cache should hit more than it misses across runs of one spec: %+v", stats.PlanCache)
	}
	if stats.Workers < 1 {
		t.Errorf("resolved workers = %d", stats.Workers)
	}
}

// TestCatalogConcurrent hammers a catalog from many goroutines mixing
// registration, engine resolution and batch evaluation (run with -race).
func TestCatalogConcurrent(t *testing.T) {
	cat, runs := catalogFixture(t)
	queries := []*Query{MustParseQuery("_*.s._*"), MustParseQuery("ingest._*.publish")}
	want := map[string]int{}
	for _, rn := range runs {
		eng, err := cat.Engine(rn)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			pairs, err := eng.Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			want[rn+"|"+q.String()] = len(pairs)
		}
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				for _, res := range cat.EvaluateBatch(runs, queries) {
					if res.Err != nil {
						t.Errorf("goroutine %d: %v", g, res.Err)
						return
					}
					if n := want[res.Run+"|"+res.Query]; n != len(res.Pairs) {
						t.Errorf("goroutine %d: (%s, %s) = %d pairs, want %d", g, res.Run, res.Query, len(res.Pairs), n)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCatalogNames: name listings are sorted, RunsOfSpec keeps only the runs
// bound to its specification, and an empty name is refused.
func TestCatalogNames(t *testing.T) {
	cat := NewCatalog(CatalogOptions{})
	for _, s := range []string{"zeta", "alpha", "mid"} {
		if err := cat.RegisterSpec(s, introSpec(t)); err != nil {
			t.Fatal(err)
		}
	}
	if got := cat.SpecNames(); !slices.Equal(got, []string{"alpha", "mid", "zeta"}) {
		t.Fatalf("SpecNames = %v", got)
	}
	for i, r := range []string{"r-c", "r-a", "r-b"} {
		spec := []string{"zeta", "alpha", "alpha"}[i]
		if _, err := cat.DeriveRun(r, spec, DeriveOptions{Seed: int64(i + 1), TargetEdges: 30}); err != nil {
			t.Fatal(err)
		}
	}
	if got := cat.RunNames(); !slices.Equal(got, []string{"r-a", "r-b", "r-c"}) {
		t.Fatalf("RunNames = %v", got)
	}
	if got := cat.RunsOfSpec("alpha"); !slices.Equal(got, []string{"r-a", "r-b"}) {
		t.Fatalf("RunsOfSpec(alpha) = %v", got)
	}
	if got := cat.RunsOfSpec("zeta"); !slices.Equal(got, []string{"r-c"}) {
		t.Fatalf("RunsOfSpec(zeta) = %v", got)
	}
	if got := cat.RunsOfSpec("mid"); len(got) != 0 {
		t.Fatalf("RunsOfSpec(mid) = %v", got)
	}

	if err := cat.RegisterSpec("", introSpec(t)); err == nil {
		t.Error("empty spec name should fail")
	}
	if _, err := cat.DeriveRun("", "alpha", DeriveOptions{Seed: 1, TargetEdges: 30}); err == nil {
		t.Error("empty run name should fail")
	}
	if n := cat.Stats(); n.Specs != 3 || n.Runs != 3 {
		t.Fatalf("Stats = %d specs, %d runs; a refused name registered", n.Specs, n.Runs)
	}
}

// TestCatalogEngineBuiltOnce hammers one run's first Engine call from many
// goroutines: they share one build, so every caller sees the same engine.
func TestCatalogEngineBuiltOnce(t *testing.T) {
	cat, runs := catalogFixture(t)
	const goroutines = 64
	got := make([]*Engine, goroutines)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := cat.Engine(runs[0])
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = e
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("goroutine %d saw engine %p, goroutine 0 saw %p", i, got[i], got[0])
		}
	}
}

// TestCatalogConcurrentRegistration races registrations against lookups and
// engine builds across many distinct names (run under -race in CI).
func TestCatalogConcurrentRegistration(t *testing.T) {
	cat := NewCatalog(CatalogOptions{})
	spec := introSpec(t)
	if err := cat.RegisterSpec("w", spec); err != nil {
		t.Fatal(err)
	}
	run, err := spec.Derive(DeriveOptions{Seed: 1, TargetEdges: 40})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	engines := make([]*Engine, n)
	var wg sync.WaitGroup
	for i := range engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("run-%d", i)
			if err := cat.AddRun(name, "w", run); err != nil {
				t.Errorf("AddRun(%s): %v", name, err)
				return
			}
			e, err := cat.Engine(name)
			if err != nil {
				t.Errorf("Engine(%s) missing right after AddRun: %v", name, err)
				return
			}
			engines[i] = e
			cat.RunNames()
			cat.RunsOfSpec("w")
		}(i)
	}
	wg.Wait()
	if st := cat.Stats(); st.Runs != n {
		t.Fatalf("registered %d runs, want %d", st.Runs, n)
	}
	seen := map[*Engine]bool{}
	for _, e := range engines {
		seen[e] = true
	}
	if len(seen) != n {
		t.Fatalf("%d distinct engines for %d runs", len(seen), n)
	}
}

// TestCatalogEngineAtGeneration: a run registered at a boot-time generation
// counts on from it; EngineAt pairs each engine with the generation of the
// version it serves; growth swaps the engine once, keeps the spec binding, and
// Engine agrees with EngineAt.
func TestCatalogEngineAtGeneration(t *testing.T) {
	spec := introSpec(t)
	full, err := spec.Derive(DeriveOptions{Seed: 4, TargetEdges: 120})
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, batchJSONs := splitEncodedRun(t, mustEncode(t, full), []int{full.NumNodes() / 2, full.NumNodes()})
	base, err := DecodeRun(spec, baseJSON)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(CatalogOptions{})
	if err := cat.RegisterSpec("wf", spec); err != nil {
		t.Fatal(err)
	}
	if err := cat.putRun("r", "wf", base, 7); err != nil {
		t.Fatal(err)
	}
	e0, gen0, ok := cat.EngineAt("r")
	if !ok || gen0 != 7 || e0.Run() != base {
		t.Fatalf("EngineAt = (%p, %d, %v), want the base's engine at generation 7", e0, gen0, ok)
	}
	batch, err := DecodeBatch(spec, batchJSONs[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := cat.AppendEdges("r", batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 8 {
		t.Fatalf("generation after append = %d, want 8", res.Version)
	}
	e1, gen1, _ := cat.EngineAt("r")
	if gen1 != 8 || e1 == e0 || e1.Run() != res.Run {
		t.Fatalf("EngineAt after append = (%p, %d), want a new engine over the grown run at generation 8", e1, gen1)
	}
	if e, err := cat.Engine("r"); err != nil || e != e1 {
		t.Fatal("Engine and EngineAt disagree, or the engine was rebuilt twice")
	}
	if sp, _ := cat.RunSpecName("r"); sp != "wf" {
		t.Fatalf("RunSpecName after append = %q; the binding must survive", sp)
	}
	if _, _, ok := cat.EngineAt("ghost"); ok {
		t.Fatal("EngineAt of an unknown run must fail")
	}
}
