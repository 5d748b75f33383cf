package provrpq_test

import (
	"math/rand"
	"os"
	"testing"

	"provrpq"
	"provrpq/internal/automata"
	"provrpq/internal/baseline"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/workload"
)

// TestEngineAgreesWithOracleOnDatasets is the end-to-end integration test:
// random queries (safe and unsafe) over BioAID/QBLast runs, public Engine
// results compared pair-for-pair with the product-BFS oracle.
func TestEngineAgreesWithOracleOnDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, d := range []*workload.Dataset{workload.BioAID(), workload.QBLast()} {
		run, err := derive.Derive(d.Spec, derive.Options{Seed: 5, TargetEdges: 300})
		if err != nil {
			t.Fatal(err)
		}
		pubRun := rehydrate(t, d, run)
		eng := provrpq.NewEngine(pubRun)
		r := rand.New(rand.NewSource(9))

		var queries []string
		for k := 0; k <= 4; k += 2 {
			queries = append(queries, d.SafeIFQ(r, k, true), d.SafeIFQ(r, k, false))
		}
		queries = append(queries, d.StarQuery())
		for i := 0; i < 6; i++ {
			queries = append(queries, d.RandomQuery(r, 2))
		}

		for _, qs := range queries {
			q, err := provrpq.ParseQuery(qs)
			if err != nil {
				t.Fatalf("%s: parse %q: %v", d.Name, qs, err)
			}
			pairs, err := eng.Evaluate(q)
			if err != nil {
				t.Fatalf("%s: evaluate %q: %v", d.Name, qs, err)
			}
			oracle := baseline.NewOracle(run, automata.MustParse(qs))
			want := map[[2]int]bool{}
			for _, u := range run.AllNodes() {
				for _, v := range oracle.From(u) {
					want[[2]int{int(u), int(v)}] = true
				}
			}
			if len(pairs) != len(want) {
				t.Fatalf("%s query %q: engine %d pairs, oracle %d", d.Name, qs, len(pairs), len(want))
			}
			for _, p := range pairs {
				if !want[[2]int{int(p.From), int(p.To)}] {
					t.Fatalf("%s query %q: spurious pair %v", d.Name, qs, p)
				}
			}
		}
	}
}

// rehydrate converts an internal run to a public one through the JSON
// persistence layer, exercising it on dataset-scale runs.
func rehydrate(t testing.TB, d *workload.Dataset, run *derive.Run) *provrpq.Run {
	t.Helper()
	specJSON, err := d.Spec.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	runJSON, err := derive.EncodeRun(run)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	specPath := dir + "/spec.json"
	runPath := dir + "/run.json"
	if err := os.WriteFile(specPath, specJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(runPath, runJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := provrpq.LoadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := provrpq.LoadRun(runPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the index used by the oracle comparison on identical ids.
	_ = index.Build(run)
	return pub
}
