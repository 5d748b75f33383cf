package provrpq

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"provrpq/internal/baseline"
	"provrpq/internal/derive"
	"provrpq/internal/workload"
)

// The differential harness: randomized runs × generated queries assert that
// every evaluation path — the forced strategies (RPL, OptRPL, the seeded
// strategy, the G1 relational baseline), the planner-driven Auto, the
// Evaluate pipeline, and the G3 baseline where its IFQ shape applies —
// returns exactly the pairs of the product-BFS oracle, each once. Any
// divergence between the paper's constant-time label machinery, the
// planner's new seeded path and the explicit run traversal is a correctness
// bug, so this is the safety net under which strategies are free to evolve.
//
// Tier sizing lives in difftest_default_test.go / difftest_slow_test.go:
// the regular run stays fast enough for -race in CI, `-tags slow` runs the
// ≥ 200-case acceptance tier.

// diffQueries draws the query mix for one run: random compositions (safe
// and unsafe arise), plus safe IFQs of both selectivity classes so the
// seeded strategy's sweet spot is always represented.
func diffQueries(d *workload.Dataset, r *rand.Rand, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			out = append(out, d.RandomQuery(r, 3))
		case 1:
			out = append(out, d.SafeIFQ(r, 1+r.Intn(3), false))
		default:
			out = append(out, d.SafeIFQ(r, 1+r.Intn(3), true))
		}
	}
	return out
}

func TestDifferentialStrategies(t *testing.T) {
	datasets := []*workload.Dataset{workload.BioAID(), workload.QBLast(), workload.Synthetic(200, 1)}
	cases := 0
	for _, d := range datasets {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			for rs := 0; rs < diffRunsPerDataset; rs++ {
				seed := int64(rs*101 + 7)
				dr, err := derive.Derive(d.Spec, derive.Options{Seed: seed, TargetEdges: diffRunEdges})
				if err != nil {
					t.Fatal(err)
				}
				run := &Run{r: dr, spec: &Spec{s: d.Spec}}
				eng := NewEngine(run)
				r := rand.New(rand.NewSource(seed * 13))
				for _, qs := range diffQueries(d, r, diffQueriesPerRun) {
					if diffCheckOne(t, eng, run, qs) {
						cases++
					}
					if t.Failed() {
						t.Fatalf("divergence on run seed %d (%d edges) of %s", seed, dr.NumEdges(), d.Name)
					}
				}
			}
		})
	}
	t.Logf("differential cases checked: %d", cases)
	if cases < diffMinCases {
		t.Fatalf("only %d run×query cases checked, floor is %d", cases, diffMinCases)
	}
}

// diffCheckOne cross-checks one (run, query) cell; reports whether the case
// counted (false only when the query does not compile, e.g. a random query
// whose minimal DFA exceeds the supported state bound).
func diffCheckOne(t *testing.T, eng *Engine, run *Run, qs string) bool {
	t.Helper()
	q, err := ParseQuery(qs)
	if err != nil {
		t.Fatalf("generated query %q does not parse: %v", qs, err)
	}
	safe, err := eng.IsSafe(q)
	if err != nil {
		return false // does not compile (DFA too large); not a divergence
	}
	all := run.AllNodes()

	oracle := baseline.NewOracle(run.r, q.node)
	var want []Pair
	oracle.AllPairs(toDerive(all), toDerive(all), func(i, j int) {
		want = append(want, Pair{From: all[i], To: all[j]})
	})
	sortPairs(want)

	// Lists, not sets: an evaluator that emits a pair twice diverges.
	check := func(name string, pairs []Pair, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("query %q (safe=%v): %s failed: %v", qs, safe, name, err)
			return
		}
		if sortPairs(pairs); !slices.Equal(pairs, want) {
			t.Errorf("query %q (safe=%v): %s returned %d pairs, oracle %d", qs, safe, name, len(pairs), len(want))
		}
	}

	strategies := []Strategy{StrategySeeded, Auto}
	if safe {
		strategies = append(strategies, StrategyRPL, StrategyOptRPL)
	}
	for _, st := range strategies {
		pairs, err := eng.AllPairs(q, all, all, st)
		check(fmt.Sprintf("AllPairs(%v)", st), pairs, err)
	}
	pairs, err := eng.Evaluate(q)
	check("Evaluate", pairs, err)

	var g1Pairs []Pair
	baseline.NewG1(eng.index()).AllPairs(q.node, toDerive(all), toDerive(all), func(i, j int) {
		g1Pairs = append(g1Pairs, Pair{From: all[i], To: all[j]})
	})
	check("G1", g1Pairs, nil)

	if g3, ok := baseline.NewG3(eng.index(), q.node); ok {
		var g3Pairs []Pair
		g3.AllPairs(toDerive(all), toDerive(all), func(i, j int) {
			g3Pairs = append(g3Pairs, Pair{From: all[i], To: all[j]})
		})
		check("G3", g3Pairs, nil)
	}
	return true
}

// TestUnsafePairwiseMatchesOracle checks Engine.Pairwise on unsafe queries —
// the product search behind /v1/pairwise when the label decode does not
// apply — pair for pair against the oracle on ~2K-edge BioAID and QBLast
// runs. The query mix pins the shapes the search branches on: a required tag
// that occurs at least 100 times, a required tag absent from the run (the
// answer needs no search), no required tag at all, and a query accepting the
// empty path, which must answer true at u == v. Pairs are random ones,
// diagonal ones and, per query, some the oracle says match.
func TestUnsafePairwiseMatchesOracle(t *testing.T) {
	for _, d := range []*workload.Dataset{workload.BioAID(), workload.QBLast()} {
		dr, err := derive.Derive(d.Spec, derive.Options{Seed: 1, TargetEdges: 2000})
		if err != nil {
			t.Fatal(err)
		}
		run := &Run{r: dr, spec: &Spec{s: d.Spec}}
		eng := NewEngine(run)
		frequent, absent := "", ""
		for _, tag := range d.Spec.Tags() {
			switch c := eng.index().Count(tag); {
			case c == 0:
				absent = tag
			case c > eng.index().Count(frequent):
				frequent = tag
			}
		}
		if eng.index().Count(frequent) < 100 || absent == "" {
			t.Fatalf("%s: fixture drifted: most frequent tag %q occurs %d times, absent tag %q",
				d.Name, frequent, eng.index().Count(frequent), absent)
		}
		queries := []string{
			frequent, "_*." + frequent, frequent + "._*", // rarest required tag is a frequent one
			"_*." + absent, frequent + ".(_*." + absent + "._*)", // a required tag the run lacks
			"_", "_+", frequent + "|_._", // nothing required
			"(_._)*", "(" + frequent + "." + frequent + ")*", // ε ∈ L(R)
		}
		r := rand.New(rand.NewSource(17))
		for i := 0; i < 6; i++ {
			queries = append(queries, d.RandomQuery(r, 3))
		}
		n := dr.NumNodes()
		var pairs [][2]NodeID
		for i := 0; i < 150; i++ {
			pairs = append(pairs, [2]NodeID{NodeID(r.Intn(n)), NodeID(r.Intn(n))})
		}
		for i := 0; i < 10; i++ {
			u := NodeID(r.Intn(n))
			pairs = append(pairs, [2]NodeID{u, u})
		}
		unsafe := 0
		for _, qs := range queries {
			q := MustParseQuery(qs)
			if safe, err := eng.IsSafe(q); err != nil || safe {
				continue // a random query that came out safe, or too large to compile
			}
			unsafe++
			oracle := baseline.NewOracle(dr, q.node)
			check := slices.Clone(pairs)
			for i := 0; i < 5; i++ {
				u := derive.NodeID(r.Intn(n))
				for _, v := range oracle.From(u) {
					check = append(check, [2]NodeID{NodeID(u), NodeID(v)})
				}
			}
			for _, p := range check {
				got, err := eng.Pairwise(q, p[0], p[1])
				if err != nil {
					t.Fatal(err)
				}
				if want := oracle.Pairwise(derive.NodeID(p[0]), derive.NodeID(p[1])); got != want {
					t.Fatalf("%s query %q pair %v: Pairwise = %v, oracle %v", d.Name, qs, p, got, want)
				}
			}
		}
		if unsafe < 10 {
			t.Fatalf("%s: only %d of the fixed query shapes are unsafe; the fixture drifted", d.Name, unsafe)
		}
	}
}
