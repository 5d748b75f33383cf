package plan

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"provrpq/internal/automata"
	"provrpq/internal/baseline"
	"provrpq/internal/core"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/label"
	"provrpq/internal/wf"
	"provrpq/internal/workload"
)

// testSpec is the package-doc grammar: S -> x A p, with A a linear
// recursion over a1/a2 steps. Tag "p" occurs exactly once per run (the
// edge into the final p node), "x"-side tags likewise — a natural rare
// seed — while "s" fires once per A iteration.
func testSpec(t *testing.T) *wf.Spec {
	t.Helper()
	b := wf.NewBuilder().Start("S")
	b.Chain("S", "x", "A", "p")
	b.Chain("A", "a1", "A", "s")
	b.Chain("A", "a2", "s")
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testRun(t *testing.T, spec *wf.Spec, seed int64, edges int) *derive.Run {
	t.Helper()
	r, err := derive.Derive(spec, derive.Options{Seed: seed, TargetEdges: edges})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func compile(t *testing.T, spec *wf.Spec, q string) (*automata.Node, *core.Env) {
	t.Helper()
	n := automata.MustParse(q)
	env, err := core.Compile(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	return n, env
}

func pairsOf(emitInto *[][2]int) func(i, j int) {
	return func(i, j int) { *emitInto = append(*emitInto, [2]int{i, j}) }
}

func sortPairs(ps [][2]int) {
	slices.SortFunc(ps, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
}

// oraclePairs computes the ground truth over index lists with the product
// BFS oracle.
func oraclePairs(run *derive.Run, q *automata.Node, l1, l2 []derive.NodeID) [][2]int {
	o := baseline.NewOracle(run, q)
	var out [][2]int
	o.AllPairs(l1, l2, pairsOf(&out))
	sortPairs(out)
	return out
}

func seededPairs(t *testing.T, env *core.Env, ix *index.Index, dec Decision, l1, l2 []derive.NodeID) [][2]int {
	t.Helper()
	var out [][2]int
	if err := AllPairsSeeded(env, ix, dec, l1, l2, pairsOf(&out)); err != nil {
		t.Fatal(err)
	}
	sortPairs(out)
	return out
}

func TestSeededMatchesOracle(t *testing.T) {
	spec := testSpec(t)
	queries := []string{
		"x.(a1|a2)+.s._*.p", // safe, anchored at both rare ends
		"_*.p._*",           // safe, rare tag p required
		"_*.s._*",           // safe, per-iteration tag
		"a1.(_*.s._*)",      // unsafe (anchored on the recursive branch)
		"s.s._*",            // counts steps: unsafe shape
	}
	for _, seed := range []int64{1, 2, 3} {
		run := testRun(t, spec, seed, 120)
		ix := index.Build(run)
		pl := New(ix)
		all := run.AllNodes()
		// A skewed sublist with duplicates exercises the index mapping.
		var sub []derive.NodeID
		for i, id := range all {
			if i%3 == 0 {
				sub = append(sub, id, id)
			}
		}
		for _, qs := range queries {
			q, env := compile(t, spec, qs)
			dec := pl.Plan(env, len(all), len(all))
			for _, lists := range [][2][]derive.NodeID{{all, all}, {sub, all}, {all, sub}} {
				want := oraclePairs(run, q, lists[0], lists[1])
				got := seededPairs(t, env, ix, dec, lists[0], lists[1])
				if len(got) != len(want) {
					t.Fatalf("seed %d query %s: seeded %d pairs, oracle %d", seed, qs, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d query %s: pair %d: seeded %v, oracle %v", seed, qs, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSeededBothDirections forces both expansion directions of the unsafe
// path and both candidate orders of the safe path — correctness must not
// depend on the planner's Reverse estimate.
func TestSeededBothDirections(t *testing.T) {
	spec := testSpec(t)
	run := testRun(t, spec, 5, 150)
	ix := index.Build(run)
	all := run.AllNodes()
	for _, qs := range []string{"_*.p._*", "a1.(_*.s._*)"} {
		q, env := compile(t, spec, qs)
		pl := New(ix)
		dec := pl.Plan(env, len(all), len(all))
		if dec.SeedTag == "" {
			t.Fatalf("query %s: expected a required seed tag", qs)
		}
		want := oraclePairs(run, q, all, all)
		for _, rev := range []bool{false, true} {
			d := dec
			d.Reverse = rev
			got := seededPairs(t, env, ix, d, all, all)
			if len(got) != len(want) {
				t.Fatalf("query %s reverse=%v: %d pairs, oracle %d", qs, rev, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("query %s reverse=%v: pair %d: %v vs %v", qs, rev, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSeededFallbacks covers the no-seed paths: a query that requires no
// tag falls back to OptRPL (safe) or a full expansion (unsafe), and a
// decision carrying a tag the query does not require is ignored rather
// than trusted (trusting it would drop matches).
func TestSeededFallbacks(t *testing.T) {
	spec := testSpec(t)
	run := testRun(t, spec, 7, 100)
	ix := index.Build(run)
	all := run.AllNodes()

	// "_*" requires nothing and is safe.
	q, env := compile(t, spec, "_*")
	if syms := env.RequiredSyms(); len(syms) != 0 {
		t.Fatalf("_* should require no symbol, got %v", syms)
	}
	want := oraclePairs(run, q, all, all)
	got := seededPairs(t, env, ix, Decision{}, all, all)
	if len(got) != len(want) {
		t.Fatalf("_* fallback: %d pairs, oracle %d", len(got), len(want))
	}

	// "s?.a1.s?" style: unsafe with no required symbol — s? and the
	// anchoring make "a1" required though; use an alternation instead so
	// nothing is required.
	q, env = compile(t, spec, "(a1|s)._*")
	if env.Safe() {
		t.Skip("query unexpectedly safe for this grammar")
	}
	if syms := env.RequiredSyms(); len(syms) != 0 {
		t.Fatalf("(a1|s)._* should require no symbol, got %v", syms)
	}
	want = oraclePairs(run, q, all, all)
	got = seededPairs(t, env, ix, Decision{}, all, all)
	if len(got) != len(want) {
		t.Fatalf("unsafe no-seed fallback: %d pairs, oracle %d", len(got), len(want))
	}

	// A bogus seed (not required by the query) must be ignored.
	q, env = compile(t, spec, "_*.s._*")
	want = oraclePairs(run, q, all, all)
	got = seededPairs(t, env, ix, Decision{SeedTag: "p"}, all, all)
	if len(got) != len(want) {
		t.Fatalf("bogus seed: %d pairs, oracle %d", len(got), len(want))
	}
}

// TestSeededAbsentTag: a required tag with zero occurrences means no path
// can match — the scan must return empty without touching anything.
func TestSeededAbsentTag(t *testing.T) {
	spec := testSpec(t)
	run := testRun(t, spec, 9, 0) // minimal run: recursion winds down fast
	ix := index.Build(run)
	all := run.AllNodes()
	// "ghost" is not in Γ; the DFA still requires it, and no edge carries it.
	q, env := compile(t, spec, "_*.ghost._*")
	pl := New(ix)
	dec := pl.Plan(env, len(all), len(all))
	if dec.SeedTag != "ghost" || dec.SeedCount != 0 {
		t.Fatalf("expected ghost seed with zero occurrences, got %+v", dec)
	}
	got := seededPairs(t, env, ix, dec, all, all)
	if len(got) != 0 {
		t.Fatalf("absent tag: expected no pairs, got %d", len(got))
	}
	if want := oraclePairs(run, q, all, all); len(want) != 0 {
		t.Fatalf("oracle disagrees: %d pairs for a query requiring an absent tag", len(want))
	}
}

// TestSeededRowsCancelled: once ctx is done the seeded scan builds no trie and
// starts no join — whichever candidate side comes first, seed or none — and
// returns ctx's error, having allocated less than one trie's label list.
func TestSeededRowsCancelled(t *testing.T) {
	spec := testSpec(t)
	run := testRun(t, spec, 1, 16000)
	ix := index.Build(run)
	all := run.AllNodes()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	trieLabels := uint64(len(all)) * uint64(unsafe.Sizeof(label.Label{}))
	for _, qs := range []string{"_*.p._*", "_*"} {
		_, env := compile(t, spec, qs)
		dec := New(ix).Plan(env, len(all), len(all))
		for _, rev := range []bool{false, true} {
			dec.Reverse = rev
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rows, err := SeededRows(ctx, env, ix, dec, noWholeTrie(t), 0, -1)
			runtime.ReadMemStats(&after)
			if rows != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s reverse=%v: SeededRows = %v, %v; want context.Canceled", qs, rev, rows, err)
			}
			if b := after.TotalAlloc - before.TotalAlloc; b >= trieLabels {
				t.Errorf("%s reverse=%v: a cancelled scan allocated %d B, one trie's labels take %d B", qs, rev, b, trieLabels)
			}
		}
	}
}

// TestPlanEdgeCases: empty runs and empty lists must produce finite zero
// costs, never a division by zero or NaN.
func TestPlanEdgeCases(t *testing.T) {
	spec := testSpec(t)
	empty, err := derive.DecodeRun(spec, []byte(`{"nodes":[],"edges":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(empty)
	pl := New(ix)
	if d := pl.ReachDensity(); d != 0 {
		t.Fatalf("empty run density = %v, want 0", d)
	}
	_, env := compile(t, spec, "_*.p._*")
	dec := pl.Plan(env, 0, 0)
	for name, c := range map[string]float64{"rpl": dec.CostRPL, "optrpl": dec.CostOptRPL, "seeded": dec.CostSeeded} {
		if c != c || c < 0 { // NaN or negative
			t.Fatalf("empty-run cost %s = %v", name, c)
		}
	}
	var out [][2]int
	if err := AllPairsSeeded(env, ix, dec, nil, nil, pairsOf(&out)); err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty run produced %d pairs", len(out))
	}
}

// TestPlanDeterminism: the sampled statistics are fixed-seed, so two
// planners over one run must agree exactly.
func TestPlanDeterminism(t *testing.T) {
	d := workload.BioAID()
	run, err := derive.Derive(d.Spec, derive.Options{Seed: 3, TargetEdges: 400})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(run)
	r := rand.New(rand.NewSource(11))
	qs := d.SafeIFQ(r, 3, false)
	_, env := compile(t, d.Spec, qs)
	a := New(ix).Plan(env, run.NumNodes(), run.NumNodes())
	b := New(ix).Plan(env, run.NumNodes(), run.NumNodes())
	if a != b {
		t.Fatalf("plans differ: %+v vs %+v", a, b)
	}
}

// TestPlanWorkloadChoices pins the planner's headline behaviour on the
// paper's workloads: a highly selective anchored IFQ is answered by the
// seeded strategy, a dense per-iteration IFQ by optRPL.
func TestPlanWorkloadChoices(t *testing.T) {
	for _, d := range []*workload.Dataset{workload.BioAID(), workload.QBLast()} {
		run, err := derive.Derive(d.Spec, derive.Options{Seed: 1, TargetEdges: 1000})
		if err != nil {
			t.Fatal(err)
		}
		ix := index.Build(run)
		pl := New(ix)
		r := rand.New(rand.NewSource(1))
		n := run.NumNodes()

		_, env := compile(t, d.Spec, d.SafeIFQ(r, 3, false))
		if dec := pl.Plan(env, n, n); dec.Strategy != Seeded {
			t.Errorf("%s selective IFQ: chose %v (seed %q count %d), want seeded: %+v",
				d.Name, dec.Strategy, dec.SeedTag, dec.SeedCount, dec)
		}
		_, env = compile(t, d.Spec, d.SafeIFQ(r, 3, true))
		if dec := pl.Plan(env, n, n); dec.Strategy == RPL {
			t.Errorf("%s dense IFQ: chose rpl, want a filtered scan: %+v", d.Name, dec)
		}
	}
}
