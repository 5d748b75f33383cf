package provrpq

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"provrpq/internal/derive"
	"provrpq/internal/wf"
)

// introSpec builds the workflow of the paper's introduction: data of type x,
// a repeated analysis by technique a1 or a2, a result of type s, arbitrary
// steps, then a publication p.
func introSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := NewSpecBuilder().
		Start("W").
		Chain("W", "ingest", "Analysis", "post", "publish").
		Prod("Analysis", []string{"tool1", "Analysis", "result"},
			[]BodyEdge{{From: 0, To: 1, Tag: "a1"}, {From: 1, To: 2, Tag: "s"}}).
		Prod("Analysis", []string{"tool2", "result"},
			[]BodyEdge{{From: 0, To: 1, Tag: "s"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestPublicAPIEndToEnd(t *testing.T) {
	spec := introSpec(t)
	run, err := spec.Derive(DeriveOptions{Seed: 4, TargetEdges: 300})
	if err != nil {
		t.Fatal(err)
	}
	if run.NumNodes() == 0 || run.NumEdges() == 0 {
		t.Fatal("empty run")
	}
	eng := NewEngine(run)

	q := MustParseQuery("_*.s._*.publish")
	safe, err := eng.IsSafe(q)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := eng.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("expected matches: every run ends with a publish after results")
	}
	// Cross-check one pair against Pairwise.
	got, err := eng.Pairwise(q, pairs[0].From, pairs[0].To)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Errorf("Pairwise disagrees with Evaluate on %v (safe=%v)", pairs[0], safe)
	}
}

// TestAllPairsStrategiesConsistent: every strategy that accepts a query
// returns the identical pair set, which the relational baseline G1 also
// finds; RPL and OptRPL refuse an unsafe query with the documented error,
// while Auto and Seeded answer it.
func TestAllPairsStrategiesConsistent(t *testing.T) {
	spec := introSpec(t)
	run, err := spec.Derive(DeriveOptions{Seed: 7, TargetEdges: 150})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(run)
	l1 := run.NodesOfModule("tool1")
	l2 := run.NodesOfModule("publish")
	for _, row := range []struct {
		query string
		safe  bool
	}{
		{"_*.s._*", true},
		{"_*.a1._*", false}, // a1 occurs only in the recursive production
	} {
		q := MustParseQuery(row.query)
		if safe, err := eng.IsSafe(q); err != nil || safe != row.safe {
			t.Fatalf("IsSafe(%s) = %v, %v; want %v", q, safe, err, row.safe)
		}
		sorted := func(pairs []Pair) []Pair {
			sort.Slice(pairs, func(a, b int) bool {
				if pairs[a].From != pairs[b].From {
					return pairs[a].From < pairs[b].From
				}
				return pairs[a].To < pairs[b].To
			})
			return pairs
		}
		var want []Pair
		for i, st := range []Strategy{Auto, StrategySeeded, StrategyRPL, StrategyOptRPL} {
			pairs, err := eng.AllPairs(q, l1, l2, st)
			if !row.safe && (st == StrategyRPL || st == StrategyOptRPL) {
				if err == nil || !strings.Contains(err.Error(), "RPL/OptRPL require a safe query") {
					t.Errorf("%s on unsafe %s: err = %v, want the safe-query error", st, q, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s on %s: %v", st, q, err)
			}
			sorted(pairs)
			if i == 0 {
				want = pairs
				if len(want) == 0 {
					t.Fatalf("%s: no pairs; the row checks nothing", q)
				}
			} else if !slices.Equal(pairs, want) {
				t.Errorf("%s on %s: %d pairs differ from Auto's %d", st, q, len(pairs), len(want))
			}
		}
		if g1 := sorted(G1AllPairs(eng, q, l1, l2)); !slices.Equal(g1, want) {
			t.Errorf("G1 on %s: %d pairs differ from Auto's %d", q, len(g1), len(want))
		}
	}
}

func TestUnsafeQueryFallbacks(t *testing.T) {
	spec := introSpec(t)
	run, err := spec.Derive(DeriveOptions{Seed: 2, TargetEdges: 120})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(run)
	// a1 occurs only in the recursive production: unsafe.
	q := MustParseQuery("_*.a1._*")
	safe, err := eng.IsSafe(q)
	if err != nil {
		t.Fatal(err)
	}
	if safe {
		t.Fatal("_*.a1._* should be unsafe for the intro workflow")
	}
	if _, err := eng.AllPairs(q, run.AllNodes(), run.AllNodes(), StrategyOptRPL); err == nil {
		t.Error("OptRPL on an unsafe query should error")
	}
	auto, err := eng.AllPairs(q, run.AllNodes(), run.AllNodes(), Auto)
	if err != nil {
		t.Fatal(err)
	}
	g1 := G1AllPairs(eng, q, run.AllNodes(), run.AllNodes())
	if len(auto) != len(g1) {
		t.Errorf("Auto (%d pairs) and G1 (%d pairs) disagree on unsafe query", len(auto), len(g1))
	}
	// Pairwise falls back to the product search.
	if len(auto) > 0 {
		ok, err := eng.Pairwise(q, auto[0].From, auto[0].To)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Error("Pairwise fallback disagrees with Evaluate")
		}
	}
}

func TestExplain(t *testing.T) {
	spec := introSpec(t)
	run, err := spec.Derive(DeriveOptions{Seed: 1, TargetEdges: 80})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(run)
	rep, err := eng.Explain(MustParseQuery("a1.(_*.s._*)"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Safe {
		t.Error("a1.(_*.s._*) should be unsafe: only recursive Analysis executions start with a1")
	}
	if !rep.Decomposed {
		t.Error("unsafe query should report the decomposition path")
	}
	// The exact decomposition depends on the cost model; presence tested in
	// core and in the dedicated plan-report tests.
}

func TestReachability(t *testing.T) {
	spec := introSpec(t)
	run, err := spec.Derive(DeriveOptions{Seed: 3, TargetEdges: 100})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(run)
	ingest := run.NodesOfModule("ingest")
	publish := run.NodesOfModule("publish")
	if len(ingest) != 1 || len(publish) != 1 {
		t.Fatalf("expected unique ingest/publish, got %d/%d", len(ingest), len(publish))
	}
	ok, err := eng.Reachable(ingest[0], publish[0])
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("ingest should reach publish")
	}
	back, err := eng.Reachable(publish[0], ingest[0])
	if err != nil {
		t.Fatal(err)
	}
	if back {
		t.Error("publish should not reach ingest")
	}
	pairs, err := eng.AllPairsReachable(run.AllNodes(), publish)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != run.NumNodes() {
		t.Errorf("all %d nodes should reach the final publish; got %d", run.NumNodes(), len(pairs))
	}
}

// TestAllPairsReachableMatchesReachable holds the all-pairs reachability of
// Lemma 4.1 — the OptRPL walk of _* — against the constant-time pairwise
// decode and a BFS of the run, on the paper's grammar, a fork grammar, two
// mutually recursive modules and a diamond body with a recursive arm, three
// runs each: random sublists in random order give exactly the nested loop of
// Reachable, each pair once; an empty list gives nothing; a list against
// itself gives every pair the BFS finds. On the paper's sample run the
// example's three nodes reach both b's (Example 3.1).
func TestAllPairsReachableMatchesReachable(t *testing.T) {
	build := func(sb *SpecBuilder) *wf.Spec {
		spec, err := sb.Build()
		if err != nil {
			t.Fatal(err)
		}
		return spec.s
	}
	specs := map[string]*wf.Spec{
		"paper": wf.PaperSpec(),
		"fork":  wf.ForkSpec(),
		"multi-cycle": build(NewSpecBuilder().
			Start("S").
			Atomic("x", "y", "z").
			Chain("S", "x", "A").
			Chain("A", "x", "B", "y").
			Chain("A", "z").
			Chain("B", "y", "A", "x").
			Chain("B", "z", "z")),
		"branchy": build(NewSpecBuilder().
			Start("S").
			Atomic("src", "l", "r", "snk", "t").
			Prod("S", []string{"src", "L", "R", "snk"}, []BodyEdge{
				{From: 0, To: 1, Tag: "l"}, {From: 0, To: 2, Tag: "r"},
				{From: 1, To: 3, Tag: "s"}, {From: 2, To: 3, Tag: "s"},
			}).
			Prod("L", []string{"src", "L", "snk"}, []BodyEdge{
				{From: 0, To: 1, Tag: "l"}, {From: 1, To: 2, Tag: "l"},
			}).
			Chain("L", "l").
			Prod("R", []string{"r", "t"}, []BodyEdge{{From: 0, To: 1, Tag: "t"}})),
	}
	r := rand.New(rand.NewSource(32))
	for name, spec := range specs {
		for seed := int64(0); seed < 3; seed++ {
			dr, err := derive.Derive(spec, derive.Options{Seed: seed, TargetEdges: 150})
			if err != nil {
				t.Fatal(err)
			}
			run := &Run{r: dr, spec: &Spec{s: spec}}
			eng := NewEngine(run)
			what := fmt.Sprintf("%s seed %d", name, seed)
			all := run.AllNodes()
			sublist := func() []NodeID {
				var l []NodeID
				for _, i := range r.Perm(len(all)) {
					if r.Intn(2) == 0 {
						l = append(l, all[i])
					}
				}
				return l
			}
			for i := 0; i < 4; i++ {
				l1, l2 := sublist(), sublist()
				got, err := eng.AllPairsReachable(l1, l2)
				if err != nil {
					t.Fatal(err)
				}
				seen := map[Pair]bool{}
				for _, p := range got {
					if seen[p] {
						t.Fatalf("%s: pair %v emitted twice", what, p)
					}
					seen[p] = true
				}
				want := 0
				for _, u := range l1 {
					for _, v := range l2 {
						ok, err := eng.Reachable(u, v)
						if err != nil {
							t.Fatal(err)
						}
						if ok {
							want++
							if !seen[Pair{From: u, To: v}] {
								t.Fatalf("%s: %v ⇝ %v missing", what, u, v)
							}
						}
					}
				}
				if len(got) != want {
					t.Fatalf("%s: %d pairs, the nested loop of Reachable %d", what, len(got), want)
				}
			}
			for _, ls := range [][2][]NodeID{{nil, nil}, {all, nil}, {nil, all}} {
				if got, err := eng.AllPairsReachable(ls[0], ls[1]); err != nil || len(got) != 0 {
					t.Fatalf("%s: %d pairs (%v) over %d × %d nodes, want none", what, len(got), err, len(ls[0]), len(ls[1]))
				}
			}
			got, err := eng.AllPairsReachable(all, all)
			if err != nil {
				t.Fatal(err)
			}
			if want := bfsReachable(dr); len(got) != want {
				t.Fatalf("%s: %d pairs over every node, BFS finds %d", what, len(got), want)
			}
		}
	}

	// Example 3.1 on the paper's sample run, in creation-order names: the
	// paper's l1 = {d:1, d:2, e:2} and l2 = {b:1, b:2} are our d:2, d:1, e:2
	// and b:3, b:1.
	dr, err := derive.Derive(wf.PaperSpec(), derive.Options{Policy: func(_ wf.ModuleID, prods []int, iter int) int {
		switch {
		case len(prods) == 1:
			return prods[0]
		case iter < 3:
			return 1
		}
		return 2
	}})
	if err != nil {
		t.Fatal(err)
	}
	run := &Run{r: dr, spec: &Spec{s: wf.PaperSpec()}}
	nodes := func(names ...string) []NodeID {
		var out []NodeID
		for _, n := range names {
			id, ok := run.NodeByName(n)
			if !ok {
				t.Fatalf("node %s missing", n)
			}
			out = append(out, id)
		}
		return out
	}
	l1, l2 := nodes("d:2", "d:1", "e:2"), nodes("b:3", "b:1")
	got, err := NewEngine(run).AllPairsReachable(l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(l1)*len(l2) {
		t.Fatalf("Example 3.1: %v, want every one of the %d pairs", got, len(l1)*len(l2))
	}
}

// bfsReachable counts the pairs (u, v) with a path from u to v, the empty one
// included, by a search of the run from every node.
func bfsReachable(r *derive.Run) int {
	count := 0
	for s := 0; s < r.NumNodes(); s++ {
		seen := map[derive.NodeID]bool{derive.NodeID(s): true}
		stack := []derive.NodeID{derive.NodeID(s)}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ei := range r.Out(v) {
				if to := r.Edges[ei].To; !seen[to] {
					seen[to] = true
					stack = append(stack, to)
				}
			}
		}
		count += len(seen)
	}
	return count
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := introSpec(t)
	run, err := spec.Derive(DeriveOptions{Seed: 5, TargetEdges: 60})
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "spec.json")
	runPath := filepath.Join(dir, "run.json")
	if err := SaveSpec(specPath, spec); err != nil {
		t.Fatal(err)
	}
	if err := SaveRun(runPath, run); err != nil {
		t.Fatal(err)
	}
	spec2, err := LoadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	run2, err := LoadRun(runPath, spec2)
	if err != nil {
		t.Fatal(err)
	}
	if run2.NumNodes() != run.NumNodes() || run2.NumEdges() != run.NumEdges() {
		t.Fatal("round trip changed the run")
	}
	// Query results survive the round trip.
	q := MustParseQuery("_*.s._*")
	p1, err := NewEngine(run).Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewEngine(run2).Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != len(p2) {
		t.Fatalf("results differ after round trip: %d vs %d", len(p1), len(p2))
	}
	if _, err := LoadSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("loading a missing file should fail")
	}
	if err := os.WriteFile(specPath, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(specPath); err == nil {
		t.Error("loading corrupt JSON should fail")
	}
}

func TestNodeAccessors(t *testing.T) {
	spec := introSpec(t)
	run, err := spec.Derive(DeriveOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	id, ok := run.NodeByName("ingest:1")
	if !ok {
		t.Fatal("ingest:1 missing")
	}
	if run.NodeModule(id) != "ingest" {
		t.Errorf("NodeModule = %s", run.NodeModule(id))
	}
	if run.NodeName(id) != "ingest:1" {
		t.Errorf("NodeName = %s", run.NodeName(id))
	}
	if run.NodeLabel(id) == "" {
		t.Error("NodeLabel empty")
	}
	if len(run.Edges()) != run.NumEdges() {
		t.Error("Edges() length mismatch")
	}
	eng := NewEngine(run)
	if _, err := eng.Reachable(NodeID(-1), id); err == nil {
		t.Error("out-of-range node should error")
	}
	if _, err := eng.Reachable(id, NodeID(run.NumNodes())); err == nil {
		t.Error("out-of-range node should error")
	}
}

func TestQueryParseErrorsSurface(t *testing.T) {
	if _, err := ParseQuery("a.("); err == nil {
		t.Error("bad query should fail to parse")
	}
}

// TestWarmSafePairwiseAllocatesNothing: a query renders itself once, at
// ParseQuery, so a warm safe Pairwise — the plan memo keyed by that rendering,
// the decode straight from the label column — allocates nothing, and neither
// do IsSafe and String.
func TestWarmSafePairwiseAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop decoders")
	}
	spec := introSpec(t)
	run, err := spec.Derive(DeriveOptions{Seed: 1, TargetEdges: 80})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(run)
	q := MustParseQuery("_*.s._*")
	u, v := NodeID(0), NodeID(run.NumNodes()-1)
	if safe, err := eng.IsSafe(q); err != nil || !safe {
		t.Fatalf("IsSafe = %v, %v; want a safe query", safe, err)
	}
	if _, err := eng.Pairwise(q, u, v); err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"Pairwise": func() { _, _ = eng.Pairwise(q, u, v) },
		"IsSafe":   func() { _, _ = eng.IsSafe(q) },
		"String":   func() { _ = q.String() },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("warm %s allocates %.1f times per call, want 0", name, n)
		}
	}
}
