package plan

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"provrpq/internal/automata"
	"provrpq/internal/baseline"
	"provrpq/internal/core"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/reach"
	"provrpq/internal/workload"
)

// columnar returns run reopened from its columnar encoding: labels stay
// encoded and the adjacency is built on first use.
func columnar(t testing.TB, run *derive.Run) *derive.Run {
	t.Helper()
	data, err := derive.EncodeColumnar(run)
	if err != nil {
		t.Fatal(err)
	}
	col, err := derive.OpenColumnar(run.Spec, data)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// rowPairs flattens rows into sorted (source, target) pairs.
func rowPairs(rows *core.Rows) [][2]int {
	var out [][2]int
	rows.Each(func(u int, to []int32) bool {
		for _, v := range to {
			out = append(out, [2]int{u, int(v)})
		}
		return true
	})
	sortPairs(out)
	return out
}

// noWholeTrie stands in for the trie of every node where a scan must not
// build it.
func noWholeTrie(t *testing.T) func() *reach.Trie {
	return func() *reach.Trie {
		t.Error("the trie of every node was asked for")
		return nil
	}
}

// TestSeededProperty: on BioAID and QBLast runs, derived and columnar-opened,
// the seeded strategy agrees with the oracle on random safe IFQs and random
// (mostly unsafe) queries, a query requiring an absent tag and the both-ends
// shape, over whole, empty, singleton and repeating lists, l1 and l2 one
// slice or two: SeededRows = AllPairsSeeded = the oracle.
func TestSeededProperty(t *testing.T) {
	for _, d := range []*workload.Dataset{workload.BioAID(), workload.QBLast()} {
		r := rand.New(rand.NewSource(3))
		var queries []string
		for range 100 {
			queries = append(queries, d.SafeIFQ(r, r.Intn(5), r.Intn(2) == 0))
		}
		for range 20 {
			queries = append(queries, d.RandomQuery(r, 3))
		}
		queries = append(queries, "_*.ghost._*", "_*.L1._*.s_tail._*", "_*.C3._*")

		derived, err := derive.Derive(d.Spec, derive.Options{Seed: 5, TargetEdges: 150})
		if err != nil {
			t.Fatal(err)
		}
		all := derived.AllNodes()
		for qi, qs := range queries {
			q := automata.MustParse(qs)
			env, err := core.Compile(d.Spec, q)
			if err != nil {
				t.Fatal(err)
			}
			want := map[[2]derive.NodeID]bool{}
			var whole [][2]int
			baseline.NewOracle(derived, q).AllPairs(all, all, func(i, j int) {
				want[[2]derive.NodeID{all[i], all[j]}] = true
				whole = append(whole, [2]int{i, j})
			})
			sortPairs(whole)
			l1, l2 := lists(r, all, qi)
			var expect [][2]int
			for i, u := range l1 {
				for j, v := range l2 {
					if want[[2]derive.NodeID{u, v}] {
						expect = append(expect, [2]int{i, j})
					}
				}
			}
			for _, run := range []*derive.Run{derived, columnar(t, derived)} {
				ix := index.Build(run)
				dec := New(ix).Plan(env, len(l1), len(l2))
				name := fmt.Sprintf("%s %s (%d×%d, columnar %v)", d.Name, qs, len(l1), len(l2), run != derived)
				samePairs(t, name+" AllPairsSeeded", seededPairs(t, env, ix, dec, l1, l2), expect)
				if !env.Safe() {
					continue
				}
				rows, err := SeededRows(context.Background(), env, ix, dec, core.NewGeneral(run, ix, core.CostBased).Trie, 0, -1)
				if err != nil {
					t.Fatal(err)
				}
				samePairs(t, name+" SeededRows", rowPairs(rows), whole)
			}
		}
	}
}

// lists returns the endpoint lists of query qi: all, empty, singleton,
// random subsets with repeats, or one random subset as both sides.
func lists(r *rand.Rand, all []derive.NodeID, qi int) (l1, l2 []derive.NodeID) {
	sub := func() []derive.NodeID {
		var l []derive.NodeID
		for range r.Intn(len(all)) {
			l = append(l, all[r.Intn(len(all))])
		}
		return l
	}
	switch qi % 6 {
	case 0:
		return all, all
	case 1:
		return nil, all
	case 2:
		return []derive.NodeID{all[r.Intn(len(all))]}, all
	case 3:
		return sub(), sub()
	case 4:
		l := sub()
		return l, l
	}
	return all, sub()
}

func samePairs(t *testing.T, name string, got, want [][2]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, oracle %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d: %v, oracle %v", name, i, got[i], want[i])
		}
	}
}

// TestSeededDecodesOnlyCandidates: on 16K-edge columnar runs a selective
// query decodes the labels of a handful of candidates, not of every node.
func TestSeededDecodesOnlyCandidates(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		d     *workload.Dataset
		query string
		max   int
	}{
		{workload.BioAID(), "_*.L1._*.s_tail._*", 4},
		{workload.QBLast(), "_*.C3._*", 16},
	} {
		derived, err := derive.Derive(c.d.Spec, derive.Options{Seed: 20150413, TargetEdges: 16000})
		if err != nil {
			t.Fatal(err)
		}
		run := columnar(t, derived)
		ix := index.Build(run)
		_, env := compile(t, c.d.Spec, c.query)
		rows, err := SeededRows(context.Background(), env, ix, Decision{}, noWholeTrie(t), 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		n := rows.Work.Labels
		t.Logf("%s %s on %d nodes: %d labels decoded, %d pairs", c.d.Name, c.query, run.NumNodes(), n, rows.Total())
		if n > c.max || rows.Total() == 0 {
			t.Errorf("%s %s: decoded %d labels for %d pairs, want ≤ %d labels and some pairs", c.d.Name, c.query, n, rows.Total(), c.max)
		}
	}
}

// TestReversedExpansionSharesDFA: the reversed query is compiled once per
// plan — two reversed expansions of one Env read the same DFA, and a warm
// one compiles nothing.
func TestReversedExpansionSharesDFA(t *testing.T) {
	spec := testSpec(t)
	run := testRun(t, spec, 5, 150)
	all := run.AllNodes()
	q, env := compile(t, spec, "a1.(_*.s._*)")
	half := len(all) / 2
	want := oraclePairs(run, q, all, all[:half])
	idx := allIdx(len(all))
	expand := func() [][2]int { // more sources than targets: backward
		var out [][2]int
		if err := expandPairs(env, run, idx, idx[:half], all, all, pairsOf(&out)); err != nil {
			t.Fatal(err)
		}
		sortPairs(out)
		return out
	}
	first := env.ReverseDFA()
	samePairs(t, "first reversed expansion", expand(), want)
	samePairs(t, "second reversed expansion", expand(), want)
	if env.ReverseDFA() != first {
		t.Fatal("two reads of one Env's reversed DFA differ")
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = expandPairs(env, run, idx, idx[:1], all, all, func(int, int) {}) }); allocs > 2 {
		t.Errorf("a warm reversed expansion from one candidate allocated %.0f times", allocs)
	}
}

// TestRaceScratchGrowsGeometrically: a pooled race that begins 100 versions
// of a run growing by 3 nodes each reallocates its scratch a logarithmic
// number of times, not once per version.
func TestRaceScratchGrowsGeometrically(t *testing.T) {
	r, reallocs := new(race), 0
	for n := 100; n < 400; n += 3 {
		had := len(r.at)
		r.begin(n)
		if len(r.at) < n || len(r.mask) != len(r.at) {
			t.Fatalf("a run of %d nodes began with scratch of %d and %d", n, len(r.at), len(r.mask))
		}
		if len(r.at) != had {
			reallocs++
		}
	}
	if reallocs > 8 {
		t.Errorf("100 versions from 100 to 400 nodes reallocated the scratch %d times, want at most 8", reallocs)
	}
}
