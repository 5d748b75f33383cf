package reach_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"provrpq/internal/automata"
	"provrpq/internal/core"
	"provrpq/internal/derive"
	"provrpq/internal/label"
	"provrpq/internal/reach"
	"provrpq/internal/wf"
)

// allPairs is Lemma 4.1's all-pairs reachability over two label lists: the
// fused walk of the safe query _* over their tries, emitting by list index.
func allPairs(t *testing.T, spec *wf.Spec, l1, l2 []label.Label, emit func(i, j int)) {
	t.Helper()
	env, err := core.Compile(spec, automata.MustParse("_*"))
	if err != nil {
		t.Fatal(err)
	}
	if err := env.AllPairsSafeTries(reach.NewTrie(l1), reach.NewTrie(l2), emit); err != nil {
		t.Fatal(err)
	}
}

func TestAllPairsMatchesPairwise(t *testing.T) {
	specs := map[string]*wf.Spec{
		"paper": wf.PaperSpec(),
		"fork":  wf.ForkSpec(),
	}
	for name, spec := range specs {
		for seed := int64(0); seed < 8; seed++ {
			r, err := derive.Derive(spec, derive.Options{Seed: seed, TargetEdges: 150})
			if err != nil {
				t.Fatal(err)
			}
			// Use two overlapping sublists to exercise asymmetric tries.
			var l1, l2 []label.Label
			var ids1, ids2 []derive.NodeID
			for i, n := range r.Nodes {
				if i%2 == 0 {
					l1 = append(l1, n.Label)
					ids1 = append(ids1, derive.NodeID(i))
				}
				if i%3 == 0 || i%5 == 1 {
					l2 = append(l2, n.Label)
					ids2 = append(ids2, derive.NodeID(i))
				}
			}
			got := map[string]bool{}
			allPairs(t, spec, l1, l2, func(i, j int) {
				got[fmt.Sprintf("%d-%d", ids1[i], ids2[j])] = true
			})
			want := map[string]bool{}
			for i, a := range l1 {
				for j, b := range l2 {
					if reach.Pairwise(spec, a, b) {
						want[fmt.Sprintf("%d-%d", ids1[i], ids2[j])] = true
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: AllPairs %d pairs, nested loop %d", name, seed, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("%s seed %d: missing pair %s", name, seed, k)
				}
			}
		}
	}
}

func TestAllPairsEmptyLists(t *testing.T) {
	spec := wf.PaperSpec()
	called := false
	allPairs(t, spec, nil, nil, func(i, j int) { called = true })
	if called {
		t.Error("no pairs expected for empty lists")
	}
	allPairs(t, spec, []label.Label{{label.Prod(0, 0)}}, nil, func(i, j int) { called = true })
	if called {
		t.Error("no pairs expected for one empty list")
	}
}

func TestAllPairsIdenticalLists(t *testing.T) {
	r := reach.PaperRun(t)
	var labels []label.Label
	for _, n := range r.Nodes {
		labels = append(labels, n.Label)
	}
	count := 0
	allPairs(t, r.Spec, labels, labels, func(i, j int) { count++ })
	truth := reach.BFSReach(r)
	want := 0
	for i := range truth {
		for j := range truth[i] {
			if truth[i][j] {
				want++
			}
		}
	}
	if count != want {
		t.Errorf("AllPairs over all nodes = %d pairs, BFS says %d", count, want)
	}
}

func TestPaperExampleAllPairs(t *testing.T) {
	// Example 3.1's reachability structure, adjusted for creation-order
	// names: paper l1={d:1,d:2,e:2}, l2={b:1,b:2}; paper's d:1/d:2 are our
	// d:2/d:1 and paper's b:1 (the W1 b) is our b:3, paper's b:2 is our b:1.
	r := reach.PaperRun(t)
	names1 := []string{"d:2", "d:1", "e:2"}
	names2 := []string{"b:3", "b:1"}
	var l1, l2 []label.Label
	for _, n := range names1 {
		id, _ := r.NodeByName(n)
		l1 = append(l1, r.Label(id))
	}
	for _, n := range names2 {
		id, _ := r.NodeByName(n)
		l2 = append(l2, r.Label(id))
	}
	got := map[string]bool{}
	allPairs(t, r.Spec, l1, l2, func(i, j int) {
		got[names1[i]+">"+names2[j]] = true
	})
	// All three reach both b's in the chain run.
	for _, u := range names1 {
		for _, v := range names2 {
			if !got[u+">"+v] {
				t.Errorf("missing %s -> %s", u, v)
			}
		}
	}
}

// TestQuickAllPairsConsistent: for random sublists, the walk emits index
// pairs within bounds and exactly the Pairwise-true subset.
func TestQuickAllPairsConsistent(t *testing.T) {
	spec := wf.ForkSpec()
	prop := func(seed int64, mask1, mask2 uint32) bool {
		seed %= 4
		if seed < 0 {
			seed = -seed
		}
		r, err := derive.Derive(spec, derive.Options{Seed: seed, TargetEdges: 40})
		if err != nil {
			return false
		}
		var l1, l2 []int
		for i := 0; i < r.NumNodes(); i++ {
			if mask1&(1<<uint(i%32)) != 0 {
				l1 = append(l1, i)
			}
			if mask2&(1<<uint(i%32)) != 0 {
				l2 = append(l2, i)
			}
		}
		la := labelsOf(r, l1)
		lb := labelsOf(r, l2)
		got := map[[2]int]bool{}
		allPairs(t, spec, la, lb, func(i, j int) {
			got[[2]int{i, j}] = true
		})
		for k := range got {
			if k[0] < 0 || k[0] >= len(la) || k[1] < 0 || k[1] >= len(lb) {
				return false
			}
		}
		for i := range la {
			for j := range lb {
				want := reach.Pairwise(spec, la[i], lb[j])
				if got[[2]int{i, j}] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{
		MaxCount: 150,
		Rand:     rand.New(rand.NewSource(23)),
	}); err != nil {
		t.Error(err)
	}
}

func labelsOf(r *derive.Run, ids []int) []label.Label {
	out := make([]label.Label, len(ids))
	for i, id := range ids {
		out[i] = r.Label(derive.NodeID(id))
	}
	return out
}
