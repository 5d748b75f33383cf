package reach

import (
	"math/rand"
	"testing"
	"testing/quick"

	"provrpq/internal/derive"
	"provrpq/internal/label"
	"provrpq/internal/wf"
)

// TestQuickReachabilityIsPartialOrder: on any run, label-decoded
// reachability is reflexive, transitive and antisymmetric (runs are DAGs).
// Driven by testing/quick over (seed, node-index) triples.
func TestQuickReachabilityIsPartialOrder(t *testing.T) {
	spec := wf.PaperSpec()
	runs := map[int64]*derive.Run{}
	runOf := func(seed int64) *derive.Run {
		seed %= 8
		if seed < 0 {
			seed = -seed
		}
		if r, ok := runs[seed]; ok {
			return r
		}
		r, err := derive.Derive(spec, derive.Options{Seed: seed, TargetEdges: 120})
		if err != nil {
			t.Fatal(err)
		}
		runs[seed] = r
		return r
	}
	prop := func(seed int64, a, b, c uint16) bool {
		r := runOf(seed)
		n := r.NumNodes()
		u := derive.NodeID(int(a) % n)
		v := derive.NodeID(int(b) % n)
		w := derive.NodeID(int(c) % n)
		lu, lv, lw := r.Label(u), r.Label(v), r.Label(w)
		// Reflexive.
		if !Pairwise(spec, lu, lu) {
			return false
		}
		// Transitive.
		if Pairwise(spec, lu, lv) && Pairwise(spec, lv, lw) && !Pairwise(spec, lu, lw) {
			return false
		}
		// Antisymmetric.
		if u != v && Pairwise(spec, lu, lv) && Pairwise(spec, lv, lu) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{
		MaxCount: 3000,
		Rand:     rand.New(rand.NewSource(17)),
	}); err != nil {
		t.Error(err)
	}
}

// TestQuickAllPairsSubsetOfProduct: for random sublists, AllPairs emits
// index pairs within bounds and exactly the Pairwise-true subset.
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
		AllPairs(spec, la, lb, 1, func(i, j int) {
			got[[2]int{i, j}] = true
		})
		for i := range la {
			for j := range lb {
				want := Pairwise(spec, la[i], lb[j])
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
