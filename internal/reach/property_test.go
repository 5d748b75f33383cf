package reach

import (
	"math/rand"
	"testing"
	"testing/quick"

	"provrpq/internal/derive"
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
