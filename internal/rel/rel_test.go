package rel

import (
	"slices"
	"sync"
	"testing"

	"provrpq/internal/automata"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/wf"
)

func paperIndex(t *testing.T) *index.Index {
	t.Helper()
	run, err := derive.Derive(wf.PaperSpec(), derive.Options{Seed: 2, TargetEdges: 80})
	if err != nil {
		t.Fatal(err)
	}
	return index.Build(run)
}

// TestLeafRelations: a symbol's leaf holds exactly the edges it tags, the
// wildcard's every edge, ε's every node with itself; anything else is no leaf.
func TestLeafRelations(t *testing.T) {
	ix := paperIndex(t)
	run := ix.Run()
	for _, qs := range append(run.Spec.Tags(), "_", "<eps>") {
		q := automata.MustParse(qs)
		var want [][2]derive.NodeID
		for _, e := range run.Edges {
			if qs == "_" || e.Tag == qs {
				want = append(want, [2]derive.NodeID{e.From, e.To})
			}
		}
		if q.Kind == automata.KindEps {
			want = want[:0]
			for _, u := range run.AllNodes() {
				want = append(want, [2]derive.NodeID{u, u})
			}
		}
		slices.SortFunc(want, func(a, b [2]derive.NodeID) int {
			if a[0] != b[0] {
				return int(a[0] - b[0])
			}
			return int(a[1] - b[1])
		})
		if got := Leaf(ix, q).Pairs(); !slices.Equal(got, slices.Compact(want)) {
			t.Errorf("Leaf(%s) = %d pairs, want %d", qs, len(got), len(want))
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Leaf of a concatenation did not panic")
		}
	}()
	Leaf(ix, automata.MustParse("_._"))
}

// TestConcurrentReads: reads of one relation — lookups, sets, restriction by
// lists, and its use as an operand — write nothing, so goroutines sharing it
// see what a lone reader does (run under -race).
func TestConcurrentReads(t *testing.T) {
	r := Leaf(paperIndex(t), automata.MustParse("_"))
	l := make([]derive.NodeID, 0, len(r.rows))
	for u := range r.rows {
		l = append(l, derive.NodeID(u))
	}
	read := func() int {
		n := r.Join(r).Len() + r.Union(r).Len() + r.ClosureFrom(nil, r.Sources()).Len() + len(r.Targets())
		AllPairsIn(r, l, l, func(i, j int) { n++ })
		r.Each(func(u, v derive.NodeID) {
			if r.Has(u, v) {
				n++
			}
		})
		return n
	}
	want := read()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := read(); got != want {
				t.Errorf("a concurrent reader counted %d, a lone one %d", got, want)
			}
		}()
	}
	wg.Wait()
}
