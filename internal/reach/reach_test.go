package reach

import (
	"testing"
	"unsafe"

	"provrpq/internal/derive"
	"provrpq/internal/label"
	"provrpq/internal/wf"
	"provrpq/internal/workload"
)

// scriptW2W2W3 reproduces the paper's sample run on wf.PaperSpec.
func scriptW2W2W3(m wf.ModuleID, prods []int, iter int) int {
	if len(prods) == 1 {
		return prods[0]
	}
	if iter < 3 {
		return 1
	}
	return 2
}

func paperRun(t *testing.T) *derive.Run {
	t.Helper()
	r, err := derive.Derive(wf.PaperSpec(), derive.Options{Policy: scriptW2W2W3})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// bfsReach computes ground-truth reachability (reflexive) on the
// materialized run.
func bfsReach(r *derive.Run) [][]bool {
	n := r.NumNodes()
	out := make([][]bool, n)
	for s := 0; s < n; s++ {
		out[s] = make([]bool, n)
		out[s][s] = true
		stack := []derive.NodeID{derive.NodeID(s)}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ei := range r.Out(v) {
				to := r.Edges[ei].To
				if !out[s][to] {
					out[s][to] = true
					stack = append(stack, to)
				}
			}
		}
	}
	return out
}

func TestPairwisePaperRun(t *testing.T) {
	r := paperRun(t)
	// Creation-order names: chain is c:1 a:1 a:2 e:1 e:2 d:1 d:2 b:1 b:2 b:3.
	cases := []struct {
		u, v string
		want bool
	}{
		{"c:1", "b:3", true},  // source reaches sink
		{"b:3", "c:1", false}, // no backwards paths
		{"a:1", "d:1", true},  // red: iteration 1 pos 0 reaches cycle successor
		{"d:2", "d:1", false}, // iteration 1's d is after the nested chain
		{"d:1", "d:2", true},  // blue: nested d flows out to enclosing d
		{"e:1", "d:1", true},  // base iteration reaches iteration 2's d (blue)
		{"e:1", "a:1", false},
		{"a:1", "a:2", true}, // red across iterations
		{"a:2", "a:1", false},
		{"d:2", "b:1", true}, // composite divergence in W1: A before B
		{"b:1", "d:2", false},
		{"c:1", "c:1", true}, // reflexive
		{"b:1", "b:2", true},
		{"b:2", "b:1", false},
	}
	for _, c := range cases {
		u, ok := r.NodeByName(c.u)
		if !ok {
			t.Fatalf("node %s missing", c.u)
		}
		v, ok := r.NodeByName(c.v)
		if !ok {
			t.Fatalf("node %s missing", c.v)
		}
		if got := Pairwise(r.Spec, r.Label(u), r.Label(v)); got != c.want {
			t.Errorf("Pairwise(%s, %s) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestPairwiseMatchesBFSOnPaperSpec(t *testing.T) {
	testPairwiseMatchesBFS(t, wf.PaperSpec(), 12, 300)
}

func TestPairwiseMatchesBFSOnForkSpec(t *testing.T) {
	testPairwiseMatchesBFS(t, wf.ForkSpec(), 8, 120)
}

func TestPairwiseMatchesBFSOnMultiCycle(t *testing.T) {
	spec, err := wf.NewBuilder().
		Start("S").
		Atomic("x", "y", "z").
		Chain("S", "x", "A").
		Chain("A", "x", "B", "y").
		Chain("A", "z").
		Chain("B", "y", "A", "x").
		Chain("B", "z", "z").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	testPairwiseMatchesBFS(t, spec, 10, 150)
}

func TestPairwiseMatchesBFSOnBranchySpec(t *testing.T) {
	// A non-chain body: diamond with a recursive arm, exercising composite
	// divergence where i does NOT reach j.
	spec, err := wf.NewBuilder().
		Start("S").
		Atomic("src", "l", "r", "snk", "t").
		Prod("S", []string{"src", "L", "R", "snk"}, []wf.BodyEdge{
			{From: 0, To: 1, Tag: "l"}, {From: 0, To: 2, Tag: "r"},
			{From: 1, To: 3, Tag: "s"}, {From: 2, To: 3, Tag: "s"},
		}).
		Prod("L", []string{"src", "L", "snk"}, []wf.BodyEdge{
			{From: 0, To: 1, Tag: "l"}, {From: 1, To: 2, Tag: "l"},
		}).
		Chain("L", "l").
		Prod("R", []string{"r", "t"}, []wf.BodyEdge{{From: 0, To: 1, Tag: "t"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	testPairwiseMatchesBFS(t, spec, 10, 200)
}

func testPairwiseMatchesBFS(t *testing.T, spec *wf.Spec, seeds int64, target int) {
	t.Helper()
	for seed := int64(0); seed < seeds; seed++ {
		r, err := derive.Derive(spec, derive.Options{Seed: seed, TargetEdges: target})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		truth := bfsReach(r)
		n := r.NumNodes()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				got := Pairwise(spec, r.Label(derive.NodeID(i)), r.Label(derive.NodeID(j)))
				if got != truth[i][j] {
					t.Fatalf("seed %d: Pairwise(%s, %s) = %v, BFS says %v\nlabels %s | %s",
						seed, r.Nodes[i].Name, r.Nodes[j].Name, got, truth[i][j],
						r.Label(derive.NodeID(i)), r.Label(derive.NodeID(j)))
				}
			}
		}
	}
}

func TestPairwiseDifferentProductionSiblings(t *testing.T) {
	// Two labels diverging at the top with different productions of the same
	// module cannot coexist in one run; Pairwise must answer false, not
	// panic.
	spec := wf.PaperSpec()
	a := label.Label{label.Prod(0, 0)}
	b := label.Label{label.Prod(2, 0)}
	if Pairwise(spec, a, b) {
		t.Error("labels from different firings should not be reachable")
	}
}

func TestPairwisePrefixLabels(t *testing.T) {
	spec := wf.PaperSpec()
	a := label.Label{label.Prod(0, 1)}
	b := label.Label{label.Prod(0, 1), label.Rec(0, 0, 1), label.Prod(1, 0)}
	if Pairwise(spec, a, b) || Pairwise(spec, b, a) {
		t.Error("prefix labels cannot coexist as run leaves")
	}
}

// kids lists the children of node i of tr.
func kids(tr *Trie, i int32) []int32 {
	var out []int32
	for c := i + 1; c < tr.Nodes[i].Next; c = tr.Nodes[c].Next {
		out = append(out, c)
	}
	return out
}

func TestTrieStructure(t *testing.T) {
	r := paperRun(t)
	var labels []label.Label
	for _, n := range r.Nodes {
		labels = append(labels, n.Label)
	}
	tr := NewTrie(labels)
	root := tr.Nodes[0]
	if root.Lo != 0 || int(root.Hi) != len(labels) || int(root.Next) != len(tr.Nodes) {
		t.Fatalf("root range [%d,%d) over nodes [0,%d), want [0,%d) over [0,%d)", root.Lo, root.Hi, root.Next, len(labels), len(tr.Nodes))
	}
	// Root children = the 4 positions of W1: (0,0) c, (0,1) A-subtree,
	// (0,2) B-subtree, (0,3) b.
	rootKids := kids(tr, 0)
	if len(rootKids) != 4 {
		t.Fatalf("root has %d children, want 4", len(rootKids))
	}
	// The A-subtree child is the R node: its children are the 3 iterations.
	rnode := rootKids[1]
	if got := tr.Nodes[rnode].Entry(); got != label.Prod(0, 1) {
		t.Fatalf("second child entry = %v", got)
	}
	if its := kids(tr, rnode); len(its) != 3 {
		t.Fatalf("R node has %d children, want 3 iterations", len(its))
	}
	for i, it := range kids(tr, rnode) {
		if e := tr.Nodes[it].Entry(); !e.Rec || e.Z != i+1 {
			t.Errorf("iteration %d entry = %v", i, e)
		}
	}
	// Leaf ranges are contiguous and ordered.
	last := int32(0)
	for _, c := range rootKids {
		if tr.Nodes[c].Lo != last {
			t.Errorf("child range starts at %d, want %d", tr.Nodes[c].Lo, last)
		}
		last = tr.Nodes[c].Hi
	}
}

// TestTrieSub: a sub-trie is the trie of the kept labels — same sorted
// order, same structure, node ids dense in preorder — with Perm still
// indexing the original list, and keeping everything returns the trie
// itself.
func TestTrieSub(t *testing.T) {
	r, err := derive.Derive(wf.PaperSpec(), derive.Options{Seed: 4, TargetEdges: 300})
	if err != nil {
		t.Fatal(err)
	}
	labels := r.MaterializeLabels()
	full := NewTrie(labels)
	keep := make([]bool, len(labels))
	var kept []label.Label
	for i := range labels {
		if keep[i] = i%3 != 1; keep[i] {
			kept = append(kept, labels[i])
		}
	}
	sub, want := full.Sub(keep), NewTrie(kept)
	if len(sub.Perm) != len(kept) || len(sub.Nodes) != len(want.Nodes) {
		t.Fatalf("sub-trie: %d leaves %d nodes, want %d leaves %d nodes", len(sub.Perm), len(sub.Nodes), len(kept), len(want.Nodes))
	}
	for i, p := range sub.Perm {
		if !keep[p] || !label.Equal(labels[p], sub.Labels[i]) || !label.Equal(sub.Labels[i], want.Labels[i]) {
			t.Fatalf("sorted position %d: sub-trie holds %v (list index %d), want %v", i, sub.Labels[i], p, want.Labels[i])
		}
	}
	next := int32(0)
	var same func(a, b int32)
	same = func(a, b int32) {
		if a != next || b != next {
			t.Fatalf("node ids %d/%d, want preorder id %d", a, b, next)
		}
		next++
		na, nb := sub.Nodes[a], want.Nodes[b]
		ka, kb := kids(sub, a), kids(want, b)
		if na != nb || len(ka) != len(kb) {
			t.Fatalf("node %v [%d,%d) with %d children, want %v [%d,%d) with %d", na.Entry(), na.Lo, na.Hi, len(ka), nb.Entry(), nb.Lo, nb.Hi, len(kb))
		}
		for i := range ka {
			same(ka[i], kb[i])
		}
	}
	same(0, 0)
	for i := range keep {
		keep[i] = true
	}
	if full.Sub(keep) != full {
		t.Error("a keep that admits every label should return the trie itself")
	}
}

// TestTrieExactSize: a trie is one array of pointer-free nodes of at most
// 32 bytes each, sized to the trie before it is built — len == cap, for
// NewTrie and Sub alike — so building one is a fixed number of allocations
// whatever the list's length.
func TestTrieExactSize(t *testing.T) {
	if size := unsafe.Sizeof(TrieNode{}); size > 32 {
		t.Errorf("a TrieNode takes %d bytes, want at most 32", size)
	}
	exact := func(what string, tr *Trie) {
		t.Helper()
		if len(tr.Nodes) != cap(tr.Nodes) || int(tr.Nodes[0].Next) != len(tr.Nodes) {
			t.Errorf("%s: a node array of len %d cap %d, whose root spans %d nodes",
				what, len(tr.Nodes), cap(tr.Nodes), tr.Nodes[0].Next)
		}
	}
	for _, d := range []*workload.Dataset{workload.BioAID(), workload.QBLast()} {
		allocs := map[int]float64{}
		for _, edges := range []int{300, 3000} {
			r, err := derive.Derive(d.Spec, derive.Options{Seed: 7, TargetEdges: edges})
			if err != nil {
				t.Fatal(err)
			}
			labels := r.MaterializeLabels()
			full := NewTrie(labels)
			exact(d.Name+" NewTrie", full)
			keep := make([]bool, len(labels))
			for i := range keep {
				keep[i] = i%4 == 1
			}
			exact(d.Name+" Sub", full.Sub(keep))
			allocs[edges] = testing.AllocsPerRun(5, func() { NewTrie(labels) })
		}
		if allocs[300] != allocs[3000] {
			t.Errorf("%s: NewTrie takes %v allocations on 300 edges, %v on 3000", d.Name, allocs[300], allocs[3000])
		}
	}
}
