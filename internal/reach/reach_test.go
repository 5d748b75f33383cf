package reach

import (
	"testing"

	"provrpq/internal/derive"
	"provrpq/internal/label"
	"provrpq/internal/wf"
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

func TestTrieStructure(t *testing.T) {
	r := paperRun(t)
	var labels []label.Label
	for _, n := range r.Nodes {
		labels = append(labels, n.Label)
	}
	tr := NewTrie(labels)
	if tr.Root.Lo != 0 || tr.Root.Hi != len(labels) {
		t.Fatalf("root range [%d,%d), want [0,%d)", tr.Root.Lo, tr.Root.Hi, len(labels))
	}
	// Root children = the 4 positions of W1: (0,0) c, (0,1) A-subtree,
	// (0,2) B-subtree, (0,3) b.
	if len(tr.Root.Children) != 4 {
		t.Fatalf("root has %d children, want 4", len(tr.Root.Children))
	}
	// The A-subtree child is the R node: its children are the 3 iterations.
	rnode := tr.Root.Children[1]
	if got := rnode.Entry; got != label.Prod(0, 1) {
		t.Fatalf("second child entry = %v", got)
	}
	if len(rnode.Children) != 3 {
		t.Fatalf("R node has %d children, want 3 iterations", len(rnode.Children))
	}
	for i, it := range rnode.Children {
		if !it.Entry.Rec || it.Entry.Z != i+1 {
			t.Errorf("iteration %d entry = %v", i, it.Entry)
		}
	}
	// Leaf ranges are contiguous and ordered.
	last := 0
	for _, c := range tr.Root.Children {
		if c.Lo != last {
			t.Errorf("child range starts at %d, want %d", c.Lo, last)
		}
		last = c.Hi
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
	if len(sub.Perm) != len(kept) || sub.NumNodes != want.NumNodes {
		t.Fatalf("sub-trie: %d leaves %d nodes, want %d leaves %d nodes", len(sub.Perm), sub.NumNodes, len(kept), want.NumNodes)
	}
	for i, p := range sub.Perm {
		if !keep[p] || !label.Equal(labels[p], sub.Labels[i]) || !label.Equal(sub.Labels[i], want.Labels[i]) {
			t.Fatalf("sorted position %d: sub-trie holds %v (list index %d), want %v", i, sub.Labels[i], p, want.Labels[i])
		}
	}
	next := 0
	var same func(a, b *TrieNode)
	same = func(a, b *TrieNode) {
		if a.ID != next || b.ID != next {
			t.Fatalf("node ids %d/%d, want preorder id %d", a.ID, b.ID, next)
		}
		next++
		if a.Entry != b.Entry || a.Lo != b.Lo || a.Hi != b.Hi || len(a.Children) != len(b.Children) {
			t.Fatalf("node %v [%d,%d) with %d children, want %v [%d,%d) with %d", a.Entry, a.Lo, a.Hi, len(a.Children), b.Entry, b.Lo, b.Hi, len(b.Children))
		}
		for i := range a.Children {
			same(a.Children[i], b.Children[i])
		}
	}
	same(sub.Root, want.Root)
	for i := range keep {
		keep[i] = true
	}
	if full.Sub(keep) != full {
		t.Error("a keep that admits every label should return the trie itself")
	}
}
