package reach

import (
	"slices"

	"provrpq/internal/label"
)

// Trie is the tree representation of a list of labeled nodes (Section IV-A):
// a projection of the compressed parse tree whose leaves are the list
// entries. It is built in one pass over the label-sorted list; leaves of any
// subtree occupy a contiguous range of the sorted order, recorded as
// [Lo, Hi) index ranges into the sorted permutation.
//
// The nodes live in one pointer-free array in preorder, so a node is its
// index: the root is 0, a node's first child is the next index, and each
// child's Next is its next sibling. The array is sized exactly before the
// build, and the garbage collector never scans it; a trie kept for a run
// version costs 28 bytes per node and 4 per leaf.
type Trie struct {
	Labels []label.Label // sorted; an owner that keeps only the walk's part drops them
	Perm   []int32       // Perm[sorted position] = caller's original index
	// Nodes holds every node in preorder, len == cap; per-node annotations
	// of a walk (core's state vectors) live in a slice beside it, indexed
	// alike.
	Nodes []TrieNode
}

// TrieNode is one node of the tree representation.
type TrieNode struct {
	// Rec, X, Y and Z are the label entry on the incoming edge (zero for
	// the root), as Entry returns it.
	Rec     bool
	X, Y, Z int32
	// Lo, Hi delimit the subtree's leaves in the sorted order.
	Lo, Hi int32
	// Next is the index just past the node's subtree. The node's children
	// are the indices i+1, Nodes[i+1].Next, … below it.
	Next int32
}

// Entry returns the label entry on the node's incoming edge.
func (n *TrieNode) Entry() label.Entry {
	return label.Entry{Rec: n.Rec, X: int(n.X), Y: int(n.Y), Z: int(n.Z)}
}

// OwnEnd returns the end of node i's own leaves [Lo, end): the list entries
// whose full label is the node's prefix sort before every longer label below
// it, so they end where the first child's leaves begin.
func (t *Trie) OwnEnd(i int32) int32 {
	if i+1 < t.Nodes[i].Next {
		return t.Nodes[i+1].Lo
	}
	return t.Nodes[i].Hi
}

// NewTrie builds the tree representation of the given labels (in any order;
// the constructor sorts them and records the permutation).
func NewTrie(labels []label.Label) *Trie {
	perm := make([]int32, len(labels))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int { return label.Compare(labels[a], labels[b]) })
	sorted := make([]label.Label, len(perm))
	for i, p := range perm {
		sorted[i] = labels[p]
	}
	return NewTrieOf(sorted, perm)
}

// NewTrieOf builds, without sorting, the trie of labels already in label
// order, sorted[i] being entry perm[i] of the caller's list. It keeps both.
func NewTrieOf(sorted []label.Label, perm []int32) *Trie {
	// A node is the root or one distinct non-empty prefix: in label order,
	// each label adds those past its common prefix lcp[i] with the one before.
	lcp, n := make([]int32, len(sorted)), 1
	for i, l := range sorted {
		if i > 0 {
			lcp[i] = int32(label.LCP(sorted[i-1], l))
		}
		n += len(l) - int(lcp[i])
	}
	t := &Trie{Labels: sorted, Perm: perm, Nodes: make([]TrieNode, 0, n)}
	t.build(lcp, 0, len(sorted), 0, label.Entry{})
	return t
}

// Sub returns the trie of the labels keep admits, keep being indexed like
// the list t was built from; Perm keeps referring to that list, and t must
// still hold its Labels. The sorted order is inherited, so a sub-trie costs
// one pass and no sort, and a keep that admits every label — as a nil one
// does — returns t itself.
func (t *Trie) Sub(keep []bool) *Trie {
	if keep == nil {
		return t
	}
	kept := 0
	for _, k := range keep {
		if k {
			kept++
		}
	}
	if kept == len(t.Perm) {
		return t
	}
	labels, perm := make([]label.Label, 0, kept), make([]int32, 0, kept)
	for i, p := range t.Perm {
		if keep[p] {
			labels, perm = append(labels, t.Labels[i]), append(perm, p)
		}
	}
	return NewTrieOf(labels, perm)
}

// build appends the node of the sorted slice [lo,hi), entered by entry e,
// then its subtree: the labels grouped by the entry at the given depth. They
// share their first depth entries, so label i starts a group exactly where
// lcp[i] is depth.
func (t *Trie) build(lcp []int32, lo, hi, depth int, e label.Entry) {
	at := len(t.Nodes)
	t.Nodes = append(t.Nodes, TrieNode{Rec: e.Rec, X: int32(e.X), Y: int32(e.Y), Z: int32(e.Z),
		Lo: int32(lo), Hi: int32(hi)}) // never grows: sized exactly
	labels := t.Labels
	// Skip exhausted labels (they are leaves at this node; sorted first).
	for lo < hi && len(labels[lo]) <= depth {
		lo++
	}
	for i := lo; i < hi; {
		j := i + 1
		for j < hi && int(lcp[j]) > depth {
			j++
		}
		t.build(lcp, i, j, depth+1, labels[i][depth])
		i = j
	}
	t.Nodes[at].Next = int32(len(t.Nodes))
}
