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
type Trie struct {
	Labels []label.Label // sorted; an owner that keeps only the walk's part drops them
	Perm   []int         // Perm[sorted position] = caller's original index
	Root   *TrieNode
	// NumNodes counts the trie's nodes; TrieNode.ID ranges over [0, NumNodes).
	NumNodes int

	// nodes holds every TrieNode and kids every Children slice, both sized
	// exactly before the build: two allocations for a trie of any size, and
	// no spare capacity stranded in one that is kept.
	nodes []TrieNode
	kids  []*TrieNode
}

// TrieNode is one node of the tree representation.
type TrieNode struct {
	// ID numbers the node in preorder, so per-node annotations of a walk
	// (core's state vectors) live in a slice beside the read-only trie.
	ID int
	// Entry is the label entry on the incoming edge (zero for the root).
	Entry label.Entry
	// Children in sorted entry order.
	Children []*TrieNode
	// Lo, Hi delimit the subtree's leaves in the sorted order.
	Lo, Hi int
}

// NewTrie builds the tree representation of the given labels (in any order;
// the constructor sorts them and records the permutation).
func NewTrie(labels []label.Label) *Trie {
	perm := make([]int, len(labels))
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int { return label.Compare(labels[a], labels[b]) })
	sorted := make([]label.Label, len(perm))
	for i, p := range perm {
		sorted[i] = labels[p]
	}
	return NewTrieOf(sorted, perm)
}

// NewTrieOf builds, without sorting, the trie of labels already in label
// order, sorted[i] being entry perm[i] of the caller's list. It keeps both.
func NewTrieOf(sorted []label.Label, perm []int) *Trie {
	// A node is the root or one distinct non-empty prefix: in label order,
	// each label adds those past its common prefix lcp[i] with the one before.
	lcp, n := make([]int32, len(sorted)), 1
	for i, l := range sorted {
		if i > 0 {
			lcp[i] = int32(label.LCP(sorted[i-1], l))
		}
		n += len(l) - int(lcp[i])
	}
	t := &Trie{Labels: sorted, Perm: perm, NumNodes: n,
		nodes: make([]TrieNode, 0, n), kids: make([]*TrieNode, 0, n-1)}
	t.Root = t.build(lcp, 0, len(sorted), 0)
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
	labels, perm := make([]label.Label, 0, kept), make([]int, 0, kept)
	for i, p := range t.Perm {
		if keep[p] {
			labels, perm = append(labels, t.Labels[i]), append(perm, p)
		}
	}
	return NewTrieOf(labels, perm)
}

// build groups the sorted slice [lo,hi) by the entry at the given depth. Its
// labels share their first depth entries, so label i starts a group exactly
// where lcp[i] is depth.
func (t *Trie) build(lcp []int32, lo, hi, depth int) *TrieNode {
	t.nodes = t.nodes[:len(t.nodes)+1] // zeroed, and exactly sized
	n := &t.nodes[len(t.nodes)-1]
	n.ID, n.Lo, n.Hi = len(t.nodes)-1, lo, hi

	labels := t.Labels
	// Skip exhausted labels (they are leaves at this node; sorted first).
	for lo < hi && len(labels[lo]) <= depth {
		lo++
	}
	groups := 0
	for i := lo; i < hi; i++ {
		if i == lo || int(lcp[i]) == depth {
			groups++
		}
	}
	if groups == 0 {
		return n
	}
	t.kids = t.kids[:len(t.kids)+groups]
	n.Children = t.kids[len(t.kids)-groups : len(t.kids) : len(t.kids)]
	for c, i := 0, lo; i < hi; c++ {
		j := i + 1
		for j < hi && int(lcp[j]) > depth {
			j++
		}
		child := t.build(lcp, i, j, depth+1)
		child.Entry = labels[i][depth]
		n.Children[c] = child
		i = j
	}
	return n
}
