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
	Labels []label.Label // sorted
	Perm   []int         // Perm[sorted position] = caller's original index
	Root   *TrieNode
	// NumNodes counts the trie's nodes; TrieNode.ID ranges over [0, NumNodes).
	NumNodes int

	// nodes and kids are the slabs build carves TrieNodes and their
	// Children slices from: a trie is built for one scan and dropped, so
	// its thousands of small objects cost one allocation per slab instead
	// of two per node.
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
func NewTrie(labels []label.Label) *Trie { return NewTrieOf(labels, Sorted(labels)) }

// Sorted returns the indices of labels in label order: the part of a trie's
// construction that is more than a pass over the list, worth keeping where
// tries of parts of one list are built again and again.
func Sorted(labels []label.Label) []int {
	order := make([]int, len(labels))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return label.Compare(labels[a], labels[b]) })
	return order
}

// NewTrieOf builds, without sorting, the trie of the labels perm lists by
// index, in label order: any part of Sorted(labels). It keeps perm as Perm.
func NewTrieOf(labels []label.Label, perm []int) *Trie {
	t := &Trie{Labels: make([]label.Label, len(perm)), Perm: perm}
	for i, p := range perm {
		t.Labels[i] = labels[p]
	}
	t.Root = t.build(0, len(t.Labels), 0)
	return t
}

// Sub returns the trie of the labels keep admits, keep being indexed like
// the list t was built from; Perm keeps referring to that list. The sorted
// order is inherited, so a sub-trie costs one pass and no sort, and a keep
// that admits every label — as a nil one does — returns t itself.
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
	sub := &Trie{Labels: make([]label.Label, 0, kept), Perm: make([]int, 0, kept)}
	for i, p := range t.Perm {
		if keep[p] {
			sub.Labels = append(sub.Labels, t.Labels[i])
			sub.Perm = append(sub.Perm, p)
		}
	}
	sub.Root = sub.build(0, len(sub.Labels), 0)
	return sub
}

// slabNodes caps a slab, so the last one of a large trie strands little.
const slabNodes = 1024

// build groups the sorted slice [lo,hi) by the entry at the given depth.
func (t *Trie) build(lo, hi, depth int) *TrieNode {
	if len(t.nodes) == cap(t.nodes) {
		t.nodes = make([]TrieNode, 0, min(len(t.Labels)+16, slabNodes))
	}
	t.nodes = append(t.nodes, TrieNode{ID: t.NumNodes, Lo: lo, Hi: hi})
	t.NumNodes++
	n := &t.nodes[len(t.nodes)-1]

	labels := t.Labels
	// Skip exhausted labels (they are leaves at this node; sorted first).
	for lo < hi && len(labels[lo]) <= depth {
		lo++
	}
	groups := 0
	for i := lo; i < hi; i++ {
		if i == lo || labels[i][depth] != labels[i-1][depth] {
			groups++
		}
	}
	if groups == 0 {
		return n
	}
	if cap(t.kids)-len(t.kids) < groups {
		t.kids = make([]*TrieNode, 0, max(groups, min(len(t.Labels)+16, slabNodes)))
	}
	t.kids = t.kids[:len(t.kids)+groups]
	n.Children = t.kids[len(t.kids)-groups : len(t.kids) : len(t.kids)]
	for c, i := 0, lo; i < hi; c++ {
		e := labels[i][depth]
		j := i + 1
		for j < hi && labels[j][depth] == e {
			j++
		}
		child := t.build(i, j, depth+1)
		child.Entry = e
		n.Children[c] = child
		i = j
	}
	return n
}
