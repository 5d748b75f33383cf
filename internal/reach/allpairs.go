package reach

import (
	"slices"

	"provrpq/internal/label"
	"provrpq/internal/parallel"
	"provrpq/internal/wf"
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

// EmitFunc receives one result pair by the callers' original indices.
type EmitFunc func(i, j int)

// parallelCutoff is the l1 size below which AllPairs stays on one worker:
// the per-shard trie build has to be worth the goroutine fan-out.
const parallelCutoff = 512

// AllPairs emits every pair (i, j) with l1[i] ⇝ l2[j] in any run containing
// all the labeled nodes. It runs in O(|G|³·max(|l1|,|l2|) + N) where N is
// the output size (Lemma 4.1's side effect: all-pairs reachability in
// input+output linear time for fixed G), sharded across a bounded worker
// pool of the given size (0 means one worker per CPU; 1, or an l1 below the
// cut-off, is the serial walk, run inline on the calling goroutine). l1 is
// split into contiguous shards, each walked against a shared trie of l2 by
// its own goroutine; per-shard emits are buffered and merged in shard
// order, so emit runs on the calling goroutine, the sequence is
// deterministic for a fixed worker count, and the pair set never depends
// on it.
func AllPairs(spec *wf.Spec, l1, l2 []label.Label, workers int, emit EmitFunc) {
	if len(l1) < parallelCutoff {
		workers = 1
	}
	t2 := NewTrie(l2)
	parallel.Gather(len(l1), workers, func(_, lo, hi int, out func([2]int)) {
		AllPairsTries(nil, spec, NewTrie(l1[lo:hi]), t2, func(i, j int) {
			out([2]int{lo + i, j})
		})
	}, func(p [2]int) { emit(p[0], p[1]) })
}

// AllPairsTries is AllPairs over prebuilt tries; indices refer to the
// original (pre-sort) label lists. A built Trie is read-only, so the same
// trie may back any number of concurrent walks. Once done fires (nil never
// does) the walk emits nothing more and unwinds; what it emitted is then
// incomplete.
func AllPairsTries(done <-chan struct{}, spec *wf.Spec, t1, t2 *Trie, emit EmitFunc) {
	w := &walker{spec: spec, t1: t1, t2: t2, emit: emit, done: done}
	w.walk(t1.Root, t2.Root)
}

type walker struct {
	spec *wf.Spec
	t1   *Trie
	t2   *Trie
	emit EmitFunc
	done <-chan struct{}
}

// stop reports whether done has fired.
func (w *walker) stop() bool {
	select {
	case <-w.done:
		return true
	default:
		return false
	}
}

// emitRange crosses the leaf ranges of two subtrees.
func (w *walker) emitRange(a, b *TrieNode) {
	if w.stop() {
		return
	}
	for i := a.Lo; i < a.Hi; i++ {
		for j := b.Lo; j < b.Hi; j++ {
			w.emit(w.t1.Perm[i], w.t2.Perm[j])
		}
	}
}

// walk processes two trie nodes known to represent the same parse-tree node
// (equal label prefixes).
func (w *walker) walk(a, b *TrieNode) {
	if w.stop() {
		return
	}
	// A pair of leaves with the same full label is the same run node:
	// reachable via the empty path. (Leaves at this node sit in
	// [Lo, firstChild.Lo); only identical labels can coexist there.)
	aLeafHi, bLeafHi := a.Hi, b.Hi
	if len(a.Children) > 0 {
		aLeafHi = a.Children[0].Lo
	}
	if len(b.Children) > 0 {
		bLeafHi = b.Children[0].Lo
	}
	for i := a.Lo; i < aLeafHi; i++ {
		for j := b.Lo; j < bLeafHi; j++ {
			w.emit(w.t1.Perm[i], w.t2.Perm[j])
		}
	}
	if len(a.Children) == 0 || len(b.Children) == 0 {
		return
	}

	if !a.Children[0].Entry.Rec {
		w.walkComposite(a, b)
	} else {
		w.walkRecursive(a, b)
	}
}

// walkComposite is Case 1 of Algorithm 2: children belong to the body of a
// single production firing.
func (w *walker) walkComposite(a, b *TrieNode) {
	for _, ca := range a.Children {
		for _, cb := range b.Children {
			if ca.Entry == cb.Entry {
				w.walk(ca, cb)
				continue
			}
			if ca.Entry.Rec || cb.Entry.Rec || ca.Entry.X != cb.Entry.X {
				continue
			}
			if w.spec.BodyReach(ca.Entry.X, ca.Entry.Y, cb.Entry.Y) {
				w.emitRange(ca, cb)
			}
		}
	}
}

// walkRecursive is Case 2 of Algorithm 2: children are iterations of one R
// node, sorted by iteration number. Same iterations recurse (merge join);
// earlier iterations reach later ones through their red children; later
// iterations reach earlier ones' blue children. Every loop below either
// recurses or emits at least one pair per step, keeping the pass
// output-bound as in the paper.
func (w *walker) walkRecursive(a, b *TrieNode) {
	ac, bc := a.Children, b.Children
	// Set=: merge join on iteration number.
	for i, j := 0, 0; i < len(ac) && j < len(bc); {
		switch {
		case ac[i].Entry.Z == bc[j].Entry.Z:
			w.walk(ac[i], bc[j])
			i++
			j++
		case ac[i].Entry.Z < bc[j].Entry.Z:
			i++
		default:
			j++
		}
	}
	// Set<: red children of an earlier a-iteration reach every later
	// b-iteration entirely.
	j := 0
	for _, ca := range ac {
		var red []*TrieNode
		for _, g := range ca.Children {
			if w.isRed(g.Entry) {
				red = append(red, g)
			}
		}
		if len(red) == 0 {
			continue
		}
		for j < len(bc) && bc[j].Entry.Z <= ca.Entry.Z {
			j++
		}
		for _, cb := range bc[j:] {
			for _, g := range red {
				w.emitRange(g, cb)
			}
		}
	}
	// Set>: every later a-iteration reaches the blue children of earlier
	// b-iterations.
	i := 0
	for _, cb := range bc {
		var blue []*TrieNode
		for _, g := range cb.Children {
			if w.isBlue(g.Entry) {
				blue = append(blue, g)
			}
		}
		if len(blue) == 0 {
			continue
		}
		for i < len(ac) && ac[i].Entry.Z <= cb.Entry.Z {
			i++
		}
		for _, ca := range ac[i:] {
			for _, g := range blue {
				w.emitRange(ca, g)
			}
		}
	}
}

// isRed reports whether an iteration-child entry (k, c) can reach the cycle
// successor within production k.
func (w *walker) isRed(e label.Entry) bool {
	if e.Rec {
		return false
	}
	rp, cyclePos := w.spec.RecursiveProd(w.spec.Prods[e.X].LHS)
	return rp == e.X && w.spec.BodyReach(e.X, e.Y, cyclePos)
}

// isBlue reports whether the cycle successor can reach the iteration-child
// entry (k, c) within production k.
func (w *walker) isBlue(e label.Entry) bool {
	if e.Rec {
		return false
	}
	rp, cyclePos := w.spec.RecursiveProd(w.spec.Prods[e.X].LHS)
	return rp == e.X && w.spec.BodyReach(e.X, cyclePos, e.Y)
}
