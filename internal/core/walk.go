package core

import (
	"context"
	"math/bits"

	"provrpq/internal/label"
	"provrpq/internal/reach"
)

// This file is the OptRPL scan: Algorithm 2's pair-of-tries walk run over
// the query-intersected grammar G_R instead of plain G. Algorithm 1 decides
// a pair diverging at trie children ca ≠ cb as
//
//	start · Up(u) · mid[ca→cb] · Down(v)  ∩  accept ≠ ∅
//
// where Up(u) folds only u's label entries below ca and Down(v) only v's
// entries below cb. So the walk carries, per trie node, the DFA state
// vector of each leaf below it — for l1 the row vector x "climbed from the
// leaf to this node's output port", for l2 the column vector y "states at
// this node's input port that descend to the leaf accepting" — computed
// once per node, bottom-up, and shared by every pair the leaf takes part
// in. Leaves whose vector has no live state are dropped at that node, the
// rest are bucketed by vector value, and a divergence tests (x·mid) ∩ y
// once per bucket pair and hands the cross product of matching buckets to
// the consumer as one block, never pair by pair: a dead divergence prunes
// both subtrees without looking at their leaves, and a consumer that fills
// rows copies a block's targets once per source.

// bucket is the leaves below one trie node that share a state vector.
type bucket struct {
	vec    uint64
	leaves []int32 // indices into the caller's label list
	// at is the sorted position of leaves[0] while leaves is still a window
	// of the trie's permutation — a subtree's leaves are contiguous there, so
	// buckets merge by widening the window instead of copying — and -1 once
	// a merge had to copy.
	at int
}

// applyRow returns the row vector v·m: the states reached from v's states
// by a path m describes.
func applyRow(v uint64, m Mat) uint64 {
	var out uint64
	for v != 0 {
		q := bits.TrailingZeros64(v)
		v &^= 1 << uint(q)
		out |= m[q]
	}
	return out
}

// applyCol returns the column vector m·y: the states from which a path m
// describes reaches one of y's states.
func applyCol(m Mat, y uint64) uint64 {
	var out uint64
	for q, row := range m {
		if row&y != 0 {
			out |= 1 << uint(q)
		}
	}
	return out
}

// vectorFill computes the live buckets of every node of one trie.
type vectorFill struct {
	d    *Decoder
	up   bool    // x vectors of an l1 trie, else y vectors of an l2 trie
	leaf uint64  // a leaf's own vector: the start state, or the accept set
	perm []int32 // the trie's Perm
	vecs [][]bucket
	// pool backs every vecs[id]; a finished node's buckets are never
	// touched again, so growing it only strands the old array until the
	// scan ends.
	pool []bucket
}

// leafVecs is what leafVectors computes for one trie: the live buckets of
// every node, indexed by TrieNode.ID, and the trie's Perm in the buckets'
// element type, which most of them are windows of. Read-only once built.
type leafVecs struct {
	vecs [][]bucket
	perm []int32
}

// leafVectors computes the live buckets of every node of t: the x vectors of
// an l1 trie (up) or the y vectors of an l2 trie. O(leaves · depth) vector
// steps.
func (d *Decoder) leafVectors(t *reach.Trie, up bool) leafVecs {
	f := vectorFill{d: d, up: up, leaf: uint64(1) << uint(d.e.DFA.Start),
		perm: make([]int32, len(t.Perm)),
		vecs: make([][]bucket, t.NumNodes),
		pool: make([]bucket, 0, t.NumNodes+t.NumNodes/4+16)}
	if !up {
		f.leaf = d.e.AcceptMask()
	}
	f.leaf &= d.live
	for i, p := range t.Perm {
		f.perm[i] = int32(p)
	}
	f.fill(t.Root)
	return leafVecs{f.vecs, f.perm}
}

func (f *vectorFill) fill(n *reach.TrieNode) {
	for _, c := range n.Children {
		f.fill(c)
	}
	mark := len(f.pool)
	if hi := ownLeavesEnd(n); hi > n.Lo && f.leaf != 0 {
		f.pool = append(f.pool, bucket{f.leaf, f.perm[n.Lo:hi:hi], n.Lo})
	}
	d := f.d
	for _, c := range n.Children {
		if len(f.vecs[c.ID]) == 0 {
			continue
		}
		// The factor of c's entry: out of (or into) body position Y of
		// production X, or across iterations Z-1..1 of a recursion chain.
		var m Mat
		switch en := c.Entry; {
		case f.up && !en.Rec:
			m = d.art.out[en.X][en.Y]
		case f.up:
			m = d.chainOut(en.X, en.Y, en.Z-1, 1)
		case !en.Rec:
			m = d.art.in[en.X][en.Y]
		default:
			m = d.chainIn(en.X, en.Y, 1, en.Z-1)
		}
		for _, b := range f.vecs[c.ID] {
			v := applyCol(m, b.vec)
			if f.up {
				v = applyRow(b.vec, m)
			}
			if v &= d.live; v != 0 {
				f.add(mark, v, b)
			}
		}
	}
	f.vecs[n.ID] = f.pool[mark:len(f.pool):len(f.pool)]
}

// add files a child's bucket b under vector v among the open node's buckets
// pool[mark:].
func (f *vectorFill) add(mark int, v uint64, b bucket) {
	for i := mark; i < len(f.pool); i++ {
		have := &f.pool[i]
		if have.vec != v {
			continue
		}
		if have.at >= 0 && have.at+len(have.leaves) == b.at {
			have.leaves = f.perm[have.at : b.at+len(b.leaves) : b.at+len(b.leaves)]
		} else {
			have.leaves = append(have.leaves, b.leaves...)
			have.at = -1
		}
		return
	}
	f.pool = append(f.pool, bucket{v, b.leaves[:len(b.leaves):len(b.leaves)], b.at})
}

// ownLeavesEnd returns the end of the node's own leaves [n.Lo, end): the
// list entries whose full label is the node's prefix sort before every
// longer label below it.
func ownLeavesEnd(n *reach.TrieNode) int {
	if len(n.Children) > 0 {
		return n.Children[0].Lo
	}
	return n.Hi
}

// block is one cross product of a scan's result: l1 index lo+x matches l2
// index y for every x in xs and y in ys. A walk's blocks have lo 0 and
// slices that are read-only windows of its bucket tables, valid for as long
// as the consumer holds them; the RPL sink and RowsOf put their one source
// in lo. No pair of indices lies in two blocks of one scan.
type block struct {
	lo     int
	xs, ys []int32
}

// each emits the block's pairs one at a time, xs-major.
func (b *block) each(emit func(i, j int)) {
	for _, i := range b.xs {
		for _, j := range b.ys {
			emit(b.lo+int(i), int(j))
		}
	}
}

// AllPairsSafeTries is the OptRPL scan over prebuilt tree representations:
// it emits by the indices of the lists the tries were built from, on the
// calling goroutine. t1 and t2 may be one trie, for a list against itself.
func (e *Env) AllPairsSafeTries(t1, t2 *reach.Trie, emit func(i, j int)) error {
	d := e.decoder()
	if d == nil {
		return ErrUnsafe
	}
	defer e.release(d)
	d.newWalk(t1, t2, d.leafVectors(t1, true), d.leafVectors(t2, false)).run(func(b block) { b.each(emit) })
	return nil
}

// RowsSafeTries is AllPairsSafeTries into Rows, for tries that index one list
// of n labels on both sides: the seeded strategy's candidate sub-tries.
func (e *Env) RowsSafeTries(ctx context.Context, t1, t2 *reach.Trie, n, offset, limit int) (*Rows, error) {
	d := e.decoder()
	if d == nil {
		return nil, ErrUnsafe
	}
	defer e.release(d)
	w := d.newWalk(t1, t2, d.leafVectors(t1, true), d.leafVectors(t2, false))
	w.done = ctx.Done()
	return buildRows(ctx, n, offset, limit, w.run)
}

// newWalk prepares the walk of t1, with its up vectors x, against t2 with its
// down vectors y.
func (d *Decoder) newWalk(t1, t2 *reach.Trie, x, y leafVecs) *fusedWalk {
	return &fusedWalk{d: d, t1: t1, t2: t2, x: x.vecs, y: y.vecs, permX: x.perm, permY: y.perm}
}

// fusedWalk is one walk of an l1 trie against an l2 trie.
type fusedWalk struct {
	d            *Decoder
	t1, t2       *reach.Trie
	x, y         [][]bucket // leafVectors of t1 (up) and t2 (down)
	permX, permY []int32    // t1.Perm and t2.Perm
	emit         func(block)
	// done, once it fires (nil never does), ends a run at its next block:
	// nothing more is emitted and the recursion unwinds.
	done    <-chan struct{}
	stopped bool
	// parts is scratch for one iteration's mid-applied buckets in
	// walkRecursive; tests counts bucket-pair tests for the work-bound test.
	parts []bucket
	tests int
}

// run walks the tries and hands every block of the result to emit. A walk
// may run more than once: each run emits the same blocks in the same order.
func (w *fusedWalk) run(emit func(block)) {
	w.emit, w.stopped = emit, false
	w.walk(w.t1.Root, w.t2.Root)
}

// out hands one block to the consumer, or stops the run if done has fired.
func (w *fusedWalk) out(b block) {
	select {
	case <-w.done:
		w.stopped = true
	default:
		w.emit(b)
	}
}

// walk processes two trie nodes known to represent the same parse-tree node
// (equal label prefixes).
func (w *fusedWalk) walk(a, b *reach.TrieNode) {
	if w.stopped {
		return
	}
	// Own leaves on both sides carry the same full label: the same run
	// node, matched by the empty path alone.
	if ai, bj := ownLeavesEnd(a), ownLeavesEnd(b); ai > a.Lo && bj > b.Lo && w.d.e.MatchesEmpty() {
		w.out(block{xs: w.permX[a.Lo:ai], ys: w.permY[b.Lo:bj]})
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

// match tests one l1-side vector, already carried to the l2 side's port,
// against the l2-side buckets and emits the cross product of each hit.
func (w *fusedWalk) match(z uint64, leaves []int32, ys []bucket) {
	for _, yb := range ys {
		w.tests++
		if z&yb.vec != 0 {
			w.out(block{xs: leaves, ys: yb.leaves})
		}
	}
}

// walkComposite is Case 1 of Algorithm 2: the children are body positions
// of one production firing, and two distinct positions c1, c2 connect
// through mid[c1→c2] — zero when c1 cannot reach c2 at all.
func (w *fusedWalk) walkComposite(a, b *reach.TrieNode) {
	for _, ca := range a.Children {
		if w.stopped {
			return
		}
		for _, cb := range b.Children {
			ea, eb := ca.Entry, cb.Entry
			if ea == eb {
				w.walk(ca, cb)
				continue
			}
			if ea.Rec || eb.Rec || ea.X != eb.X || len(w.x[ca.ID]) == 0 || len(w.y[cb.ID]) == 0 {
				continue
			}
			n := len(w.d.e.Spec.Prods[ea.X].Body.Nodes)
			mid := w.d.art.mid[ea.X][ea.Y*n+eb.Y]
			if mid.IsZero() {
				continue
			}
			for _, xb := range w.x[ca.ID] {
				if z := applyRow(xb.vec, mid) & w.d.live; z != 0 {
					w.match(z, xb.leaves, w.y[cb.ID])
				}
			}
		}
	}
}

// cyclePort returns the matrix between body position c of the iteration
// child entry en (production k, position c) and the cycle-successor
// position of k — from c's output to the successor's input when red, from
// the successor's output to c's input otherwise — or nil when en is not a
// position of its module's recursive production.
func (w *fusedWalk) cyclePort(en label.Entry, red bool) Mat {
	if en.Rec {
		return nil
	}
	spec := w.d.e.Spec
	rp, cyclePos := spec.RecursiveProd(spec.Prods[en.X].LHS)
	if rp != en.X {
		return nil
	}
	n := len(spec.Prods[en.X].Body.Nodes)
	if red {
		return w.d.art.mid[en.X][en.Y*n+cyclePos]
	}
	return w.d.art.mid[en.X][cyclePos*n+en.Y]
}

// walkRecursive is Case 2 of Algorithm 2: the children are iterations of
// one R node, sorted by iteration number. Equal iterations recurse (merge
// join). An earlier l1 iteration i reaches a later l2 iteration j from its
// red grandchildren — through mid to the cycle successor, then down the
// chain over iterations i+1..j-1; a later l1 iteration i reaches the blue
// grandchildren of an earlier l2 iteration j — up the chain over iterations
// i-1..j+1, then through mid from the cycle successor. The mid factor is
// applied once per iteration, the chain factor once per iteration pair, and
// iterations left without a live bucket are never paired.
func (w *fusedWalk) walkRecursive(a, b *reach.TrieNode) {
	ac, bc := a.Children, b.Children
	for i, j := 0, 0; i < len(ac) && j < len(bc); {
		switch c := label.CompareEntry(ac[i].Entry, bc[j].Entry); {
		case c == 0:
			w.walk(ac[i], bc[j])
			i++
			j++
		case c < 0:
			i++
		default:
			j++
		}
	}
	// later reports that eb is a later iteration than ea of the same chain.
	later := func(ea, eb label.Entry) bool {
		return ea.Rec && eb.Rec && ea.X == eb.X && ea.Y == eb.Y && ea.Z < eb.Z
	}
	live := func(cs []*reach.TrieNode, vecs [][]bucket) []*reach.TrieNode {
		var out []*reach.TrieNode
		for _, c := range cs {
			if len(vecs[c.ID]) > 0 {
				out = append(out, c)
			}
		}
		return out
	}
	liveB := live(bc, w.y)
	for _, ca := range ac {
		if len(liveB) == 0 || w.stopped {
			break
		}
		w.parts = w.parts[:0]
		for _, g := range ca.Children {
			mid := w.cyclePort(g.Entry, true)
			if mid.IsZero() { // nil included
				continue
			}
			for _, xb := range w.x[g.ID] {
				if z := applyRow(xb.vec, mid) & w.d.live; z != 0 {
					w.parts = append(w.parts, bucket{vec: z, leaves: xb.leaves})
				}
			}
		}
		if len(w.parts) == 0 {
			continue
		}
		ea := ca.Entry
		for _, cb := range liveB {
			eb := cb.Entry
			if !later(ea, eb) {
				continue
			}
			chain := w.d.chainIn(ea.X, ea.Y, ea.Z+1, eb.Z-1)
			for _, p := range w.parts {
				if z := applyRow(p.vec, chain) & w.d.live; z != 0 {
					w.match(z, p.leaves, w.y[cb.ID])
				}
			}
		}
	}
	liveA := live(ac, w.x)
	for _, cb := range bc {
		if len(liveA) == 0 || w.stopped {
			break
		}
		w.parts = w.parts[:0]
		for _, g := range cb.Children {
			mid := w.cyclePort(g.Entry, false)
			if mid.IsZero() { // nil included
				continue
			}
			for _, yb := range w.y[g.ID] {
				if y := applyCol(mid, yb.vec) & w.d.live; y != 0 {
					w.parts = append(w.parts, bucket{vec: y, leaves: yb.leaves})
				}
			}
		}
		if len(w.parts) == 0 {
			continue
		}
		eb := cb.Entry
		for _, ca := range liveA {
			ea := ca.Entry
			if !later(eb, ea) {
				continue
			}
			chain := w.d.chainOut(ea.X, ea.Y, ea.Z-1, eb.Z+1)
			for _, xb := range w.x[ca.ID] {
				if z := applyRow(xb.vec, chain) & w.d.live; z != 0 {
					w.match(z, xb.leaves, w.parts)
				}
			}
		}
	}
}
