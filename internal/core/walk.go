package core

import (
	"context"
	"math/bits"
	"slices"

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

// bucket is the leaves below one trie node that share a state vector: the
// window [lo, hi) of its side's leaf space (see vectors).
type bucket struct {
	vec    uint64
	lo, hi int32
}

// extend widens b by o when o's leaves continue b's in the leaf space.
func (b *bucket) extend(o bucket) bool {
	if b.hi != o.lo {
		return false
	}
	b.hi = o.hi
	return true
}

// span is one node's buckets, the window [lo, hi) of its side's pool.
type span struct{ lo, hi int32 }

// vectors is one side of a walk: the live buckets of every node of a trie.
// A bucket's leaves are a window of one leaf space: the trie's Perm, where a
// subtree's leaves are contiguous so that buckets merge by widening a window,
// then, past a one-slot gap that no window spans, spill, where a merge of
// leaves that are not contiguous copies them. Pointer-free but for its slices
// and read-only once built: concurrent scans share a trie's Perm.
type vectors struct {
	perm, spill []int32
	pool        []bucket
	nodes       []span // indexed like the trie's Nodes
}

// of returns node i's buckets.
func (v *vectors) of(i int32) []bucket { return v.pool[v.nodes[i].lo:v.nodes[i].hi] }

// leaves returns bucket b's leaves.
func (v *vectors) leaves(b bucket) []int32 {
	if p := int32(len(v.perm)) + 1; b.lo >= p {
		return v.spill[b.lo-p : b.hi-p : b.hi-p]
	}
	return v.perm[b.lo:b.hi:b.hi]
}

// merge returns have widened by b's leaves, both copied to the end of spill
// unless have's already end it.
func (v *vectors) merge(have, b bucket) bucket {
	p := int32(len(v.perm)) + 1
	if end := p + int32(len(v.spill)); have.hi != end {
		v.spill = append(v.spill, v.leaves(have)...)
		have.lo = end
	}
	v.spill = append(v.spill, v.leaves(b)...)
	have.hi = p + int32(len(v.spill))
	return have
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
	t    *reach.Trie
	up   bool   // x vectors of an l1 trie, else y vectors of an l2 trie
	leaf uint64 // a leaf's own vector: the start state, or the accept set
	v    vectors
}

// leafVectors computes the live buckets of every node of t: the x vectors of
// an l1 trie (up) or the y vectors of an l2 trie. Most buckets are windows of
// t.Perm. O(leaves · depth) vector steps; read-only once built.
func (d *Decoder) leafVectors(t *reach.Trie, up bool) *vectors {
	n := len(t.Nodes)
	f := vectorFill{d: d, t: t, up: up, leaf: uint64(1) << uint(d.e.DFA.Start),
		v: vectors{perm: t.Perm, nodes: make([]span, n), pool: make([]bucket, 0, n+n/4+16)}}
	if !up {
		f.leaf = d.e.AcceptMask()
	}
	f.leaf &= d.live
	f.fill(0)
	return &f.v
}

func (f *vectorFill) fill(i int32) {
	nodes := f.t.Nodes
	for c := i + 1; c < nodes[i].Next; c = nodes[c].Next {
		f.fill(c)
	}
	mark := int32(len(f.v.pool))
	if lo, hi := nodes[i].Lo, f.t.OwnEnd(i); hi > lo && f.leaf != 0 {
		f.v.pool = append(f.v.pool, bucket{f.leaf, lo, hi})
	}
	d := f.d
	for c := i + 1; c < nodes[i].Next; c = nodes[c].Next {
		// bs outlives add's growing the pool: finished nodes are never written.
		bs := f.v.of(c)
		if len(bs) == 0 {
			continue
		}
		// The factor of c's entry: out of (or into) body position Y of
		// production X, or across iterations Z-1..1 of a recursion chain.
		var m Mat
		switch en := nodes[c].Entry(); {
		case f.up && !en.Rec:
			m = d.art.out[en.X][en.Y]
		case f.up:
			m = d.chainOut(en.X, en.Y, en.Z-1, 1)
		case !en.Rec:
			m = d.art.in[en.X][en.Y]
		default:
			m = d.chainIn(en.X, en.Y, 1, en.Z-1)
		}
		for _, b := range bs {
			v := applyCol(m, b.vec)
			if f.up {
				v = applyRow(b.vec, m)
			}
			if v &= d.live; v != 0 {
				f.add(mark, v, b)
			}
		}
	}
	f.v.nodes[i] = span{mark, int32(len(f.v.pool))}
}

// add files a child's bucket b under vector v among the open node's buckets
// pool[mark:].
func (f *vectorFill) add(mark int32, v uint64, b bucket) {
	for i := int(mark); i < len(f.v.pool); i++ {
		if have := &f.v.pool[i]; have.vec == v {
			if !have.extend(b) {
				*have = f.v.merge(*have, b)
			}
			return
		}
	}
	f.v.pool = append(f.v.pool, bucket{v, b.lo, b.hi})
}

// block is one cross product of a scan's result: l1 index lo+x matches l2
// index y for every x in xs and y in ys. A walk's blocks have lo 0 and
// slices that are read-only windows of its leaf spaces, valid for as long
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
// of n labels on both sides: the seeded strategy's candidate sub-tries. Its
// Work is the walk's: the tries' labels are the caller's to count.
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
func (d *Decoder) newWalk(t1, t2 *reach.Trie, x, y *vectors) *fusedWalk {
	return &fusedWalk{d: d, t1: t1, t2: t2, x: x, y: y}
}

// fusedWalk is one walk of an l1 trie against an l2 trie.
type fusedWalk struct {
	d      *Decoder
	t1, t2 *reach.Trie
	x, y   *vectors // leafVectors of t1 (up) and t2 (down)
	emit   func(block)
	// done, once it fires (nil never does), ends a run at its next block:
	// nothing more is emitted and the recursion unwinds.
	done    <-chan struct{}
	stopped bool
	work    Work // of the current run: its bucket-pair tests
}

// run walks the tries, hands every block of the result to emit and returns
// the run's Work. A walk may run more than once: each run emits the same
// blocks in the same order.
func (w *fusedWalk) run(emit func(block)) Work {
	w.emit, w.stopped, w.work = emit, false, Work{}
	w.walk(0, 0)
	return w.work
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

// walk processes node a of t1 and node b of t2, known to represent the same
// parse-tree node (equal label prefixes).
func (w *fusedWalk) walk(a, b int32) {
	if w.stopped {
		return
	}
	na, nb := &w.t1.Nodes[a], &w.t2.Nodes[b]
	// Own leaves on both sides carry the same full label: the same run
	// node, matched by the empty path alone.
	if ai, bj := w.t1.OwnEnd(a), w.t2.OwnEnd(b); ai > na.Lo && bj > nb.Lo && w.d.e.MatchesEmpty() {
		w.out(block{xs: w.t1.Perm[na.Lo:ai], ys: w.t2.Perm[nb.Lo:bj]})
	}
	if a+1 == na.Next || b+1 == nb.Next {
		return
	}
	if !w.t1.Nodes[a+1].Rec {
		w.walkComposite(a, b)
	} else {
		w.walkRecursive(a, b)
	}
}

// match tests one l1-side vector, already carried to the l2 side's port,
// against the l2-side buckets and emits the cross product of each hit.
func (w *fusedWalk) match(z uint64, leaves []int32, ys []bucket) {
	for _, yb := range ys {
		w.work.Tests++
		if z&yb.vec != 0 {
			w.out(block{xs: leaves, ys: w.y.leaves(yb)})
		}
	}
}

// walkComposite is Case 1 of Algorithm 2: the children are body positions
// of one production firing k, and two distinct positions c1, c2 connect
// through mid[c1→c2]. l2's children are filed by position in a frame of the
// decoder's scratch, so an l1 child visits, in position order, its equal
// child and only those positions whose mid is live and whose l2 child has
// live buckets: each source gets its targets in label order, and a
// divergence that no matching path crosses costs nothing.
func (w *fusedWalk) walkComposite(a, b int32) {
	d, n1, n2 := w.d, w.t1.Nodes, w.t2.Nodes
	k := n1[a+1].X
	n := len(d.e.Spec.Prods[k].Body.Nodes)
	nw := (n + 63) / 64
	// The frame: slots[sm+c] is l2's child at position c, or 0 (no child is
	// a root), and bit c of present[pm:] is set when it has live buckets.
	sm, pm := len(d.slots), len(d.present)
	d.slots, d.present = slices.Grow(d.slots, n)[:sm+n], slices.Grow(d.present, nw)[:pm+nw]
	clear(d.slots[sm:])
	clear(d.present[pm:])
	for cb := b + 1; cb < n2[b].Next; cb = n2[cb].Next {
		if c := int(n2[cb].Y); !n2[cb].Rec && n2[cb].X == k {
			d.slots[sm+c] = cb
			if len(w.y.of(cb)) > 0 {
				d.present[pm+c/64] |= 1 << uint(c%64)
			}
		}
	}
	for ca := a + 1; ca < n1[a].Next && !w.stopped; ca = n1[ca].Next {
		c1, xs := int(n1[ca].Y), w.x.of(ca)
		if n1[ca].Rec || n1[ca].X != k {
			continue
		}
		for i := range nw {
			var set uint64
			if len(xs) > 0 {
				set = d.art.midLive[k][c1*nw+i] & d.present[pm+i]
			}
			if i == c1/64 && d.slots[sm+c1] != 0 {
				set |= 1 << uint(c1%64)
			}
			for ; set != 0; set &= set - 1 {
				c2 := i*64 + bits.TrailingZeros64(set)
				if c2 == c1 {
					w.walk(ca, d.slots[sm+c2])
					continue
				}
				mid := d.art.mid[k][c1*n+c2]
				for _, xb := range xs {
					if z := applyRow(xb.vec, mid) & d.live; z != 0 {
						w.match(z, w.x.leaves(xb), w.y.of(d.slots[sm+c2]))
					}
				}
			}
		}
	}
	d.slots, d.present = d.slots[:sm], d.present[:pm]
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
// i-1..j+1, then through mid from the cycle successor. Each half is one
// sweep of the chain, so no iteration pair is ever enumerated.
func (w *fusedWalk) walkRecursive(a, b int32) {
	n1, n2 := w.t1.Nodes, w.t2.Nodes
	for i, j := a+1, b+1; i < n1[a].Next && j < n2[b].Next; {
		switch c := label.CompareEntry(n1[i].Entry(), n2[j].Entry()); {
		case c == 0:
			w.walk(i, j)
			i, j = n1[i].Next, n2[j].Next
		case c < 0:
			i = n1[i].Next
		default:
			j = n2[j].Next
		}
	}
	w.sweep(a, b, true)
	w.sweep(b, a, false)
}

// sweepPart is one mid-applied bucket of a sweep: pending at the port of
// iteration pos until the next test files it into a group, then one window
// of its group's list, which next links.
type sweepPart struct {
	bucket
	xs   []int32 // its leaves, resolved once for its many emissions
	pos  int
	next int32
}

// sweepGroup is the carried parts that share one vector, a list of windows.
type sweepGroup struct {
	vec        uint64
	head, tail int32
}

// sweep is one half of Case 2 over the iterations of the R nodes p and q.
// Down, p is l1's node and the red parts of its iterations, row vectors at
// the cycle successor's input port, reach the y buckets of later iterations
// of l2's q; up, p is l2's node and the blue parts of its iterations, column
// vectors at the successor's output port, are reached from the x buckets of
// later iterations of l1's q. The sweep merges the two iteration lists in
// order and visits only tested iterations, those of q with a live bucket.
// There every part filed since the last test pays one chain product to reach
// it and joins the group of its vector, every group pays one, and each group
// is tested once per bucket and emits one block per window on a hit. The
// iteration's own parts are filed after its test: a pair needs the part's
// iteration to be the earlier. So a chain costs O(parts + tested iterations
// · groups + blocks), with at most one group per distinct live vector.
func (w *fusedWalk) sweep(p, q int32, down bool) {
	d := w.d
	pt, pv, qt, qv := w.t1, w.x, w.t2, w.y
	if !down {
		pt, pv, qt, qv = w.t2, w.y, w.t1, w.x
	}
	pn, qn := pt.Nodes, qt.Nodes
	var chain label.Entry // X and Y of the chain the groups belong to
	at := 0               // the iteration whose port the groups' vectors stand at
	d.parts, d.groups = d.parts[:0], d.groups[:0]
	pending := 0 // parts[pending:] wait for the next test
	// carry brings vector v from the port of iteration from to the port of
	// iteration to of the chain.
	carry := func(v uint64, from, to int) uint64 {
		if from == to {
			return v
		}
		if down {
			return applyRow(v, d.chainIn(chain.X, chain.Y, from, to-1)) & d.live
		}
		return applyCol(d.chainOut(chain.X, chain.Y, to-1, from), v) & d.live
	}
	i := p + 1
	for j := q + 1; j < qn[q].Next && !w.stopped; j = qn[j].Next {
		if len(qv.of(j)) == 0 {
			continue
		}
		ej := qn[j].Entry()
		for ; i < pn[p].Next; i = pn[i].Next {
			ei := pn[i].Entry()
			if label.CompareEntry(ei, ej) >= 0 {
				break
			}
			if ei.X != chain.X || ei.Y != chain.Y {
				chain, at = ei, 0
				d.parts, d.groups, pending = d.parts[:0], d.groups[:0], 0
			}
			for g := i + 1; g < pn[i].Next; g = pn[g].Next {
				mid := w.cyclePort(pn[g].Entry(), down)
				if mid.IsZero() { // nil included
					continue
				}
				for _, b := range pv.of(g) {
					v := applyCol(mid, b.vec)
					if down {
						v = applyRow(b.vec, mid)
					}
					if v &= d.live; v != 0 {
						d.parts = append(d.parts, sweepPart{bucket{v, b.lo, b.hi}, pv.leaves(b), ei.Z + 1, -1})
					}
				}
			}
		}
		if ej.X != chain.X || ej.Y != chain.Y || len(d.parts) == 0 {
			continue
		}
		// Advance the groups, merging those whose vectors meet.
		kept := d.groups[:0]
		for _, g := range d.groups {
			if g.vec = carry(g.vec, at, ej.Z); g.vec != 0 {
				kept = w.join(kept, g, pv)
			}
		}
		for k := pending; k < len(d.parts); k++ {
			pa := &d.parts[k]
			if v := carry(pa.vec, pa.pos, ej.Z); v != 0 {
				kept = w.join(kept, sweepGroup{v, int32(k), int32(k)}, pv)
			}
		}
		d.groups, pending, at = kept, len(d.parts), ej.Z
		for _, g := range d.groups {
			for _, b := range qv.of(j) {
				w.work.Tests++
				if g.vec&b.vec == 0 {
					continue
				}
				ys := qv.leaves(b)
				for k := g.head; k >= 0 && !w.stopped; k = d.parts[k].next {
					if xs := d.parts[k].xs; down {
						w.out(block{xs: xs, ys: ys})
					} else {
						w.out(block{xs: ys, ys: xs})
					}
				}
			}
		}
	}
}

// join files group g among groups: onto the list of the group with g's
// vector, widening that list's last window when g's first one continues it,
// or as a group of its own.
func (w *fusedWalk) join(groups []sweepGroup, g sweepGroup, pv *vectors) []sweepGroup {
	parts := w.d.parts
	for k := range groups {
		have := &groups[k]
		if have.vec != g.vec {
			continue
		}
		next := g.head
		if last := &parts[have.tail]; last.extend(parts[g.head].bucket) {
			last.xs, next = pv.leaves(last.bucket), parts[g.head].next
		}
		if next >= 0 {
			parts[have.tail].next, have.tail = next, g.tail
		}
		return groups
	}
	return append(groups, g)
}
