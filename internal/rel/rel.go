// Package rel holds the relational operators the decomposition of an unsafe
// query composes its safe subtrees with, and the run × DFA walk behind unsafe
// pairwise checks. The reference implementations in internal/baseline build on
// it; it imports none of them.
package rel

import (
	"math/bits"
	"slices"

	"provrpq/internal/automata"
	"provrpq/internal/derive"
	"provrpq/internal/index"
)

// Rel is a binary relation over run nodes — the intermediate result type of
// the relational (G1-style) evaluation. The join/closure operators below
// are the "structural joins" whose intermediate-result blowup motivates the
// paper's approach.
//
// Node ids are dense, so the relation is one row of targets per source id,
// the targets held in 32 bits like the label walk's list indices.
// Invariants, which hold whenever a method returns: row u is sorted and
// duplicate-free, and n is the sum of the row lengths. A row's backing array
// belongs to one relation only — an operator's result never aliases its
// operands, so an Add to either never shows in the other. Reads (Has, Len,
// Each, Pairs, AllPairsIn and the operand side of every operator) write
// nothing, so any number of goroutines may read one relation at once; Add
// and AddRows need exclusive access.
type Rel struct {
	rows [][]int32
	n    int
}

// NewRel returns an empty relation.
func NewRel() *Rel { return &Rel{} }

// Row returns the targets of u, increasing, nil for a source past the last
// row. The caller must not write to it.
func (r *Rel) Row(u derive.NodeID) []int32 {
	if int(u) < len(r.rows) {
		return r.rows[u]
	}
	return nil
}

// Add inserts the pair (u, v).
func (r *Rel) Add(u, v derive.NodeID) {
	if int(u) >= len(r.rows) {
		r.rows = append(r.rows, make([][]int32, int(u)+1-len(r.rows))...)
	}
	row, t := r.rows[u], int32(v)
	at := len(row)
	if at > 0 && t <= row[at-1] {
		var found bool
		if at, found = slices.BinarySearch(row, t); found {
			return
		}
	}
	r.rows[u] = slices.Insert(row, at, t)
	r.n++
}

// AddRows inserts the pair (u, v) for every v in rows[u], in bulk. Targets
// are node ids at the width rows are stored at; a row may list them in any
// order and more than once. The relation takes ownership of every row slice
// — it orders it in place and keeps it — so the caller must not use them
// afterwards.
func (r *Rel) AddRows(rows [][]int32) {
	if len(r.rows) < len(rows) {
		r.rows = append(r.rows, make([][]int32, len(rows)-len(r.rows))...)
	}
	for u, vs := range rows {
		if len(vs) == 0 {
			continue
		}
		if !increasing(vs) {
			slices.Sort(vs)
			vs = slices.Compact(vs)
		}
		if old := r.rows[u]; len(old) > 0 {
			vs = mergeRows(make([]int32, 0, len(old)+len(vs)), old, vs)
		}
		r.n += len(vs) - len(r.rows[u])
		r.rows[u] = vs[:len(vs):len(vs)]
	}
}

// increasing reports whether vs is sorted and duplicate-free.
func increasing(vs []int32) bool {
	for i := 1; i < len(vs); i++ {
		if vs[i-1] >= vs[i] {
			return false
		}
	}
	return true
}

// mergeRows appends the union of two sorted duplicate-free rows to dst.
func mergeRows(dst, a, b []int32) []int32 {
	for len(a) > 0 && len(b) > 0 {
		switch x, y := a[0], b[0]; {
		case x < y:
			dst, a = append(dst, x), a[1:]
		case x > y:
			dst, b = append(dst, y), b[1:]
		default:
			dst, a, b = append(dst, x), a[1:], b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// Has reports membership.
func (r *Rel) Has(u, v derive.NodeID) bool {
	_, found := slices.BinarySearch(r.Row(u), int32(v))
	return found
}

// Len returns the pair count.
func (r *Rel) Len() int { return r.n }

// Each visits every pair in (From, To) order.
func (r *Rel) Each(f func(u, v derive.NodeID)) {
	for u, row := range r.rows {
		for _, v := range row {
			f(derive.NodeID(u), derive.NodeID(v))
		}
	}
}

// Pairs returns the pairs in (From, To) order.
func (r *Rel) Pairs() [][2]derive.NodeID {
	out := make([][2]derive.NodeID, 0, r.n)
	r.Each(func(u, v derive.NodeID) { out = append(out, [2]derive.NodeID{u, v}) })
	return out
}

// in reports whether a node set — ids in increasing order, nil for every
// node — holds v.
func in(set []int32, v int32) bool {
	_, found := slices.BinarySearch(set, v)
	return set == nil || found
}

// Sources returns the set of nodes with a pair from them, never nil.
func (r *Rel) Sources() []int32 {
	out := []int32{}
	for u, row := range r.rows {
		if len(row) > 0 {
			out = append(out, int32(u))
		}
	}
	return out
}

// Targets returns the set of nodes with a pair to them, never nil.
func (r *Rel) Targets() []int32 {
	var m marks
	for _, row := range r.rows {
		for _, v := range row {
			m.add(v)
		}
	}
	return m.drain(make([]int32, 0, m.n))
}

// Restrict drops, in place, the pairs outside from × to and returns r.
func (r *Rel) Restrict(from, to []int32) *Rel {
	if from == nil && to == nil {
		return r
	}
	for u, row := range r.rows {
		kept := row[:0]
		if in(from, int32(u)) {
			kept = slices.DeleteFunc(row, func(v int32) bool { return !in(to, v) })
		}
		r.n -= len(row) - len(kept)
		r.rows[u] = kept
	}
	return r
}

// AllPairsIn emits, by list positions, every (i, j) with (l1[i], l2[j]) ∈ r,
// in nested-loop order: i ascending and, for one i, j ascending. A node
// listed more than once is matched at each of its positions. The cost is
// the lists, the rows of l1's nodes and the output — no probe per pair.
func AllPairsIn(r *Rel, l1, l2 []derive.NodeID, emit func(i, j int)) {
	// head[v] is v's first position in l2 and next[j] the next position of
	// l2[j], -1 ending the chain.
	var head []int32
	next := make([]int32, len(l2))
	for j := len(l2) - 1; j >= 0; j-- {
		v := int(l2[j])
		for v >= len(head) {
			head = append(head, -1)
		}
		next[j], head[v] = head[v], int32(j)
	}
	var js []int32
	for i, u := range l1 {
		js = js[:0]
		for _, v := range r.Row(u) {
			if int(v) >= len(head) {
				break // rows are sorted: no later target is in l2 either
			}
			for j := head[v]; j >= 0; j = next[j] {
				js = append(js, j)
			}
		}
		slices.Sort(js) // already in order whenever l2 lists its nodes by id
		for _, j := range js {
			emit(i, int(j))
		}
	}
}

// marks is a reusable set of node ids that lists its members in increasing
// order: the operators below mark the targets of one output row in it, in
// whatever order the operands yield them, and drain the row out sorted and
// duplicate-free.
type marks struct {
	words  []uint64
	lo, hi int // the words touched since the last drain are words[lo:hi]
	n      int // members
}

// add inserts v and reports whether it was absent.
func (m *marks) add(v int32) bool {
	w, bit := int(v>>6), uint64(1)<<(uint(v)&63)
	if w >= len(m.words) {
		m.words = append(m.words, make([]uint64, w+1-len(m.words))...)
	}
	if m.words[w]&bit != 0 {
		return false
	}
	if m.n == 0 {
		m.lo, m.hi = w, w+1
	} else {
		m.lo, m.hi = min(m.lo, w), max(m.hi, w+1)
	}
	m.words[w] |= bit
	m.n++
	return true
}

// drain appends the members to dst in increasing order and empties the set.
func (m *marks) drain(dst []int32) []int32 {
	if m.n == 0 {
		return dst
	}
	for w := m.lo; w < m.hi; w++ {
		for word := m.words[w]; word != 0; word &= word - 1 {
			dst = append(dst, int32(w<<6+bits.TrailingZeros64(word)))
		}
		m.words[w] = 0
	}
	m.n = 0
	return dst
}

// slab carves the rows of one relation out of a few large arrays, so an
// operator allocates per chunk and not per row.
type slab struct{ buf []int32 }

// take returns an empty row with room for n targets, which no other row
// shares.
func (s *slab) take(n int) []int32 {
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]int32, 0, max(n, min(2*cap(s.buf), 1<<16), 64))
	}
	at := len(s.buf)
	s.buf = s.buf[:at+n]
	return s.buf[at : at : at+n]
}

// fired reports whether done has fired; nil never does.
func fired(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Union returns r ∪ s.
func (r *Rel) Union(s *Rel) *Rel { return r.UnionUntil(nil, s) }

// UnionUntil is Union given up once done fires, as JoinUntil and ClosureFrom
// are: the operator stops at its next block of 64 source rows, what it returns
// is then incomplete, and a caller that passed a context's Done asks it.
func (r *Rel) UnionUntil(done <-chan struct{}, s *Rel) *Rel {
	if len(r.rows) < len(s.rows) {
		r, s = s, r
	}
	out := &Rel{rows: make([][]int32, len(r.rows))}
	sl := slab{buf: make([]int32, 0, r.n+s.n)}
	for u, a := range r.rows {
		if u&63 == 0 && fired(done) {
			break
		}
		b := s.Row(derive.NodeID(u))
		out.rows[u] = mergeRows(sl.take(len(a)+len(b)), a, b)
		out.n += len(out.rows[u])
	}
	return out
}

// Join returns the composition r ; s = {(u,w) | ∃v: (u,v) ∈ r, (v,w) ∈ s}.
func (r *Rel) Join(s *Rel) *Rel { return compose(nil, r, s, false) }

func (r *Rel) JoinUntil(done <-chan struct{}, s *Rel) *Rel { return compose(done, r, s, false) }

// compose returns r ; s, united with r itself when withR is set: per source
// u it marks the rows of s that u's row selects and drains them as one
// sorted row.
func compose(done <-chan struct{}, r, s *Rel, withR bool) *Rel {
	out := &Rel{rows: make([][]int32, len(r.rows))}
	var m marks
	var sl slab
	for u, row := range r.rows {
		if u&63 == 0 && fired(done) {
			break
		}
		for _, v := range row {
			if withR {
				m.add(v)
			}
			for _, w := range s.Row(derive.NodeID(v)) {
				m.add(w)
			}
		}
		out.n += m.n
		out.rows[u] = m.drain(sl.take(m.n))
	}
	return out
}

// Closure returns the transitive closure r⁺ semi-naively: every derived
// pair (u, v) is joined with r's row v exactly once, when it is new — the
// delta iteration of a fixpoint loop, run source by source so that one set
// of marks serves as both the "seen" test and the sorted output row.
func (r *Rel) Closure() *Rel { return r.ClosureFrom(nil, nil) }

// ClosureFrom is Closure's rows of the sources in the set from — the loop runs
// source by source, so a row left out costs nothing — until done fires.
func (r *Rel) ClosureFrom(done <-chan struct{}, from []int32) *Rel {
	out := &Rel{rows: make([][]int32, len(r.rows))}
	var m marks
	var sl slab
	var delta []int32
	for u, row := range r.rows {
		if u&63 == 0 && fired(done) {
			break
		}
		if !in(from, int32(u)) {
			continue
		}
		for _, v := range row {
			m.add(v)
		}
		delta = append(delta[:0], row...)
		for len(delta) > 0 {
			v := delta[len(delta)-1]
			delta = delta[:len(delta)-1]
			for _, w := range r.Row(derive.NodeID(v)) {
				if m.add(w) {
					delta = append(delta, w)
				}
			}
		}
		out.n += m.n
		out.rows[u] = m.drain(sl.take(m.n))
	}
	return out
}

// ClosureNaive computes the transitive closure by naive self-joins until a
// fixpoint: R ← R ∪ R;R₁ with the FULL relation re-joined every round.
// This is the behaviour the paper ascribes to the Kleene-star baselines
// ("it is unknown how many rounds it takes to reach a fixpoint, the
// performance can be very bad"): cost grows with the longest path times the
// result size. Closure (semi-naive) is what our own evaluator uses.
func (r *Rel) ClosureNaive() *Rel {
	out := r
	for {
		next := compose(nil, out, r, true)
		if next.n == out.n {
			return next
		}
		out = next
	}
}

// Identity returns {(u,u)} over all nodes of the run (the ε relation).
func Identity(run *derive.Run) *Rel {
	n := run.NumNodes()
	out := &Rel{rows: make([][]int32, n), n: n}
	ids := make([]int32, n)
	for u := range ids {
		ids[u] = int32(u)
		out.rows[u] = ids[u : u+1 : u+1]
	}
	return out
}

// Leaf returns the relation of a parse-tree leaf over the indexed run: a
// symbol's index rows, the wildcard's out-edge rows, the identity for ε.
func Leaf(ix *index.Index, q *automata.Node) *Rel {
	switch q.Kind {
	case automata.KindSym:
		out := NewRel()
		ix.EachPair(q.Sym, func(p index.Pair) {
			out.Add(p.From, p.To)
		})
		return out
	case automata.KindWild:
		// One row per node, straight from its out-edges.
		run := ix.Run()
		rows := make([][]int32, run.NumNodes())
		buf := make([]int32, 0, len(run.Edges))
		for u := range rows {
			for _, ei := range run.Out(derive.NodeID(u)) {
				buf = append(buf, int32(run.Edges[ei].To))
			}
			rows[u], buf = buf[:len(buf):len(buf)], buf[len(buf):]
		}
		out := NewRel()
		out.AddRows(rows)
		return out
	case automata.KindEps:
		return Identity(ix.Run())
	}
	panic("rel: not a leaf")
}
