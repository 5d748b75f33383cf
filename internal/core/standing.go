package core

import (
	"provrpq/internal/derive"
	"provrpq/internal/reach"
)

// This file is the standing-query delta: the new matches of a safe query
// after a run grew by a batch of nodes. Labels are assigned at node creation
// and never change (Section II-B), so every new match has a batch endpoint,
// and the tree representation and state vectors of the nodes seen so far
// stay valid for as long as the run lives. A Standing keeps them — the
// static half of Bentley and Saxe's static-structure-plus-buffer scheme —
// and answers an event with four walks of walk.go, none of which looks at
// more of the retained trie than the batch's labels lead it to:
//
//	batch → base        the batch's x vectors against the retained y
//	base  → batch       the retained x against the batch's y vectors
//	batch → tail∪batch  the nodes appended since the last rebuild
//	tail  → batch
//
// The tail is re-sorted per event, so it is bounded: a steady event costs
// time linear in the tail and a rebuild time linear in the run, which balance
// at a tail of c·√base. Swept with 3-node batches at 12K and 100K nodes, c = 2
// was within noise of the cheapest amortized cost at both sizes and no
// constant bound was (CHANGES.md, PR 20).

// Standing is the retained evaluator of one safe query over one growing
// run. It references no run version: trie nodes copy their label entries and
// buckets hold node ids. Not safe for concurrent use.
type Standing struct {
	e *Env
	// d is owned, not pooled: it pins the envState the vectors below were
	// built under, and keeps its chain memo warm from event to event.
	d *Decoder

	// t is the trie of nodes [0, base), x and y its up and down vectors;
	// nil until the first event and after Reset.
	base int
	t    *reach.Trie
	x, y leafVecs
	ids  []derive.NodeID // the identity list, as far as any event reached
	// Rebuilds counts builds of the retained half, the first included; tests
	// is the last Delta's bucket-pair tests, for the work-bound test.
	Rebuilds, tests int
}

// NewStanding returns an evaluator with nothing retained yet; the query must
// be safe.
func (e *Env) NewStanding() (*Standing, error) {
	st := e.state.Load()
	if !st.safe {
		return nil, ErrUnsafe
	}
	return &Standing{e: e, d: e.newDecoder(st)}, nil
}

// Reset drops the retained half, so the next Delta rebuilds it: for an event
// that does not continue the run history the evaluator has seen.
func (s *Standing) Reset() { s.t = nil }

// Delta emits, each once and in no particular order, the matches among nodes
// [0, hi) of r that involve a batch node [lo, hi). Nodes below hi must carry
// the labels they carried in every earlier call since the last Reset — true
// of any two versions of one growing run.
func (s *Standing) Delta(r *derive.Run, lo, hi int, emit func(from, to int)) {
	s.tests = 0
	if lo == hi {
		return
	}
	if st := s.e.state.Load(); st != s.d.st {
		s.d, s.t = s.e.newDecoder(st), nil
	}
	for len(s.ids) < hi {
		s.ids = append(s.ids, derive.NodeID(len(s.ids)))
	}
	if tail := hi - s.base; s.t == nil || lo < s.base || tail*tail > 4*s.base {
		s.t = reach.NewTrie(r.LabelsOf(s.ids[:lo]))
		s.x, s.y = s.d.leafVectors(s.t, true), s.d.leafVectors(s.t, false)
		s.t.Labels, s.t.Perm = nil, nil // the walks read nodes and vectors only
		s.base = lo
		s.Rebuilds++
	}
	base := s.base
	walk := func(w *fusedWalk, fromBase, toBase int) {
		w.run(func(b block) { b.each(func(i, j int) { emit(fromBase+i, toBase+j) }) })
		s.tests += w.tests
	}
	// One sort serves the three small tries: Sub inherits the order, and
	// their indices all count from base.
	all := reach.NewTrie(r.LabelsOf(s.ids[base:hi]))
	inBatch := make([]bool, hi-base)
	for i := lo - base; i < len(inBatch); i++ {
		inBatch[i] = true
	}
	batch := all.Sub(inBatch)
	bx, by := s.d.leafVectors(batch, true), s.d.leafVectors(batch, false)
	walk(s.d.newWalk(batch, s.t, bx, s.y), base, 0)
	walk(s.d.newWalk(s.t, batch, s.x, by), 0, base)
	walk(s.d.newWalk(batch, all, bx, s.d.leafVectors(all, false)), base, base)
	if lo > base {
		for i := range inBatch {
			inBatch[i] = !inBatch[i]
		}
		tail := all.Sub(inBatch)
		walk(s.d.newWalk(tail, batch, s.d.leafVectors(tail, true), by), base, base)
	}
}
