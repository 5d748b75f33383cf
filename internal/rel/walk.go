package rel

import (
	"sync"

	"provrpq/internal/automata"
	"provrpq/internal/derive"
)

// Walk is the product traversal of run × dfa from (from, q) — the paper's
// Section III-B "simple algorithm", written once for everything outside the
// Oracle that searches the run: G2's per-occurrence searches, the seeded
// strategy's unsafe verification and Engine.Pairwise on an unsafe query.
// (The Oracle keeps its own loop: the reference must not share code with
// what it checks.)
//
// visit receives each reached (node, state) exactly once, the start
// included, and ends the walk by returning false. The DFA's completion sink
// is neither reported nor expanded — no path through it can match. backward
// follows incoming edges: over the DFA of the reversed query it reaches, in
// accepting states, exactly the sources the query reaches `from` from.
func Walk(run *derive.Run, dfa *automata.DFA, from derive.NodeID, q int, backward bool, visit func(derive.NodeID, int) bool) {
	dead := dfa.DeadState()
	if q == dead || !visit(from, q) {
		return
	}
	nq := dfa.NumStates()
	w := walkPool.Get().(*walkScratch)
	defer walkPool.Put(w)
	if w.epoch++; len(w.seen) < run.NumNodes()*nq || w.epoch == 0 {
		w.seen, w.epoch = make([]uint32, run.NumNodes()*nq), 1
	}
	w.seen[int(from)*nq+q] = w.epoch
	w.stack = append(w.stack[:0], walkItem{from, q})
	for len(w.stack) > 0 {
		it := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		edges := run.Out(it.n)
		if backward {
			edges = run.In(it.n)
		}
		for _, ei := range edges {
			e := run.Edges[ei]
			next := e.To
			if backward {
				next = e.From
			}
			q2 := dfa.Step(it.q, e.Tag)
			if q2 < 0 || q2 == dead || w.seen[int(next)*nq+q2] == w.epoch {
				continue
			}
			w.seen[int(next)*nq+q2] = w.epoch
			if !visit(next, q2) {
				return
			}
			w.stack = append(w.stack, walkItem{next, q2})
		}
	}
}

type walkItem struct {
	n derive.NodeID
	q int
}

// walkScratch is one walk's visited set and stack, pooled across calls: a
// (node, state) slot of seen is visited in the current walk iff it holds the
// walk's epoch, so a call clears nothing and costs what it visits, not nodes ×
// states. A walk started from inside visit draws its own scratch.
type walkScratch struct {
	seen  []uint32
	epoch uint32
	stack []walkItem
}

var walkPool = sync.Pool{New: func() any { return new(walkScratch) }}
