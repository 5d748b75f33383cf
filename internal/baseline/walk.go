package baseline

import (
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
	seen := make([]bool, run.NumNodes()*nq)
	seen[int(from)*nq+q] = true
	type item struct {
		n derive.NodeID
		q int
	}
	stack := []item{{from, q}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
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
			if q2 < 0 || q2 == dead || seen[int(next)*nq+q2] {
				continue
			}
			seen[int(next)*nq+q2] = true
			if !visit(next, q2) {
				return
			}
			stack = append(stack, item{next, q2})
		}
	}
}
