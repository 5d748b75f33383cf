// Package baseline implements the comparison systems of Section IV-B /
// Section V plus a ground-truth oracle:
//
//	Oracle — the "simple algorithm" of Section III-B: a BFS over the
//	         product of the run with the query DFA. Linear in run size per
//	         source node; used as ground truth by the test suites and as
//	         the worst-case comparator.
//	G1     — bottom-up evaluation of the query parse tree with relational
//	         joins (Li & Moon [21]).
//	G2     — rare-label query decomposition with bidirectional search
//	         (Koschmieder & Leser [20]).
//	G3     — inverted index + reachability labels for infrequent-symbol
//	         queries R = _*a1_*…ak_* ([3]).
//
// Walk (walk.go) is the one traversal of run × DFA shared by everything but
// the Oracle: G2, the planner's seeded verification of unsafe queries, and
// the engine's unsafe pairwise check.
package baseline

import (
	"provrpq/internal/automata"
	"provrpq/internal/derive"
)

// Oracle answers regular path queries by explicit product-graph traversal
// of a materialized run. It is exact for every query (safe or not).
type Oracle struct {
	run *derive.Run
	dfa *automata.DFA
}

// NewOracle compiles the query against the run's specification alphabet.
func NewOracle(run *derive.Run, query *automata.Node) *Oracle {
	return &Oracle{run: run, dfa: automata.CompileDFA(query, run.Spec.Tags())}
}

// Pairwise reports whether some u→v path spells a word of the query
// language. The empty path answers u == v when ε ∈ L(R).
func (o *Oracle) Pairwise(u, v derive.NodeID) bool {
	target := o.statesAt(u)
	for _, q := range target[v] {
		if o.dfa.Accept[q] {
			return true
		}
	}
	return false
}

// From returns all nodes v with u —R→ v.
func (o *Oracle) From(u derive.NodeID) []derive.NodeID {
	states := o.statesAt(u)
	var out []derive.NodeID
	for v, qs := range states {
		for _, q := range qs {
			if o.dfa.Accept[q] {
				out = append(out, derive.NodeID(v))
				break
			}
		}
	}
	return out
}

// AllPairs emits every matching pair of l1 × l2.
func (o *Oracle) AllPairs(l1, l2 []derive.NodeID, emit func(i, j int)) {
	inL2 := map[derive.NodeID][]int{}
	for j, v := range l2 {
		inL2[v] = append(inL2[v], j)
	}
	for i, u := range l1 {
		states := o.statesAt(u)
		for v, qs := range states {
			accepts := false
			for _, q := range qs {
				if o.dfa.Accept[q] {
					accepts = true
					break
				}
			}
			if !accepts {
				continue
			}
			for _, j := range inL2[derive.NodeID(v)] {
				emit(i, j)
			}
		}
	}
}

// statesAt runs the product BFS from (u, start) and returns, per node, the
// DFA states reachable when arriving at that node. The state at u itself
// includes the start state (the empty path).
func (o *Oracle) statesAt(u derive.NodeID) [][]int {
	n := o.run.NumNodes()
	nq := o.dfa.NumStates()
	seen := make([]bool, n*nq)
	states := make([][]int, n)
	type item struct {
		node derive.NodeID
		q    int
	}
	stack := []item{{u, o.dfa.Start}}
	seen[int(u)*nq+o.dfa.Start] = true
	states[u] = append(states[u], o.dfa.Start)
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range o.run.Out(it.node) {
			e := o.run.Edges[ei]
			q2 := o.dfa.Step(it.q, e.Tag)
			if q2 < 0 || seen[int(e.To)*nq+q2] {
				continue
			}
			seen[int(e.To)*nq+q2] = true
			states[e.To] = append(states[e.To], q2)
			stack = append(stack, item{e.To, q2})
		}
	}
	return states
}
