package baseline

import (
	"provrpq/internal/automata"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/rel"
)

// G2 is the paper's Option G2 (Koschmieder & Leser [20]): decompose the
// query at a *rare* label — a symbol that every accepted word must contain
// and that matches few run edges — and search outward from its occurrences:
// a backward product-BFS finds the sources that can reach the occurrence in
// the right prefix state, a forward product-BFS finds the targets. Queries
// with no required label fall back to a full product search from every
// source, which is where the technique degrades.
type G2 struct {
	ix  *index.Index
	dfa *automata.DFA
	// rare is the chosen decomposition label; empty when the query has no
	// required symbol. occs is its occurrence list, fetched once at
	// construction (Index.Pairs copies defensively; Pairwise iterates the
	// list per call and must not pay a copy each time).
	rare string
	occs []index.Pair
}

// NewG2 compiles the query and picks the rarest required label.
func NewG2(ix *index.Index, q *automata.Node) *G2 {
	run := ix.Run()
	g := &G2{ix: ix, dfa: automata.CompileDFA(q, run.Spec.Tags())}
	g.rare = g.pickRareLabel(q)
	g.occs = ix.Pairs(g.rare)
	return g
}

// RareLabel returns the chosen decomposition label ("" when none exists).
func (g *G2) RareLabel() string { return g.rare }

// pickRareLabel returns the least-frequent symbol that every accepted word
// contains (DFA.Requires): removing all its transitions must disconnect the
// start from every accepting state.
func (g *G2) pickRareLabel(q *automata.Node) string {
	best := ""
	bestCount := -1
	for _, sym := range q.Symbols() {
		if !g.dfa.Requires(sym) {
			continue
		}
		c := g.ix.Count(sym)
		if bestCount < 0 || c < bestCount {
			best, bestCount = sym, c
		}
	}
	return best
}

// Eval returns the full result relation.
func (g *G2) Eval() *rel.Rel {
	run := g.ix.Run()
	out := rel.NewRel()
	if g.rare == "" {
		// No required label: one full search from every node.
		for _, u := range run.AllNodes() {
			for _, v := range g.forward(u, g.dfa.Start) {
				out.Add(u, v)
			}
		}
		return out
	}
	// For each rare-label occurrence x -rare-> y: walk backward from x
	// to find (u, q) with δ*(q, tags(u→x)) landing at x in state q, then
	// forward from (y, δ(q, rare)).
	for _, occ := range g.occs {
		back := g.backward(occ.From) // node -> set of start-states q that reach occ.From in state q... see below
		// back[u] = DFA states q such that some u→occ.From path maps the
		// start state to q.
		fwdCache := map[int][]derive.NodeID{}
		for u, qs := range back {
			for _, q := range qs {
				q2 := g.dfa.Step(q, g.rare)
				if q2 < 0 {
					continue
				}
				vs, ok := fwdCache[q2]
				if !ok {
					vs = g.forward(occ.To, q2)
					fwdCache[q2] = vs
				}
				for _, v := range vs {
					out.Add(u, v)
				}
			}
		}
	}
	return out
}

// Pairwise answers a single pair through the rare-label search.
func (g *G2) Pairwise(u, v derive.NodeID) bool {
	if g.rare == "" {
		return g.forwardHits(u, g.dfa.Start, v)
	}
	for _, occ := range g.occs {
		back := g.backwardFrom(u, occ.From)
		for _, q := range back {
			q2 := g.dfa.Step(q, g.rare)
			if q2 < 0 {
				continue
			}
			if g.forwardHits(occ.To, q2, v) {
				return true
			}
		}
	}
	return false
}

// backward returns, for every node u, the set { δ*(q0, tags(p)) : p a u→x
// path } — the DFA states a prefix ending at x can be in. It runs a reverse
// product-BFS over pairs (state at the current node, state at x): an edge
// (w, z, tag) extends a known pair (q', qx) at z to (q, qx) at w for every
// q with δ(q, tag) = q'; the answer keeps pairs whose node-state is the
// start state.
func (g *G2) backward(x derive.NodeID) map[derive.NodeID][]int {
	run := g.ix.Run()
	nq := g.dfa.NumStates()
	type pr struct{ qAtNode, qAtX int }
	seen := map[derive.NodeID]map[pr]bool{}
	var stack []struct {
		n derive.NodeID
		p pr
	}
	push := func(n derive.NodeID, p pr) {
		if seen[n] == nil {
			seen[n] = map[pr]bool{}
		}
		if !seen[n][p] {
			seen[n][p] = true
			stack = append(stack, struct {
				n derive.NodeID
				p pr
			}{n, p})
		}
	}
	for q := 0; q < nq; q++ {
		push(x, pr{q, q})
	}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range run.In(it.n) {
			e := run.Edges[ei]
			// Path e.From -tag-> it.n -...-> x: the state at e.From is any
			// q with δ(q, tag) == it.p.qAtNode.
			for q := 0; q < nq; q++ {
				if g.dfa.Step(q, e.Tag) == it.p.qAtNode {
					push(e.From, pr{q, it.p.qAtX})
				}
			}
		}
	}
	out := map[derive.NodeID][]int{}
	for n, ps := range seen {
		qs := map[int]bool{}
		for p := range ps {
			if p.qAtNode == g.dfa.Start {
				qs[p.qAtX] = true
			}
		}
		for q := range qs {
			out[n] = append(out[n], q)
		}
	}
	return out
}

// backwardFrom returns the arrival states at x of paths u→x that start in
// the DFA start state at u (one walk from u).
func (g *G2) backwardFrom(u, x derive.NodeID) []int {
	var out []int
	rel.Walk(g.ix.Run(), g.dfa, u, g.dfa.Start, false, func(n derive.NodeID, q int) bool {
		if n == x {
			out = append(out, q)
		}
		return true
	})
	return out
}

// forward returns all v such that some y→v path maps state q to an
// accepting state (v = y included when q accepts). A node reached in
// several accepting states is listed once per state; both callers are
// indifferent to repeats.
func (g *G2) forward(y derive.NodeID, q int) []derive.NodeID {
	var out []derive.NodeID
	rel.Walk(g.ix.Run(), g.dfa, y, q, false, func(n derive.NodeID, q2 int) bool {
		if g.dfa.Accept[q2] {
			out = append(out, n)
		}
		return true
	})
	return out
}

// forwardHits reports whether some y→target path maps q to an accepting
// state (target == y included when q accepts).
func (g *G2) forwardHits(y derive.NodeID, q int, target derive.NodeID) bool {
	for _, v := range g.forward(y, q) {
		if v == target {
			return true
		}
	}
	return false
}
