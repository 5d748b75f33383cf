package wf

import "fmt"

// PGEdge is an edge of the production graph P(G): production Prod of module
// From has module To at body position Pos. The pair (Prod, Pos) is the
// paper's (k,i) label on P(G) edges (Section II-B).
type PGEdge struct {
	From ModuleID
	To   ModuleID
	Prod int // production index k
	Pos  int // body node index i within production k
}

// Cycle is one vertex-disjoint cycle of P(G). Modules lists the cycle's
// composite modules in cycle order (Modules[i]'s recursive production
// contains Modules[(i+1)%len]); Edges[i] is the P(G) edge out of Modules[i].
type Cycle struct {
	ID      int
	Modules []ModuleID
	Edges   []PGEdge
}

// Len returns the number of modules on the cycle.
func (c *Cycle) Len() int { return len(c.Modules) }

// ModuleAt returns the module at cycle position p (mod Len).
func (c *Cycle) ModuleAt(p int) ModuleID {
	n := len(c.Modules)
	return c.Modules[((p%n)+n)%n]
}

// ProdGraph is the production graph P(G) (Definition 5): one vertex per
// module, one edge per (production, body position) pair.
type ProdGraph struct {
	spec   *Spec
	Edges  []PGEdge
	out    [][]int // module -> indices into Edges
	Cycles []*Cycle
	spot   []cycleSpot // per module
}

// cycleSpot places a module on its cycle: the cycle id (-1 when the module is
// on none), its position there, and the P(G) edge out of it along the cycle —
// its recursive production and the cycle successor's body position in it.
type cycleSpot struct{ cycle, pos, prod, succPos int }

func buildProdGraph(s *Spec) *ProdGraph {
	pg := &ProdGraph{spec: s, out: make([][]int, len(s.Modules))}
	for k, p := range s.Prods {
		for i, m := range p.Body.Nodes {
			e := PGEdge{From: p.LHS, To: m, Prod: k, Pos: i}
			pg.out[p.LHS] = append(pg.out[p.LHS], len(pg.Edges))
			pg.Edges = append(pg.Edges, e)
		}
	}
	return pg
}

// checkStrictLinear verifies all cycles of P(G) are vertex-disjoint
// (Definition 6) and records them. The check is equivalent to: every
// non-trivial strongly connected component of P(G) is a simple directed
// cycle (each member has exactly one outgoing and one incoming edge to
// other members, counting parallel edges), and no vertex has more than one
// self-loop. If an SCC had a vertex with two distinct out-edges inside the
// SCC, two distinct cycles would share that vertex.
func (pg *ProdGraph) checkStrictLinear() error {
	s := pg.spec
	n := len(s.Modules)
	comp := pg.sccs()

	// Group vertices by component.
	members := map[int][]ModuleID{}
	for v := 0; v < n; v++ {
		members[comp[v]] = append(members[comp[v]], ModuleID(v))
	}

	pg.spot = make([]cycleSpot, n)
	for i := range pg.spot {
		pg.spot[i] = cycleSpot{-1, -1, -1, -1}
	}

	// Deterministic order: by smallest member module id.
	order := make([]int, 0, len(members))
	for c := range members {
		order = append(order, c)
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if members[order[j]][0] < members[order[i]][0] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}

	for _, c := range order {
		ms := members[c]
		inComp := map[ModuleID]bool{}
		for _, m := range ms {
			inComp[m] = true
		}
		// Count internal edges per vertex.
		var internal []PGEdge
		outCount := map[ModuleID]int{}
		inCount := map[ModuleID]int{}
		for _, ei := range edgesFrom(pg, ms) {
			e := pg.Edges[ei]
			if inComp[e.To] {
				internal = append(internal, e)
				outCount[e.From]++
				inCount[e.To]++
			}
		}
		if len(internal) == 0 {
			continue // trivial component, no cycle
		}
		for _, m := range ms {
			if outCount[m] != 1 || inCount[m] != 1 {
				return fmt.Errorf("wf: not strictly linear-recursive: module %q lies on more than one cycle of P(G)", s.Name(m))
			}
		}
		// Walk the unique cycle starting from the smallest module id.
		succ := map[ModuleID]PGEdge{}
		for _, e := range internal {
			succ[e.From] = e
		}
		start := ms[0]
		cy := &Cycle{ID: len(pg.Cycles)}
		for at := start; ; {
			cy.Modules = append(cy.Modules, at)
			e := succ[at]
			cy.Edges = append(cy.Edges, e)
			at = e.To
			if at == start {
				break
			}
		}
		if len(cy.Modules) != len(ms) {
			return fmt.Errorf("wf: not strictly linear-recursive: component of %q is not a simple cycle", s.Name(start))
		}
		for p, m := range cy.Modules {
			pg.spot[m] = cycleSpot{cy.ID, p, cy.Edges[p].Prod, cy.Edges[p].Pos}
		}
		pg.Cycles = append(pg.Cycles, cy)
	}
	return nil
}

func edgesFrom(pg *ProdGraph, ms []ModuleID) []int {
	var out []int
	for _, m := range ms {
		out = append(out, pg.out[m]...)
	}
	return out
}

// sccs computes strongly connected components with Tarjan's algorithm,
// returning the component id per module. Iterative to avoid deep stacks on
// large synthetic grammars.
func (pg *ProdGraph) sccs() []int {
	n := len(pg.spec.Modules)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	var stack []int
	next := 0
	ncomp := 0

	type frame struct {
		v  int
		ei int
	}
	for root := 0; root < n; root++ {
		if index[root] >= 0 {
			continue
		}
		frames := []frame{{v: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ei < len(pg.out[v]) {
				e := pg.Edges[pg.out[v][f.ei]]
				f.ei++
				w := int(e.To)
				if index[w] < 0 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp
}
