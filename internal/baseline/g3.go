package baseline

import (
	"provrpq/internal/automata"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/label"
	"provrpq/internal/reach"
)

// IFQSymbols recognizes the paper's infrequent-symbol query shape
// R = _* a1 _* a2 ... _* ak _* and returns [a1..ak]. The k = 0 case (plain
// reachability _*) returns an empty, non-nil slice. Any other shape returns
// ok == false.
func IFQSymbols(q *automata.Node) (syms []string, ok bool) {
	q = automata.Simplify(q)
	wildStar := func(n *automata.Node) bool {
		return n.Kind == automata.KindStar && n.Children[0].Kind == automata.KindWild
	}
	if wildStar(q) {
		return []string{}, true
	}
	if q.Kind != automata.KindConcat {
		return nil, false
	}
	cs := q.Children
	if len(cs) < 3 || len(cs)%2 == 0 {
		return nil, false
	}
	for i, c := range cs {
		if i%2 == 0 {
			if !wildStar(c) {
				return nil, false
			}
			continue
		}
		if c.Kind != automata.KindSym {
			return nil, false
		}
		syms = append(syms, c.Sym)
	}
	return syms, true
}

// G3 is the paper's Option G3 ([3]): evaluate IFQs by fetching the
// occurrence lists of each ai from the inverted index and connecting
// consecutive occurrences — and the query endpoints — with constant-time
// reachability-label tests. It only applies to the IFQ shape.
type G3 struct {
	ix   *index.Index
	syms []string
	// occs caches each symbol's occurrence list at construction
	// (Index.Pairs copies defensively; the per-pair Pairwise loops must
	// not pay a copy per call).
	occs [][]index.Pair
}

// NewG3 returns the evaluator, or ok == false when the query is not an IFQ.
func NewG3(ix *index.Index, q *automata.Node) (*G3, bool) {
	syms, ok := IFQSymbols(q)
	if !ok {
		return nil, false
	}
	g := &G3{ix: ix, syms: syms}
	for _, sym := range syms {
		g.occs = append(g.occs, ix.Pairs(sym))
	}
	return g, true
}

// Pairwise answers u —R→ v: a chain of occurrences x1 -a1-> y1 ⇝ x2 -a2->
// y2 ⇝ ... with u ⇝ x1 and yk ⇝ v, all reachability via labels.
func (g *G3) Pairwise(u, v derive.NodeID) bool {
	run := g.ix.Run()
	spec := run.Spec
	if len(g.syms) == 0 {
		return reach.Pairwise(spec, run.Label(u), run.Label(v))
	}
	// frontier: the occurrence heads reachable so far.
	frontier := []derive.NodeID{u}
	for si := range g.syms {
		var next []derive.NodeID
		seen := map[derive.NodeID]bool{}
		for _, occ := range g.occs[si] {
			if seen[occ.To] {
				continue
			}
			for _, f := range frontier {
				if reach.Pairwise(spec, run.Label(f), run.Label(occ.From)) {
					seen[occ.To] = true
					next = append(next, occ.To)
					break
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		frontier = next
	}
	for _, f := range frontier {
		if reach.Pairwise(spec, run.Label(f), run.Label(v)) {
			return true
		}
	}
	return false
}

// AllPairs evaluates the IFQ over l1 × l2. The occurrence chain is
// materialized once (pairs of first-occurrence sources and last-occurrence
// targets), then joined to the endpoint lists with the output-linear
// all-pairs reachability of Section IV-A.
func (g *G3) AllPairs(l1, l2 []derive.NodeID, emit func(i, j int)) {
	run := g.ix.Run()
	spec := run.Spec
	labelsOf := func(ids []derive.NodeID) []label.Label {
		ls := make([]label.Label, len(ids))
		for i, id := range ids {
			ls[i] = run.Label(id)
		}
		return ls
	}
	if len(g.syms) == 0 {
		reach.AllPairs(spec, labelsOf(l1), labelsOf(l2), 1, emit)
		return
	}

	// starts: distinct first-occurrence sources; chainEnds[s]: last-symbol
	// occurrence heads reachable from start s through the occurrence chain.
	first := g.occs[0]
	type chain struct {
		start derive.NodeID
		ends  map[derive.NodeID]bool
	}
	var chains []chain
	for _, occ := range first {
		c := chain{start: occ.From, ends: map[derive.NodeID]bool{occ.To: true}}
		chains = append(chains, c)
	}
	// Fold the middle symbols: for every chain, advance its end set.
	for si := range g.syms[1:] {
		occs := g.occs[1+si]
		for ci := range chains {
			next := map[derive.NodeID]bool{}
			for end := range chains[ci].ends {
				for _, occ := range occs {
					if next[occ.To] {
						continue
					}
					if reach.Pairwise(spec, run.Label(end), run.Label(occ.From)) {
						next[occ.To] = true
					}
				}
			}
			chains[ci].ends = next
		}
	}

	// Join with the endpoint lists: for each u, union the end sets of the
	// chains whose start u reaches, then match v against that union.
	for i, u := range l1 {
		ends := map[derive.NodeID]bool{}
		for _, c := range chains {
			if len(c.ends) == 0 {
				continue
			}
			if reach.Pairwise(spec, run.Label(u), run.Label(c.start)) {
				for e := range c.ends {
					ends[e] = true
				}
			}
		}
		if len(ends) == 0 {
			continue
		}
		for j, v := range l2 {
			for end := range ends {
				if reach.Pairwise(spec, run.Label(end), run.Label(v)) {
					emit(i, j)
					break
				}
			}
		}
	}
}
