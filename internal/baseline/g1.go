package baseline

import (
	"provrpq/internal/automata"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/rel"
)

// G1 is the paper's Option G1 (Li & Moon [21]): represent the query as a
// parse tree and evaluate bottom-up over the run with relational joins —
// leaf relations come from the inverted edge-tag index, concatenation is a
// join, alternation a union and Kleene star a semi-naive fixpoint. The
// intermediate results this materializes are exactly what the safe-query
// technique avoids.
type G1 struct {
	ix *index.Index
	// naive switches Kleene closures to the naive self-join fixpoint the
	// paper ascribes to the baseline (NewG1Naive); the default semi-naive
	// closure is what our own remainder evaluation uses.
	naive bool
}

// NewG1 wraps an inverted index (semi-naive closures).
func NewG1(ix *index.Index) *G1 { return &G1{ix: ix} }

// NewG1Naive wraps an inverted index with naive self-join closures — the
// paper-faithful baseline for the Kleene-star experiments (Fig. 13g/h).
func NewG1Naive(ix *index.Index) *G1 { return &G1{ix: ix, naive: true} }

func (g *G1) closure(r *rel.Rel) *rel.Rel {
	if g.naive {
		return r.ClosureNaive()
	}
	return r.Closure()
}

// Eval returns the full result relation of the query over the indexed run.
func (g *G1) Eval(q *automata.Node) *rel.Rel {
	return g.eval(q)
}

// AllPairs evaluates the query and filters the result to l1 × l2.
func (g *G1) AllPairs(q *automata.Node, l1, l2 []derive.NodeID, emit func(i, j int)) {
	rel.AllPairsIn(g.eval(q), l1, l2, emit)
}

func (g *G1) eval(q *automata.Node) *rel.Rel {
	switch q.Kind {
	case automata.KindSym, automata.KindWild, automata.KindEps:
		return rel.Leaf(g.ix, q)
	case automata.KindConcat:
		if len(q.Children) == 0 {
			return rel.Identity(g.ix.Run())
		}
		r := g.eval(q.Children[0])
		for _, c := range q.Children[1:] {
			r = r.Join(g.eval(c))
		}
		return r
	case automata.KindAlt:
		if len(q.Children) == 0 {
			return rel.NewRel()
		}
		r := g.eval(q.Children[0])
		for _, c := range q.Children[1:] {
			r = r.Union(g.eval(c))
		}
		return r
	case automata.KindStar:
		return g.closure(g.eval(q.Children[0])).Union(rel.Identity(g.ix.Run()))
	case automata.KindPlus:
		return g.closure(g.eval(q.Children[0]))
	case automata.KindOpt:
		return g.eval(q.Children[0]).Union(rel.Identity(g.ix.Run()))
	}
	panic("baseline: unknown query node kind")
}
