package baseline

import (
	"provrpq/internal/automata"
	"provrpq/internal/derive"
	"provrpq/internal/index"
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

func (g *G1) closure(r *Rel) *Rel {
	if g.naive {
		return r.ClosureNaive()
	}
	return r.Closure()
}

// Eval returns the full result relation of the query over the indexed run.
func (g *G1) Eval(q *automata.Node) *Rel {
	return g.eval(q)
}

// AllPairs evaluates the query and filters the result to l1 × l2.
func (g *G1) AllPairs(q *automata.Node, l1, l2 []derive.NodeID, emit func(i, j int)) {
	AllPairsIn(g.eval(q), l1, l2, emit)
}

func (g *G1) eval(q *automata.Node) *Rel {
	switch q.Kind {
	case automata.KindSym:
		out := NewRel()
		g.ix.EachPair(q.Sym, func(p index.Pair) {
			out.Add(p.From, p.To)
		})
		return out
	case automata.KindWild:
		// One row per node, straight from its out-edges.
		run := g.ix.Run()
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
		return IdentityRel(g.ix.Run())
	case automata.KindConcat:
		if len(q.Children) == 0 {
			return IdentityRel(g.ix.Run())
		}
		rel := g.eval(q.Children[0])
		for _, c := range q.Children[1:] {
			rel = rel.Join(g.eval(c))
		}
		return rel
	case automata.KindAlt:
		if len(q.Children) == 0 {
			return NewRel()
		}
		rel := g.eval(q.Children[0])
		for _, c := range q.Children[1:] {
			rel = rel.Union(g.eval(c))
		}
		return rel
	case automata.KindStar:
		return g.closure(g.eval(q.Children[0])).Union(IdentityRel(g.ix.Run()))
	case automata.KindPlus:
		return g.closure(g.eval(q.Children[0]))
	case automata.KindOpt:
		return g.eval(q.Children[0]).Union(IdentityRel(g.ix.Run()))
	}
	panic("baseline: unknown query node kind")
}
