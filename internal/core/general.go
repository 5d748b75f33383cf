package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"provrpq/internal/automata"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/reach"
	"provrpq/internal/rel"
	"provrpq/internal/wf"
)

// GeneralStrategy selects how the general evaluator treats safe subtrees.
type GeneralStrategy int

const (
	// LargestSafeSubtree is the paper's approach (Section IV-B): walk the
	// parse tree top-down and evaluate every maximal safe subtree with
	// optRPL, the remainder with relational operators (Option G1).
	LargestSafeSubtree GeneralStrategy = iota
	// CostBased additionally estimates, per maximal safe subtree, whether
	// the label-based evaluation or the relational one is cheaper, using
	// index statistics (the paper's future-work item 1: a cost model to
	// predict intermediate result sizes).
	CostBased
	// RelationalOnly disables safe subtrees entirely (this is exactly
	// Option G1; exposed for ablations).
	RelationalOnly
)

// EnvSource supplies compiled query environments. It must be safe for
// concurrent use; internal/plancache implements it with a shared,
// singleflight-deduplicated LRU.
type EnvSource interface {
	Get(spec *wf.Spec, query *automata.Node) (*Env, error)
}

// GeneralOptions tune a General evaluator.
type GeneralOptions struct {
	// Envs, when non-nil, supplies compiled subquery environments (so
	// evaluators over different runs of one spec share plans). When nil the
	// evaluator compiles and caches privately.
	Envs EnvSource
	// Workers is ignored: every scan runs on its caller's goroutine. It is
	// kept only because the benchmark module still compiles against it
	// (ROADMAP item 1a deletes it).
	Workers int
}

// General evaluates arbitrary — in particular unsafe — regular path queries
// over one run by composing safe-subtree results with relational joins
// (Section IV-B), every subtree for the sources and targets its neighbours
// can use (eval): a decomposition costs its restricted inputs and outputs,
// not its largest safe subtree, and the trie of every node (Trie) is built
// once per General, that is, per run version, for the engine's full scans as
// well. A General is safe for concurrent use.
type General struct {
	run      *derive.Run
	ix       *index.Index
	strategy GeneralStrategy

	source EnvSource
	// envs fronts the source (or the private compiles when source is nil)
	// with a lock-free hit path; it also pins every plan the evaluator has
	// resolved against shared-cache eviction.
	envs sync.Map // query string -> *Env

	// all is the trie of every node and rank each node's place in its label
	// order, the things kept between evaluations: a run version's labels
	// never change (Section II-B), so each is built once, on first use, and
	// the trie of a smaller node set costs only that set.
	allOnce, rankOnce sync.Once
	all               *reach.Trie
	rank              []int32
}

// EvalReport describes how a query was decomposed.
type EvalReport struct {
	// SafeSubtrees lists the maximal safe subtrees evaluated with labels.
	SafeSubtrees []string
	// RelationalNodes counts parse-tree nodes evaluated relationally.
	RelationalNodes int
	// Safe reports whether the whole query was safe.
	Safe bool
	// Work is what evaluating the safe subtrees took; zero from Plan.
	Work Work
}

// NewGeneral builds a general evaluator over a run and its index with
// default options (private plan cache).
func NewGeneral(run *derive.Run, ix *index.Index, strategy GeneralStrategy) *General {
	return NewGeneralOpts(run, ix, strategy, GeneralOptions{})
}

// NewGeneralOpts builds a general evaluator with explicit options.
func NewGeneralOpts(run *derive.Run, ix *index.Index, strategy GeneralStrategy, opts GeneralOptions) *General {
	return &General{
		run:      run,
		ix:       ix,
		strategy: strategy,
		source:   opts.Envs,
	}
}

// Eval returns the full result relation of the query over the run, along
// with a decomposition report.
//
//provrpq:ctxroot
func (g *General) Eval(q *automata.Node) (*rel.Rel, *EvalReport, error) {
	return g.EvalContext(context.Background(), q, nil, nil)
}

// EvalContext is Eval for the sources from and the targets to — node ids in
// increasing order, nil for every node: the relation holds every pair of the
// result inside from × to and no pair outside the result, which it therefore
// is when both are nil. Once ctx is done it ends with ctx.Err(): at the next
// block of a safe subtree's walk or of a relational operator's rows. The
// report is Plan's, whatever order the evaluation took, with its Work.
func (g *General) EvalContext(ctx context.Context, q *automata.Node, from, to []int32) (*rel.Rel, *EvalReport, error) {
	rep, err := g.Plan(q)
	if err != nil {
		return nil, nil, err
	}
	rel, err := g.eval(ctx, automata.Simplify(q), rep, from, to)
	if err == nil {
		err = ctx.Err() // an operator that gave up left rel incomplete
	}
	if err != nil {
		return nil, nil, err
	}
	return rel, rep, nil
}

// Plan reports the decomposition Eval would use, without evaluating
// anything: which maximal safe subtrees would be answered with labels and
// how many parse-tree nodes remain relational.
func (g *General) Plan(q *automata.Node) (*EvalReport, error) {
	q = automata.Simplify(q)
	rep := &EvalReport{}
	env, err := g.envFor(q)
	if err != nil {
		return nil, err
	}
	rep.Safe = env.Safe()
	if err := g.plan(q, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

func (g *General) plan(q *automata.Node, rep *EvalReport) error {
	if g.strategy != RelationalOnly && q.Kind != automata.KindSym &&
		q.Kind != automata.KindWild && q.Kind != automata.KindEps {
		env, err := g.envFor(q)
		if err != nil {
			return err
		}
		if env.Safe() && (g.strategy != CostBased || g.safeCheaper(q)) {
			rep.SafeSubtrees = append(rep.SafeSubtrees, q.String())
			return nil
		}
	}
	rep.RelationalNodes++
	for _, c := range q.Children {
		if err := g.plan(c, rep); err != nil {
			return err
		}
	}
	return nil
}

func (g *General) envFor(q *automata.Node) (*Env, error) {
	key := q.String()
	if v, ok := g.envs.Load(key); ok {
		return v.(*Env), nil
	}
	var e *Env
	var err error
	if g.source != nil {
		e, err = g.source.Get(g.run.Spec, q)
	} else {
		e, err = Compile(g.run.Spec, q)
	}
	if err != nil {
		return nil, err
	}
	// A concurrent resolve of the same subquery may have won; keep the
	// first so every caller shares one Env.
	v, _ := g.envs.LoadOrStore(key, e)
	return v.(*Env), nil
}

// labelled returns the plan of a subtree the report lists as answered from
// labels, nil for a relational one: evaluation takes plan's verdicts.
func (g *General) labelled(q *automata.Node, rep *EvalReport) (*Env, error) {
	if !slices.Contains(rep.SafeSubtrees, q.String()) {
		return nil, nil
	}
	return g.envFor(q)
}

// eval returns a relation that holds every pair of ⟦q⟧ inside from × to and
// no pair outside ⟦q⟧ (sideways information passing: what a subtree's
// neighbours cannot use is not computed). A leaf filters its index rows, an
// alternation hands both sets to every branch, a closure runs from the sources
// only and needs its body whole, a concatenation hands each child what its
// neighbours produced, a safe subtree is walked over the two sets' labels.
func (g *General) eval(ctx context.Context, q *automata.Node, rep *EvalReport, from, to []int32) (*rel.Rel, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if (from != nil && len(from) == 0) || (to != nil && len(to) == 0) {
		return rel.NewRel(), nil
	}
	if env, err := g.labelled(q, rep); err != nil {
		return nil, err
	} else if env != nil {
		return g.safeEval(ctx, env, &rep.Work, from, to)
	}
	done := ctx.Done()
	switch q.Kind {
	case automata.KindSym, automata.KindWild, automata.KindEps:
		return rel.Leaf(g.ix, q).Restrict(from, to), nil
	case automata.KindConcat:
		return g.concat(ctx, q.Children, rep, from, to)
	case automata.KindAlt:
		out := rel.NewRel()
		for i, c := range q.Children {
			next, err := g.eval(ctx, c, rep, from, to)
			if err != nil {
				return nil, err
			}
			if i > 0 {
				next = out.UnionUntil(done, next)
			}
			out = next
		}
		return out, nil
	case automata.KindStar, automata.KindPlus, automata.KindOpt:
		f, t := from, to
		if q.Kind != automata.KindOpt {
			f, t = nil, nil
		}
		r, err := g.eval(ctx, q.Children[0], rep, f, t)
		if err != nil {
			return nil, err
		}
		if q.Kind != automata.KindOpt {
			r = r.ClosureFrom(done, from)
		}
		if q.Kind != automata.KindPlus {
			r = r.UnionUntil(done, rel.Identity(g.run).Restrict(from, to))
		}
		return r, nil
	}
	return nil, fmt.Errorf("core: unknown query node kind %d", q.Kind)
}

// concat evaluates a concatenation (of two children or more, simplified): its
// relational children first, smallest estimate leading, then its safe subtrees,
// each for the sources its left neighbour's relation reaches — from, for the
// first — and the targets its right neighbour's starts at, where those are
// evaluated by then. The joins take the cheapest adjacent pair first.
func (g *General) concat(ctx context.Context, cs []*automata.Node, rep *EvalReport, from, to []int32) (*rel.Rel, error) {
	order, size := make([]int, len(cs)), make([]float64, len(cs))
	for i, c := range cs {
		env, err := g.labelled(c, rep)
		if err != nil {
			return nil, err
		}
		if order[i], size[i] = i, math.Inf(1); env == nil {
			size[i], _ = g.relEstimate(c)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(size[a], size[b]) })
	rels := make([]*rel.Rel, len(cs))
	for _, i := range order {
		f, t := from, to
		if i > 0 {
			if f = nil; rels[i-1] != nil {
				f = rels[i-1].Targets()
			}
		}
		if i+1 < len(cs) {
			if t = nil; rels[i+1] != nil {
				t = rels[i+1].Sources()
			}
		}
		var err error
		if rels[i], err = g.eval(ctx, cs[i], rep, f, t); err != nil {
			return nil, err
		}
	}
	for len(rels) > 1 {
		at, best := 0, math.Inf(1)
		for i := 0; i+1 < len(rels); i++ {
			if c := float64(rels[i].Len()) * float64(rels[i+1].Len()); c < best {
				at, best = i, c
			}
		}
		rels[at] = rels[at].JoinUntil(ctx.Done(), rels[at+1])
		rels = slices.Delete(rels, at+1, at+2)
	}
	return rels[0], nil
}

// whole reports whether a node set is every node, as nil is, or over half of
// them: not worth telling apart from all when it comes to labels.
func (g *General) whole(set []int32) bool { return set == nil || 2*len(set) > g.run.NumNodes() }

// Trie returns the trie of every node of the run, its Perm holding node ids,
// built on first use and shared by every scan that covers most of the run:
// the decomposition's safe subtrees, OptRPL full scans and seeded full
// evaluates. Read-only; it holds no Labels. Its decode is a cost of the run
// version, not of the call that happens to build it, so no Work counts it.
func (g *General) Trie() *reach.Trie {
	g.allOnce.Do(func() {
		g.all = reach.NewTrie(g.run.MaterializeLabels())
		g.all.Labels = nil // the walks read nodes and Perm only
	})
	return g.all
}

// trie returns the tree representation of a node set's labels; a list index
// is a node id. A whole set gets the shared trie of every node, a smaller one
// decodes its own labels, put in label order by their ranks, into work.
func (g *General) trie(set []int32, work *Work) *reach.Trie {
	if g.whole(set) {
		return g.Trie()
	}
	g.rankOnce.Do(func() {
		g.rank = make([]int32, len(g.Trie().Perm))
		for i, u := range g.all.Perm {
			g.rank[u] = int32(i)
		}
	})
	perm := slices.Clone(set)
	slices.SortFunc(perm, func(a, b int32) int { return cmp.Compare(g.rank[a], g.rank[b]) })
	ids := make([]derive.NodeID, len(perm))
	for i, u := range perm {
		ids[i] = derive.NodeID(u)
	}
	work.Labels += len(ids)
	return reach.NewTrieOf(g.run.LabelsOf(ids), perm)
}

// safeEval computes a safe subquery's pairs inside from × to with the optRPL
// walk over the two sets' labels, adding what that took into work; the
// relation takes over its rows (rows.go).
func (g *General) safeEval(ctx context.Context, env *Env, work *Work, from, to []int32) (*rel.Rel, error) {
	n := g.run.NumNodes()
	r, err := env.RowsSafeTries(ctx, g.trie(from, work), g.trie(to, work), n, 0, -1)
	if err != nil {
		return nil, err
	}
	work.add(r.Work)
	rows := make([][]int32, n)
	for u := range rows {
		rows[u] = r.row(u)
	}
	out := rel.NewRel()
	out.AddRows(rows)
	return out, nil
}

// safeCheaper is the cost model (future work 1): label-based evaluation
// costs about one coarse filter plus a decode per reachable pair, bounded by
// n²; the relational evaluation costs roughly the sum of its intermediate
// result sizes, estimated from index statistics.
func (g *General) safeCheaper(q *automata.Node) bool {
	n := g.run.NumNodes()
	safeCost := float64(n) * float64(n) / 4 // coarse filter prunes; decodes dominate
	_, relCost := g.relEstimate(q)
	return relCost >= safeCost
}

// relEstimate returns the estimated result size of a subtree and the cost of
// its relational evaluation: the sum of estimated intermediate sizes, where
// closures multiply by an iteration factor.
func (g *General) relEstimate(q *automata.Node) (size, cost float64) {
	n := float64(g.run.NumNodes())
	switch q.Kind {
	case automata.KindSym:
		s := float64(g.ix.Count(q.Sym))
		return s, s
	case automata.KindWild:
		s := float64(g.run.NumEdges())
		return s, s
	case automata.KindEps:
		return n, n
	case automata.KindConcat:
		size, cost = 1, 0
		first := true
		for _, c := range q.Children {
			cs, cc := g.relEstimate(c)
			cost += cc
			if first {
				size = cs
				first = false
				continue
			}
			// Join selectivity: assume uniform endpoints.
			size = size * cs / max(n, 1)
			cost += size
		}
		return size, cost
	case automata.KindAlt:
		for _, c := range q.Children {
			cs, cc := g.relEstimate(c)
			size += cs
			cost += cc
		}
		return size, cost
	case automata.KindStar, automata.KindPlus:
		cs, cc := g.relEstimate(q.Children[0])
		// Semi-naive closure: ~ depth iterations of delta joins; the result
		// can approach n² for dense chains.
		est := min(cs*cs, n*n)
		return est, cc + est*4
	case automata.KindOpt:
		cs, cc := g.relEstimate(q.Children[0])
		return cs + n, cc + n
	}
	return 0, 0
}
