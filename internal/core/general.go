package core

import (
	"context"
	"fmt"
	"sync"

	"provrpq/internal/automata"
	"provrpq/internal/baseline"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/label"
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
	// Workers bounds the worker pool of safe-subtree all-pairs scans:
	// 0 means one worker per CPU, 1 forces serial scans.
	Workers int
}

// General evaluates arbitrary — in particular unsafe — regular path queries
// over one run by composing safe-subtree results with relational joins.
// A General is safe for concurrent use.
type General struct {
	run      *derive.Run
	ix       *index.Index
	g1       *baseline.G1
	strategy GeneralStrategy
	workers  int

	source EnvSource
	// envs fronts the source (or the private compiles when source is nil)
	// with a lock-free hit path; it also pins every plan the evaluator has
	// resolved against shared-cache eviction.
	envs sync.Map // query string -> *Env

	labels []label.Label // per node id
	ids    []derive.NodeID
}

// EvalReport describes how a query was decomposed.
type EvalReport struct {
	// SafeSubtrees lists the maximal safe subtrees evaluated with labels.
	SafeSubtrees []string
	// RelationalNodes counts parse-tree nodes evaluated relationally.
	RelationalNodes int
	// Safe reports whether the whole query was safe.
	Safe bool
}

// NewGeneral builds a general evaluator over a run and its index with
// default options (private plan cache, serial scans).
func NewGeneral(run *derive.Run, ix *index.Index, strategy GeneralStrategy) *General {
	return NewGeneralOpts(run, ix, strategy, GeneralOptions{Workers: 1})
}

// NewGeneralOpts builds a general evaluator with explicit options.
func NewGeneralOpts(run *derive.Run, ix *index.Index, strategy GeneralStrategy, opts GeneralOptions) *General {
	g := &General{
		run:      run,
		ix:       ix,
		g1:       baseline.NewG1(ix),
		strategy: strategy,
		workers:  opts.Workers,
		source:   opts.Envs,
		labels:   run.MaterializeLabels(),
		ids:      run.AllNodes(),
	}
	return g
}

// Eval returns the full result relation of the query over the run, along
// with a decomposition report.
//
//provrpq:ctxroot
func (g *General) Eval(q *automata.Node) (*baseline.Rel, *EvalReport, error) {
	return g.EvalContext(context.Background(), q)
}

// EvalContext is Eval ended with ctx.Err() once ctx is done: at the next
// block of a safe subtree's walk, or the next relational operator.
func (g *General) EvalContext(ctx context.Context, q *automata.Node) (*baseline.Rel, *EvalReport, error) {
	q = automata.Simplify(q)
	rep := &EvalReport{}
	env, err := g.envFor(q)
	if err != nil {
		return nil, nil, err
	}
	rep.Safe = env.Safe()
	rel, err := g.eval(ctx, q, rep)
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

func (g *General) eval(ctx context.Context, q *automata.Node, rep *EvalReport) (*baseline.Rel, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if g.strategy != RelationalOnly && q.Kind != automata.KindSym &&
		q.Kind != automata.KindWild && q.Kind != automata.KindEps {
		env, err := g.envFor(q)
		if err != nil {
			return nil, err
		}
		if env.Safe() && (g.strategy != CostBased || g.safeCheaper(q)) {
			rep.SafeSubtrees = append(rep.SafeSubtrees, q.String())
			return g.safeEval(ctx, env)
		}
	}
	rep.RelationalNodes++
	switch q.Kind {
	case automata.KindSym, automata.KindWild, automata.KindEps:
		return g.g1.Eval(q), nil
	case automata.KindConcat:
		if len(q.Children) == 0 {
			return g.g1.Eval(automata.Eps()), nil
		}
		rel, err := g.eval(ctx, q.Children[0], rep)
		if err != nil {
			return nil, err
		}
		for _, c := range q.Children[1:] {
			next, err := g.eval(ctx, c, rep)
			if err != nil {
				return nil, err
			}
			rel = rel.Join(next)
		}
		return rel, nil
	case automata.KindAlt:
		if len(q.Children) == 0 {
			return baseline.NewRel(), nil
		}
		rel, err := g.eval(ctx, q.Children[0], rep)
		if err != nil {
			return nil, err
		}
		for _, c := range q.Children[1:] {
			next, err := g.eval(ctx, c, rep)
			if err != nil {
				return nil, err
			}
			rel = rel.Union(next)
		}
		return rel, nil
	case automata.KindStar:
		r, err := g.eval(ctx, q.Children[0], rep)
		if err != nil {
			return nil, err
		}
		return r.Closure().Union(baseline.IdentityRel(g.run)), nil
	case automata.KindPlus:
		r, err := g.eval(ctx, q.Children[0], rep)
		if err != nil {
			return nil, err
		}
		return r.Closure(), nil
	case automata.KindOpt:
		r, err := g.eval(ctx, q.Children[0], rep)
		if err != nil {
			return nil, err
		}
		return r.Union(baseline.IdentityRel(g.run)), nil
	}
	return nil, fmt.Errorf("core: unknown query node kind %d", q.Kind)
}

// safeEval computes the subquery's relation over all node pairs with the
// optRPL walk, sharded across the evaluator's worker pool into one set of rows
// (rows.go), which the relation then takes over and orders.
func (g *General) safeEval(ctx context.Context, env *Env) (*baseline.Rel, error) {
	s, err := env.newOptScan(g.labels, g.labels, g.workers)
	if err != nil {
		return nil, err
	}
	r, err := s.rows(ctx, 0, -1)
	if err != nil {
		return nil, err
	}
	// A label's list index is its node id, on both sides.
	rows := make([][]int32, len(g.labels))
	for u := range rows {
		rows[u] = r.row(u)
	}
	out := baseline.NewRel()
	out.AddRows(rows)
	return out, nil
}

// safeCheaper is the cost model (future work 1): label-based evaluation
// costs about one coarse filter plus a decode per reachable pair, bounded by
// n²; the relational evaluation costs roughly the sum of its intermediate
// result sizes, estimated from index statistics.
func (g *General) safeCheaper(q *automata.Node) bool {
	n := len(g.ids)
	safeCost := float64(n) * float64(n) / 4 // coarse filter prunes; decodes dominate
	return g.relCost(q) >= safeCost
}

// relCost estimates the relational evaluation cost of a subtree as the sum
// of estimated intermediate sizes; closures multiply by an iteration factor.
func (g *General) relCost(q *automata.Node) float64 {
	n := float64(len(g.ids))
	if n == 0 {
		return 0
	}
	size, cost := g.relEstimate(q)
	_ = size
	return cost
}

// relEstimate returns (estimated result size, estimated total cost).
func (g *General) relEstimate(q *automata.Node) (size, cost float64) {
	n := float64(len(g.ids))
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
			size = size * cs / maxf(n, 1)
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
		est := minf(cs*cs, n*n)
		return est, cc + est*4
	case automata.KindOpt:
		cs, cc := g.relEstimate(q.Children[0])
		return cs + n, cc + n
	}
	return 0, 0
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
