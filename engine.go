package provrpq

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"provrpq/internal/automata"
	"provrpq/internal/core"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/label"
	"provrpq/internal/metrics"
	"provrpq/internal/plan"
	"provrpq/internal/plancache"
	"provrpq/internal/reach"
	"provrpq/internal/rel"
)

var (
	mEvalSeconds = metrics.Default().HistogramVec("provrpq_eval_seconds",
		"All-pairs evaluation latency, by the strategy that ran.",
		metrics.LatencyBuckets, "strategy")
	mEvalUnits = metrics.Default().HistogramVec("provrpq_eval_decode_units",
		"Cost model decode-unit estimate per all-pairs evaluation, by the strategy that ran.",
		metrics.WorkBuckets, "strategy")
)

// observeEvalLatency records latency for evaluation paths the cost model
// does not price (unsafe-query decomposition).
func observeEvalLatency(name string, start time.Time) {
	mEvalSeconds.With(name).Observe(time.Since(start).Seconds())
}

// Query is a parsed regular path query and its canonical rendering.
type Query struct {
	node *automata.Node
	str  string
}

// ParseQuery parses the package's query syntax (see the package comment).
func ParseQuery(s string) (*Query, error) {
	n, err := automata.Parse(s)
	if err != nil {
		return nil, err
	}
	return &Query{node: n, str: n.String()}, nil
}

// MustParseQuery is ParseQuery panicking on error, for fixtures.
func MustParseQuery(s string) *Query {
	q, err := ParseQuery(s)
	if err != nil {
		panic(err)
	}
	return q
}

// String returns the canonical rendering of the query.
func (q *Query) String() string { return q.str }

// Pair is one result of an all-pairs query.
type Pair struct {
	From, To NodeID
}

// Strategy selects the all-pairs evaluation plan.
type Strategy int

const (
	// Auto consults the selectivity planner for safe queries — choosing
	// among RPL, OptRPL and the index-seeded strategy from per-run tag
	// statistics — and uses safe-subtree decomposition (with the cost
	// model) for unsafe ones.
	Auto Strategy = iota
	// StrategyRPL forces the nested-loop pairwise scan (paper Option S1).
	StrategyRPL
	// StrategyOptRPL forces the tree-walk scan (Option S2 over the
	// query-intersected grammar): input + output time.
	StrategyOptRPL
	// StrategySeeded forces the index-seeded strategy: anchor on the rarest
	// tag every match must traverse, restrict both endpoint lists to the
	// nodes that can reach / be reached from its occurrences, and verify
	// only the surviving pairs. Unlike RPL/OptRPL it also accepts unsafe
	// queries (candidates are then verified by expanding the minimal DFA,
	// forward or reversed). Queries that require no tag fall back to
	// OptRPL (safe) or a full expansion (unsafe).
	StrategySeeded
)

// String returns the strategy's wire name, as reported by Explain and the
// HTTP API.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case StrategyRPL:
		return "rpl"
	case StrategyOptRPL:
		return "optrpl"
	case StrategySeeded:
		return "seeded"
	}
	return "unknown"
}

// PlanCache is a shared cache of compiled query plans (minimal DFA, λ
// matrices, safety verdict, decode artifacts). A compiled plan depends only
// on (specification, query) — never on a run — so engines over different
// runs of one specification share plans through a common cache. A PlanCache
// is safe for concurrent use; concurrent compiles of the same query are
// deduplicated and the cache is LRU-bounded.
type PlanCache struct {
	c *plancache.Cache
}

// NewPlanCache returns a plan cache bounded to capacity compiled plans
// (<= 0 selects the default bound).
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{c: plancache.New(capacity)}
}

// Len returns the number of resident compiled plans.
func (p *PlanCache) Len() int { return p.c.Len() }

// CacheStats is a point-in-time snapshot of a plan cache's traffic. Hits,
// Misses and Evictions are cumulative; Plans is the resident plan count.
// A healthy multi-run workload shows Hits well above Misses: every run of
// a specification after the first answers from already-compiled plans.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Plans                   int
}

// Stats snapshots the cache counters.
func (p *PlanCache) Stats() CacheStats {
	m := p.c.Stats()
	return CacheStats{Hits: m.Hits, Misses: m.Misses, Evictions: m.Evictions, Plans: m.Len}
}

// sharedPlans is the process-wide default plan cache: every engine not
// given an explicit cache compiles into (and out of) this one.
var sharedPlans = plancache.New(0)

// defaultPlanCache wraps sharedPlans for public observation.
var defaultPlanCache = &PlanCache{c: sharedPlans}

// DefaultPlanCache returns the process-wide shared plan cache used by
// every engine not configured with an explicit cache, for stats
// inspection (e.g. rpqcli -stats) or for passing to a Catalog.
func DefaultPlanCache() *PlanCache { return defaultPlanCache }

// EngineOptions configure an Engine beyond its run.
type EngineOptions struct {
	// Workers is ignored: every scan runs on its caller's goroutine. It is
	// kept only because the benchmark module still compiles against it
	// (ROADMAP item 1a deletes it).
	Workers int
	// PlanCache overrides the process-wide shared compiled-plan cache.
	PlanCache *PlanCache
}

// Engine evaluates queries over one run. Compiled query environments
// (minimal DFA, λ matrices, safety verdict, decode artifacts) come from a
// plan cache shared across engines — by default one process-wide cache —
// and the run's inverted edge index and general evaluator are built lazily
// exactly once.
//
// An Engine is safe for concurrent use: any number of goroutines may call
// any mix of its methods. Each call runs on its caller's goroutine, so
// concurrent requests are the only parallelism. Evaluate and EvaluateRows
// answer in (From, To) order.
type Engine struct {
	run   *Run
	plans *plancache.Cache

	// lblOnce/lbls defer the materialized per-node label slice to the
	// first all-pairs scan: the pairwise entry points answer straight from
	// the run's label column (LabelBytes), so an engine over a
	// columnar-opened run serves point queries without ever decoding every
	// label.
	lblOnce sync.Once
	lbls    []label.Label

	// envMemo fronts the shared plan cache with a per-engine, lock-free
	// hit path (the pairwise decode is nanosecond-scale; a contended
	// process-wide mutex per call would serialize it). It also pins every
	// plan this engine has resolved, so an LRU eviction in the shared
	// cache never invalidates an engine's working set — in particular a
	// RelaxSafety upgrade survives for the engine that performed it.
	envMemo sync.Map // query string -> *core.Env

	ixOnce sync.Once
	ix     *index.Index

	// plOnce/pl hold the selectivity planner, built lazily over the run's
	// index. Because an engine is bound to one run version (the catalog
	// swaps engines on growth), the planner's sampled statistics are
	// effectively cached per run generation, next to the compiled plans the
	// engine resolves from the shared cache.
	plOnce sync.Once
	pl     *plan.Planner

	genOnce sync.Once
	gen     *core.General
}

// NewEngine prepares an engine over a run with default options (shared
// process-wide plan cache).
func NewEngine(run *Run) *Engine {
	return NewEngineOpts(run, EngineOptions{})
}

// NewEngineOpts prepares an engine with explicit options.
func NewEngineOpts(run *Run, opts EngineOptions) *Engine {
	plans := sharedPlans
	if opts.PlanCache != nil {
		plans = opts.PlanCache.c
	}
	return &Engine{run: run, plans: plans}
}

// labels returns the materialized per-node label slice, built on first use.
func (e *Engine) labels() []label.Label {
	e.lblOnce.Do(func() { e.lbls = e.run.r.MaterializeLabels() })
	return e.lbls
}

// Run returns the engine's run.
func (e *Engine) Run() *Run { return e.run }

func (e *Engine) env(q *Query) (*core.Env, error) {
	if v, ok := e.envMemo.Load(q.str); ok {
		return v.(*core.Env), nil
	}
	env, err := e.plans.Get(e.run.r.Spec, q.node)
	if err != nil {
		return nil, err
	}
	v, _ := e.envMemo.LoadOrStore(q.str, env)
	return v.(*core.Env), nil
}

func (e *Engine) index() *index.Index {
	e.ixOnce.Do(func() { e.ix = index.Build(e.run.r) })
	return e.ix
}

func (e *Engine) planner() *plan.Planner {
	e.plOnce.Do(func() { e.pl = plan.New(e.index()) })
	return e.pl
}

func (e *Engine) general() *core.General {
	e.genOnce.Do(func() {
		e.gen = core.NewGeneralOpts(e.run.r, e.index(), core.CostBased, core.GeneralOptions{Envs: e.plans})
	})
	return e.gen
}

// IsSafe reports whether the query is safe for the run's specification
// (Definition 13; checked on the minimal DFA per Lemma 3.2).
func (e *Engine) IsSafe(q *Query) (bool, error) {
	env, err := e.env(q)
	if err != nil {
		return false, err
	}
	return env.Safe(), nil
}

// IsSafeRelaxed additionally tries *context-restricted safety*, an
// extension beyond the paper: determinism is required only for DFA states
// that can actually arrive at a module's input on some run path. Strictly
// more queries qualify (e.g. a query whose ambiguity involves a state no
// path upstream of the module can produce). When relaxation succeeds, the
// compiled environment becomes safe, so subsequent Pairwise and AllPairs
// calls on the same query use the constant-time label decode — permanently
// for this engine (its plan memo pins the upgraded plan), and for other
// engines sharing the plan cache while the plan stays resident there. The
// upgrade is published atomically; concurrent readers see either the
// strict or the fully relaxed verdict.
func (e *Engine) IsSafeRelaxed(q *Query) (bool, error) {
	env, err := e.env(q)
	if err != nil {
		return false, err
	}
	return env.RelaxSafety(), nil
}

// Pairwise answers u —R→ v. Safe queries are answered in constant time from
// the two node labels (Theorem 1); unsafe queries fall back to the paper's
// Section III-B search — one walk of run × DFA from u over the plan's
// compiled DFA, ended at the first accepting arrival at v — skipped
// altogether when a tag every match must traverse is absent from the run.
func (e *Engine) Pairwise(q *Query, u, v NodeID) (bool, error) {
	if err := e.checkNode(u); err != nil {
		return false, err
	}
	if err := e.checkNode(v); err != nil {
		return false, err
	}
	env, err := e.env(q)
	if err != nil {
		return false, err
	}
	if env.Safe() {
		// Decode straight from the run's label column — no materialized
		// []Entry labels on the point-query path.
		return env.PairwiseBytes(e.run.r.LabelBytes(derive.NodeID(u)), e.run.r.LabelBytes(derive.NodeID(v)))
	}
	for _, sym := range env.RequiredSyms() {
		if e.index().Count(sym) == 0 {
			return false, nil
		}
	}
	found := false
	rel.Walk(e.run.r, env.DFA, derive.NodeID(u), env.DFA.Start, false, func(n derive.NodeID, state int) bool {
		found = n == derive.NodeID(v) && env.DFA.Accept[state]
		return !found
	})
	return found, nil
}

// Reachable answers plain reachability u ⇝ v in constant time from labels.
func (e *Engine) Reachable(u, v NodeID) (bool, error) {
	if err := e.checkNode(u); err != nil {
		return false, err
	}
	if err := e.checkNode(v); err != nil {
		return false, err
	}
	return reach.PairwiseBytes(e.run.r.Spec, e.run.r.LabelBytes(derive.NodeID(u)), e.run.r.LabelBytes(derive.NodeID(v))), nil
}

// reachQuery is plain reachability: any path, the empty one included.
var reachQuery = MustParseQuery("_*")

// AllPairsReachable returns all reachable pairs of l1 × l2 in time linear
// in the lists and the output (Lemma 4.1's side effect): the OptRPL walk of
// the safe query _*.
func (e *Engine) AllPairsReachable(l1, l2 []NodeID) ([]Pair, error) {
	return e.AllPairs(reachQuery, l1, l2, StrategyOptRPL)
}

// forcedStrategies maps the caller-forced public strategies onto the
// planner's enum; Auto is absent.
var forcedStrategies = map[Strategy]plan.Strategy{
	StrategyRPL:    plan.RPL,
	StrategyOptRPL: plan.OptRPL,
	StrategySeeded: plan.Seeded,
}

// AllPairs returns all pairs (u,v) ∈ l1 × l2 with u —R→ v.
func (e *Engine) AllPairs(q *Query, l1, l2 []NodeID, strategy Strategy) ([]Pair, error) {
	if err := e.checkNodes(l1); err != nil {
		return nil, err
	}
	if err := e.checkNodes(l2); err != nil {
		return nil, err
	}
	env, err := e.env(q)
	if err != nil {
		return nil, err
	}
	var out []Pair
	emit := func(i, j int) {
		out = appendPair(out, Pair{From: l1[i], To: l2[j]})
	}
	switch strategy {
	case StrategyRPL, StrategyOptRPL:
		if !env.Safe() {
			return nil, fmt.Errorf("provrpq: query %s is unsafe; RPL/OptRPL require a safe query", q)
		}
	case StrategySeeded: // verifies its own candidates, safe query or not
	default: // Auto
		if !env.Safe() {
			return e.crossDecomposed(q, l1, l2)
		}
	}
	dec := e.planner().Plan(env, len(l1), len(l2))
	ps, forced := forcedStrategies[strategy]
	if !forced {
		ps = dec.Strategy
	}
	if err := e.scanSafe(env, dec, ps, l1, l2, emit); err != nil {
		return nil, err
	}
	return out, nil
}

// crossDecomposed answers an unsafe query over l1 × l2: the lists go down
// the safe-subtree decomposition as the sources and targets it is asked for,
// so what comes back is about the answer's size, and its l1 rows are then
// matched against l2's positions in nested-loop order.
//
//provrpq:ctxroot
func (e *Engine) crossDecomposed(q *Query, l1, l2 []NodeID) ([]Pair, error) {
	start := time.Now()
	r, _, err := e.general().EvalContext(context.Background(), q.node, nodeSet(l1), nodeSet(l2))
	if err != nil {
		return nil, err
	}
	var out []Pair
	rel.AllPairsIn(r, toDerive(l1), toDerive(l2), func(i, j int) {
		out = appendPair(out, Pair{From: l1[i], To: l2[j]})
	})
	observeEvalLatency("decompose", start)
	return out, nil
}

// nodeSet returns the distinct ids of a list in increasing order.
func nodeSet(l []NodeID) []int32 {
	set := make([]int32, len(l))
	for i, u := range l {
		set[i] = int32(u)
	}
	slices.Sort(set)
	return slices.Compact(set)
}

// scanSafe runs the given strategy of one planner decision over l1 × l2,
// pair by pair, for AllPairs. RPL and OptRPL need a safe env; Seeded verifies
// its candidates itself and also accepts an unsafe one. Label slices are
// built only by the arms that scan them — the seeded path works from node
// ids — and an l1 that is l2 stays one list, which the scans recognise and
// sort once.
func (e *Engine) scanSafe(env *core.Env, dec plan.Decision, strategy plan.Strategy, l1, l2 []NodeID, emit func(i, j int)) error {
	start := time.Now()
	oneList := len(l1) == len(l2) && (len(l1) == 0 || &l1[0] == &l2[0])
	var err error
	if strategy == plan.Seeded {
		d1 := toDerive(l1)
		d2 := d1
		if !oneList {
			d2 = toDerive(l2)
		}
		err = plan.AllPairsSeeded(env, e.index(), dec, d1, d2, emit)
	} else {
		la := e.labelsOf(l1)
		lb := la
		if !oneList {
			lb = e.labelsOf(l2)
		}
		err = env.AllPairsSafeParallel(la, lb, labelScan(strategy), 1, emit)
	}
	if err == nil {
		observeScan(dec, strategy, start)
	}
	return err
}

// labelScan maps the planner's two label scans onto core's.
func labelScan(s plan.Strategy) core.AllPairsStrategy {
	if s == plan.RPL {
		return core.RPL
	}
	return core.OptRPL
}

// observeScan records one evaluation by a strategy that began at start:
// the decode units the model estimated for it (provrpq_eval_decode_units)
// and its latency so far, ordering the result included
// (provrpq_eval_seconds).
func observeScan(dec plan.Decision, strategy plan.Strategy, start time.Time) {
	if units := dec.UnitCost(strategy); units > 0 {
		mEvalUnits.With(strategy.String()).Observe(units)
	}
	observeEvalLatency(strategy.String(), start)
}

// scanRows is scanSafe for a full evaluation into the window's rows: the
// strategy counts, then fills, core.Rows — no pair is emitted — and stops
// with ctx.Err() at its next block once ctx is done.
func (e *Engine) scanRows(ctx context.Context, env *core.Env, dec plan.Decision, strategy plan.Strategy, offset, limit int) (*Rows, error) {
	start := time.Now()
	var rows *core.Rows
	var err error
	if strategy == plan.Seeded {
		rows, err = plan.SeededRows(ctx, env, e.index(), dec, offset, limit)
	} else {
		rows, err = env.SafeRows(ctx, e.labels(), labelScan(strategy), offset, limit)
	}
	if err != nil {
		return nil, err
	}
	rows.Order()
	observeScan(dec, strategy, start)
	return &Rows{rows}, nil
}

// PlanReport describes how the engine would evaluate a query: the safety
// verdict, the strategy Auto would pick for a full evaluation (all nodes ×
// all nodes), the seed the index-seeded strategy would anchor on, and the
// planner's cost estimates (in label-decode units). For unsafe queries
// Decomposed is set and SafeSubtrees/RelationalNodes describe the
// safe-subtree decomposition instead; the cost fields are then zero (the
// decode-count model applies only to whole-query safe scans).
type PlanReport struct {
	// Query is the canonical query rendering.
	Query string
	// Safe is the (possibly relaxed) safety verdict.
	Safe bool
	// Strategy is what Auto uses: StrategyRPL, StrategyOptRPL or
	// StrategySeeded for safe queries; Auto (decomposition) when unsafe.
	Strategy Strategy
	// Decomposed reports the unsafe path: maximal safe subtrees evaluated
	// with labels, the remainder relationally.
	Decomposed bool
	// SeedTag is the rarest tag every match must traverse ("" when the
	// query requires none); SeedCount its occurrence count in the run.
	SeedTag   string
	SeedCount int
	// Reverse reports the planner's estimate that the seed's target side is
	// more selective than its source side. The seeded scan does not follow
	// it: it walks from every required tag on both sides.
	Reverse bool
	// CostRPL, CostOptRPL and CostSeeded are the planner's estimates for a
	// full scan; CostSeeded is meaningful only when SeedTag != "".
	CostRPL, CostOptRPL, CostSeeded float64
	// SafeSubtrees and RelationalNodes describe the decomposition of an
	// unsafe query (empty / zero for safe ones: the whole query is one
	// safe scan).
	SafeSubtrees    []string
	RelationalNodes int
}

// Explain reports the evaluation plan without evaluating: for safe queries
// the planner's strategy choice with its cost estimates, for unsafe ones
// the safe-subtree decomposition. The plan is deterministic for a given
// run version and query: the planner's statistics are sampled with a fixed
// seed, and no earlier evaluation feeds into it.
func (e *Engine) Explain(q *Query) (*PlanReport, error) {
	env, err := e.env(q)
	if err != nil {
		return nil, err
	}
	if env.Safe() {
		n := e.run.NumNodes()
		return safeReport(q, e.planner().Plan(env, n, n)), nil
	}
	grep, err := e.general().Plan(q.node)
	if err != nil {
		return nil, err
	}
	return decomposedReport(q, grep), nil
}

// safeReport renders the planner's decision for a safe query.
func safeReport(q *Query, dec plan.Decision) *PlanReport {
	return &PlanReport{
		Query:    q.str,
		Safe:     true,
		Strategy: fromPlanStrategy(dec.Strategy),
		SeedTag:  dec.SeedTag, SeedCount: dec.SeedCount, Reverse: dec.Reverse,
		CostRPL: dec.CostRPL, CostOptRPL: dec.CostOptRPL, CostSeeded: dec.CostSeeded,
	}
}

// decomposedReport renders the safe-subtree decomposition of an unsafe
// query.
func decomposedReport(q *Query, grep *core.EvalReport) *PlanReport {
	return &PlanReport{
		Query:           q.str,
		Strategy:        Auto,
		Decomposed:      true,
		SafeSubtrees:    grep.SafeSubtrees,
		RelationalNodes: grep.RelationalNodes,
	}
}

// Rows is a window of a query's result, held as rows and read-only: per
// source, increasing, its targets, increasing — the (From, To) order of
// Evaluate, without a Pair being stored.
type Rows struct{ r *core.Rows }

// Total returns the number of pairs in the whole result, whatever the window.
func (r *Rows) Total() int { return r.r.Total() }

// Len returns the number of pairs in the window.
func (r *Rows) Len() int { return r.r.Len() }

// Each calls fn with every source that has pairs in the window and its
// targets there — node ids, at the width rows are stored at, which fn must
// not keep or write to — until fn returns false.
func (r *Rows) Each(fn func(from NodeID, to []int32) bool) {
	r.r.Each(func(u int, to []int32) bool { return fn(NodeID(u), to) })
}

// Pairs returns the window as pairs sorted by (From, To), nil when empty.
func (r *Rows) Pairs() []Pair {
	if r.Len() == 0 {
		return nil
	}
	out := make([]Pair, 0, r.Len())
	r.r.Each(func(u int, to []int32) bool {
		for _, v := range to {
			out = append(out, Pair{From: NodeID(u), To: NodeID(v)})
		}
		return true
	})
	return out
}

// Evaluate returns the query's full result relation over all node pairs,
// sorted by (From, To): the whole window of EvaluateRows, as pairs.
func (e *Engine) Evaluate(q *Query) ([]Pair, error) {
	out, _, err := e.EvaluatePlanned(q)
	return out, err
}

// EvaluatePlanned is Evaluate returning the plan report alongside the
// pairs, so callers (rpqcli) can surface which strategy actually answered.
//
//provrpq:ctxroot
func (e *Engine) EvaluatePlanned(q *Query) ([]Pair, *PlanReport, error) {
	rows, rep, err := e.EvaluateRows(context.Background(), q, 0, -1)
	if err != nil {
		return nil, nil, err
	}
	return rows.Pairs(), rep, nil
}

// EvaluateRows evaluates the query over all node pairs and returns the
// window [offset, offset+limit) of its result — to the end when limit < 0 —
// with the plan report: safe queries run the planner-chosen all-pairs
// strategy on the calling goroutine, unsafe queries are decomposed into
// maximal safe subtrees plus a relational remainder (Section IV-B), with the
// cost model choosing per subtree. A safe query is planned exactly once: the
// report, the scan and the strategy label on provrpq_eval_seconds all come
// from that one decision. Its scan first only counts, which gives the total
// and every row's place, then writes the rows the window meets into one
// array of their size: a page costs the count pass plus its own pairs, and
// nothing is sorted but a row whose targets arrived out of order. Once ctx is
// done the evaluation returns ctx.Err() at its next block of pairs.
func (e *Engine) EvaluateRows(ctx context.Context, q *Query, offset, limit int) (*Rows, *PlanReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	env, err := e.env(q)
	if err != nil {
		return nil, nil, err
	}
	if env.Safe() {
		n := e.run.NumNodes()
		dec := e.planner().Plan(env, n, n)
		rows, err := e.scanRows(ctx, env, dec, dec.Strategy, offset, limit)
		return rows, safeReport(q, dec), err
	}
	// The evaluation itself produces the decomposition report — no separate
	// planning pass — and its relation is rows in order already.
	start := time.Now()
	r, grep, err := e.general().EvalContext(ctx, q.node, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	rows, err := core.RowsOf(ctx, r, e.run.NumNodes(), offset, limit)
	if err != nil {
		return nil, nil, err
	}
	observeEvalLatency("decompose", start)
	return &Rows{rows}, decomposedReport(q, grep), nil
}

// appendPair is append with doubling growth: result lists run to millions of
// pairs, where append's 1.25× steps copy the list five times over.
func appendPair(out []Pair, p Pair) []Pair {
	if len(out) == cap(out) {
		out = slices.Grow(out, max(len(out), 256))
	}
	return append(out, p)
}

// sortPairs orders the pairs a standing-query delta emitted by (From, To), in
// place.
func sortPairs(ps []Pair) {
	slices.SortFunc(ps, func(a, b Pair) int {
		if a.From != b.From {
			return cmp.Compare(a.From, b.From)
		}
		return cmp.Compare(a.To, b.To)
	})
}

// fromPlanStrategy maps the planner's choice onto the public enum.
func fromPlanStrategy(s plan.Strategy) Strategy {
	switch s {
	case plan.RPL:
		return StrategyRPL
	case plan.Seeded:
		return StrategySeeded
	}
	return StrategyOptRPL
}

// labelsOf gathers the materialized labels of ids the caller already
// validated.
func (e *Engine) labelsOf(ids []NodeID) []label.Label {
	lbls := e.labels()
	out := make([]label.Label, len(ids))
	for i, id := range ids {
		out[i] = lbls[id]
	}
	return out
}

func (e *Engine) checkNodes(ids []NodeID) error {
	for _, id := range ids {
		if err := e.checkNode(id); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) checkNode(n NodeID) error {
	if n < 0 || int(n) >= e.run.r.NumNodes() {
		return fmt.Errorf("provrpq: node id %d out of range [0,%d)", n, e.run.r.NumNodes())
	}
	return nil
}
