package plan

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"provrpq/internal/core"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/reach"
	"provrpq/internal/rel"
)

// AllPairsSeeded evaluates the compiled query over l1 × l2 by the seeded
// strategy, emitting each matching pair by list indices. It is exact for
// every query, safe or unsafe. Every match traverses an edge of every
// required tag, so its source reaches an occurrence source of each such tag
// and its target is reached from an occurrence target of each: the
// candidates are the entries in the smallest of those reach sets, which walks
// of the run find without reading a label (race.side). Safe queries verify
// them by the OptRPL walk over tries of the candidates' labels alone; unsafe
// ones by expanding through the minimal DFA (expandPairs). A query that
// requires no tag makes every entry a candidate. The decision is not read:
// its seed tag and Reverse are the planner's estimates, which Explain
// reports.
//
//provrpq:ctxroot
func AllPairsSeeded(env *core.Env, ix *index.Index, _ Decision, l1, l2 []derive.NodeID, emit func(i, j int)) error {
	if len(l1) == 0 || len(l2) == 0 {
		return nil
	}
	ctx := context.Background()
	L, R := candidates(ctx, env, ix, l1, l2)
	if !env.Safe() {
		return expandPairs(env, ix.Run(), L, R, l1, l2, emit)
	}
	if t1, t2, _ := candidateTries(ctx, ix.Run(), l1, l2, L, R, nil); t1 != nil {
		return env.AllPairsSafeTries(t1, t2, emit)
	}
	return nil
}

// SeededRows is AllPairsSeeded of a safe query over every pair of the run's
// nodes, into rows (core.Rows): the tries' Perm holds node ids. A candidate
// side over half the run walks all(), the trie of every node, instead of one
// of its own: the candidates only prune, every match's endpoints are among
// them, and the walk decides every pair exactly, so walking more nodes finds
// the same rows. A smaller side decodes only its own labels, which the
// rows' Work counts, and never calls all. It ends with ctx.Err() once ctx is
// done: before the candidate walks, within their next 1,024 expansions,
// before each trie build, or at the next block of the walk.
func SeededRows(ctx context.Context, env *core.Env, ix *index.Index, _ Decision, all func() *reach.Trie, offset, limit int) (*core.Rows, error) {
	L, R := candidates(ctx, env, ix, nil, nil)
	t1, t2, labels := candidateTries(ctx, ix.Run(), nil, nil, L, R, all)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if t1 == nil {
		return &core.Rows{}, nil
	}
	rows, err := env.RowsSafeTries(ctx, t1, t2, ix.Run().NumNodes(), offset, limit)
	if rows != nil {
		rows.Work.Labels += labels
	}
	return rows, err
}

// candidates returns the indices of l1's candidate sources and of l2's
// candidate targets — none once ctx is done. A nil list stands for every
// node of the run, indexed by id. Without a required tag every entry is a
// candidate, and one list as both sides yields one slice for both.
func candidates(ctx context.Context, env *core.Env, ix *index.Index, l1, l2 []derive.NodeID) (L, R []int) {
	run, tags := ix.Run(), env.RequiredSyms()
	switch {
	case ctx.Err() != nil:
		return nil, nil
	case len(tags) == 0 && l1 == nil:
		L = allIdx(run.NumNodes())
		return L, L
	case len(tags) == 0:
		if L, R = allIdx(len(l1)), allIdx(len(l2)); len(l1) == len(l2) && &l1[0] == &l2[0] {
			R = L
		}
		return L, R
	}
	r := racePool.Get().(*race)
	defer racePool.Put(r)
	r.begin(run.NumNodes())
	if src, srcs := r.side(ctx, run, ix, tags, 0); src != 0 {
		if dst, dsts := r.side(ctx, run, ix, tags, 1); dst != 0 {
			return r.pick(l1, src, srcs), r.pick(l2, dst, dsts)
		}
	}
	return nil, nil
}

// candidateTries builds the tries of l1's entries at L and l2's at R, one for
// both when L is R — nil when a side is empty or ctx is done first — and
// counts the labels it decoded for them. With a non-nil all, a side of nil
// list that holds over half the run's nodes is all's trie of every node
// instead, and decodes nothing.
func candidateTries(ctx context.Context, run *derive.Run, l1, l2 []derive.NodeID, L, R []int, all func() *reach.Trie) (t1, t2 *reach.Trie, labels int) {
	if len(L) == 0 || len(R) == 0 {
		return nil, nil, 0
	}
	side := func(l []derive.NodeID, keep []int) *reach.Trie {
		if l == nil && all != nil && 2*len(keep) > run.NumNodes() && ctx.Err() == nil {
			return all()
		}
		labels += len(keep)
		return listTrie(ctx, run, l, keep)
	}
	if t1 = side(l1, L); t1 == nil || &L[0] == &R[0] {
		return t1, t1, labels
	}
	if t2 = side(l2, R); t2 == nil {
		return nil, nil, labels
	}
	return t1, t2, labels
}

// listTrie returns the trie of the labels of l's entries at keep (a nil l:
// of the nodes keep names), its Perm holding those indices — nil once ctx is
// done. keep is sorted by node first: ids follow the derivation, so the
// trie's sort then meets a list mostly in label order.
func listTrie(ctx context.Context, run *derive.Run, l []derive.NodeID, keep []int) *reach.Trie {
	if ctx.Err() != nil {
		return nil
	}
	node := func(i int) derive.NodeID {
		if l == nil {
			return derive.NodeID(i)
		}
		return l[i]
	}
	slices.SortFunc(keep, func(a, b int) int { return cmp.Compare(node(a), node(b)) })
	ids := make([]derive.NodeID, len(keep))
	for k, i := range keep {
		ids[k] = node(i)
	}
	t := reach.NewTrie(run.LabelsOf(ids))
	for k, p := range t.Perm {
		t.Perm[k] = int32(keep[p])
	}
	return t
}

// race is one request's candidate walks, pooled: mask[v] holds the walks
// that reached node v iff at[v] holds the request's epoch, so a request
// clears nothing and costs what its walks visit. Walk i of side d (0
// backward, 1 forward) owns bit 32·d+i and lists its nodes in visit order in
// walks[d][i].seen, whose unexpanded suffix is its frontier.
type race struct {
	at    []uint32
	mask  []uint64
	epoch uint32
	walks [2][]struct {
		seen []derive.NodeID
		head int
	}
}

var racePool = sync.Pool{New: func() any { return new(race) }}

// begin starts a request over a run of n nodes: no node is marked. Scratch a
// run outgrew is replaced with a quarter to spare, so a run growing by small
// batches reallocates it once per a quarter's growth, not once per version.
func (r *race) begin(n int) {
	if r.epoch++; len(r.at) < n || r.epoch == 0 {
		n += n / 4
		r.at, r.mask, r.epoch = make([]uint32, n), make([]uint64, n), 1
	}
}

// side races one walk per tag (the first 32: any subset of the required tags
// bounds the candidates soundly), backward over incoming edges from the
// tags' occurrence sources (d = 0) or forward from their targets (d = 1),
// one node expansion per walk per turn, and returns the bit and nodes of the
// first to run out of frontier: it reached the fewest nodes. The bit is 0
// when a tag does not occur, or once ctx is done.
func (r *race) side(ctx context.Context, run *derive.Run, ix *index.Index, tags []string, d int) (uint64, []derive.NodeID) {
	ws := slices.Grow(r.walks[d][:0], 32)[:min(len(tags), 32)]
	r.walks[d] = ws
	visit := func(i int, v derive.NodeID) {
		if r.at[v] != r.epoch {
			r.at[v], r.mask[v] = r.epoch, 0
		}
		if bit := uint64(1) << (32*d + i); r.mask[v]&bit == 0 {
			r.mask[v] |= bit
			ws[i].seen = append(ws[i].seen, v)
		}
	}
	for i, tag := range tags[:len(ws)] {
		ws[i].seen, ws[i].head = ws[i].seen[:0], 0
		ix.EachPair(tag, func(p index.Pair) { visit(i, [2]derive.NodeID{p.From, p.To}[d]) })
		if len(ws[i].seen) == 0 {
			return 0, nil
		}
	}
	for step := 0; ; step++ {
		i := step % len(ws)
		w := &ws[i]
		switch {
		case step%1024 == 1023 && ctx.Err() != nil:
			return 0, nil
		case w.head == len(w.seen):
			return 1 << (32*d + i), w.seen
		}
		v := w.seen[w.head]
		w.head++
		edges := run.In(v)
		if d == 1 {
			edges = run.Out(v)
		}
		for _, ei := range edges {
			visit(i, [2]derive.NodeID{run.Edges[ei].From, run.Edges[ei].To}[d])
		}
	}
}

// pick returns, in list order, the indices of l's entries that the walk of
// bit reached; for a nil l, that walk's nodes.
func (r *race) pick(l []derive.NodeID, bit uint64, nodes []derive.NodeID) []int {
	var out []int
	if l == nil {
		out = make([]int, len(nodes))
		for i, v := range nodes {
			out[i] = int(v)
		}
	}
	for i, v := range l {
		if r.at[v] == r.epoch && r.mask[v]&bit != 0 {
			out = append(out, i)
		}
	}
	return out
}

// expandPairs verifies candidate pairs by product traversal of the run with
// the query DFA, from each candidate of the smaller side: forward from
// sources, or backward from targets with the reversed query's DFA, which
// accepts exactly the reversals of the query's words. An expansion stamps the
// nodes it reaches in an accepting state into pooled scratch. Emission is
// candidate-major in the expanded side's order, list order on the other.
func expandPairs(env *core.Env, run *derive.Run, L, R []int, l1, l2 []derive.NodeID, emit func(i, j int)) error {
	rev := len(R) < len(L)
	dfa, from, to, lf, lt, pair := env.DFA, L, R, l1, l2, emit
	if rev {
		dfa, from, to, lf, lt = env.ReverseDFA(), R, L, l2, l1
		pair = func(j, i int) { emit(i, j) }
	}
	r := racePool.Get().(*race)
	defer racePool.Put(r)
	for _, i := range from {
		r.begin(run.NumNodes())
		rel.Walk(run, dfa, lf[i], dfa.Start, rev, func(v derive.NodeID, q int) bool {
			if dfa.Accept[q] {
				r.at[v] = r.epoch
			}
			return true
		})
		for _, j := range to {
			if r.at[lt[j]] == r.epoch {
				pair(i, j)
			}
		}
	}
	return nil
}

func allIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
