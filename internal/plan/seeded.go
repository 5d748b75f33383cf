package plan

import (
	"context"
	"slices"

	"provrpq/internal/automata"
	"provrpq/internal/core"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/reach"
	"provrpq/internal/rel"
)

// AllPairsSeeded evaluates the compiled query over l1 × l2 anchored on the
// decision's seed tag, emitting each matching pair by list indices. It is
// exact for every query, safe or unsafe:
//
//  1. Every matching path traverses a seed-tagged edge (the seed is a
//     required symbol), so sources that reach no occurrence source and
//     targets unreachable from every occurrence target are discarded by two
//     output-linear label joins (reach.AllPairs against the distinct seed
//     endpoints). An absent seed tag means no pair can match.
//  2. The surviving candidate pairs are verified exactly: safe queries by
//     the OptRPL scan over the candidates' sub-tries; unsafe queries by
//     expanding through the minimal DFA — forward from each source
//     candidate, or backward from each target candidate with the DFA of the
//     reversed query (automata.Node.Reverse()) when the target side is
//     smaller.
//
// The decision's Reverse flag (which end the planner estimated more
// selective) orders the candidate joins so the emptier side is resolved —
// and can short-circuit the whole scan — first; the unsafe expansion then
// re-decides its direction from the actual candidate counts. A list's labels
// are decoded only when a join is about to read them.
//
// A decision without a seed tag (the query requires no symbol) falls back
// to OptRPL for safe queries and to a full bidirectional expansion for
// unsafe ones — the shapes where seeding has nothing to anchor on.
//
//provrpq:ctxroot
func AllPairsSeeded(env *core.Env, ix *index.Index, dec Decision, l1, l2 []derive.NodeID, emit func(i, j int)) error {
	if !env.Safe() && requiredSeed(env, dec) == "" {
		return expandPairs(env, ix.Run(), allIdx(len(l1)), allIdx(len(l2)), l1, l2, len(l2) < len(l1), emit)
	}
	t1, t2, inL, inR, err := candidates(context.Background(), env, ix, dec, l1, l2)
	switch {
	case t1 == nil:
		return err
	case env.Safe():
		return env.AllPairsSafeTries(t1.Sub(inL), t2.Sub(inR), emit)
	}
	L, R := collect(inL), collect(inR)
	return expandPairs(env, ix.Run(), L, R, l1, l2, len(R) < len(L), emit)
}

// SeededRows is AllPairsSeeded of a safe query over every pair of one node
// list, into rows: the verification walk over the candidates' sub-tries
// counts, then fills, the window of the result (core.Rows), and ends with
// ctx.Err() once ctx is done: before the next trie build or candidate join,
// or at the next block of a walk.
func SeededRows(ctx context.Context, env *core.Env, ix *index.Index, dec Decision, l []derive.NodeID, offset, limit int) (*core.Rows, error) {
	t1, t2, inL, inR, err := candidates(ctx, env, ix, dec, l, l)
	if t1 == nil {
		if err != nil {
			return nil, err
		}
		return &core.Rows{}, nil
	}
	return env.RowsSafeTries(ctx, t1.Sub(inL), t2.Sub(inR), len(l), offset, limit)
}

// requiredSeed returns the decision's seed tag, or "" for a seed the query
// does not require: it would drop the matches that avoid it, so the scan
// falls back to the unseeded paths instead.
func requiredSeed(env *core.Env, dec Decision) string {
	if slices.Contains(env.RequiredSyms(), dec.SeedTag) {
		return dec.SeedTag
	}
	return ""
}

// candidates marks in inL / inR the labels of l1 that reach a seed source and
// those of l2 reached from a seed target — nil, which admits every label,
// without a seed — and returns them with the tree representations of the two
// lists, which serve the candidate joins and the safe verification alike:
// each is built when first read, once for both sides when the lists are the
// same slice. It returns nil tries when no pair can match — the seed tag is
// absent from the run, or a candidate side is empty — and, with ctx.Err(),
// once ctx is done: no trie is built and no join started after that.
func candidates(ctx context.Context, env *core.Env, ix *index.Index, dec Decision, l1, l2 []derive.NodeID) (t1, t2 *reach.Trie, inL, inR []bool, err error) {
	defer func() {
		if err = ctx.Err(); err != nil {
			t1, t2, inL, inR = nil, nil, nil, nil
		}
	}()
	run := ix.Run()
	trie := func(l []derive.NodeID) *reach.Trie {
		if ctx.Err() != nil {
			return nil
		}
		return reach.NewTrie(run.LabelsOf(l))
	}
	sources := func() *reach.Trie {
		if t1 == nil {
			t1 = trie(l1)
		}
		return t1
	}
	targets := func() *reach.Trie {
		switch {
		case t2 != nil:
		case len(l1) == len(l2) && len(l1) > 0 && &l1[0] == &l2[0]:
			t2 = sources()
		default:
			t2 = trie(l2)
		}
		return t2
	}
	seed := requiredSeed(env, dec)
	if seed == "" {
		return sources(), targets(), nil, nil, nil
	}
	if ix.Count(seed) == 0 {
		return nil, nil, nil, nil, nil // required tag absent from the run
	}

	// Distinct seed endpoints: several occurrences often share sources or
	// targets, and the candidate joins only care about the distinct sets.
	var srcs, dsts []derive.NodeID
	srcSeen := map[derive.NodeID]struct{}{}
	dstSeen := map[derive.NodeID]struct{}{}
	ix.EachPair(seed, func(p index.Pair) {
		if _, ok := srcSeen[p.From]; !ok {
			srcSeen[p.From] = struct{}{}
			srcs = append(srcs, p.From)
		}
		if _, ok := dstSeen[p.To]; !ok {
			dstSeen[p.To] = struct{}{}
			dsts = append(dsts, p.To)
		}
	})
	inL, inR = make([]bool, len(l1)), make([]bool, len(l2))
	// join reports whether the join of two tries emitted a pair; while ctx is
	// live, both were built.
	join := func(a, b *reach.Trie, emit reach.EmitFunc) (hit bool) {
		if ctx.Err() == nil {
			reach.AllPairsTries(ctx.Done(), run.Spec, a, b, func(i, j int) { emit(i, j); hit = true })
		}
		return hit
	}
	candSources := func() bool { return join(sources(), trie(srcs), func(i, _ int) { inL[i] = true }) }
	candTargets := func() bool { return join(trie(dsts), targets(), func(_, j int) { inR[j] = true }) }
	first, second := candSources, candTargets
	if dec.Reverse {
		first, second = candTargets, candSources
	}
	if !first() || !second() {
		return nil, nil, nil, nil, nil
	}
	return t1, t2, inL, inR, nil
}

// expandPairs verifies candidate pairs by product traversal of the run with
// the query DFA. Forward mode expands from each source candidate with the
// compiled minimal DFA; reverse mode (rev, chosen when the target side is
// smaller) expands from each target candidate over incoming edges with the
// DFA of the reversed query, which accepts exactly the reversals of the
// query's words. Emission is deterministic: candidate-major in the
// expansion side's order, list order on the other side.
func expandPairs(env *core.Env, run *derive.Run, L, R []int, l1, l2 []derive.NodeID, rev bool, emit func(i, j int)) error {
	if len(L) == 0 || len(R) == 0 {
		return nil
	}
	if !rev {
		for _, i := range L {
			hits := expand(run, env.DFA, l1[i], false)
			for _, j := range R {
				if hits[l2[j]] {
					emit(i, j)
				}
			}
		}
		return nil
	}
	rdfa := automata.CompileDFA(env.Query.Reverse(), run.Spec.Tags())
	for _, j := range R {
		hits := expand(run, rdfa, l2[j], true)
		for _, i := range L {
			if hits[l1[i]] {
				emit(i, j)
			}
		}
	}
	return nil
}

// expand walks run × dfa from one node and returns the set of nodes reached
// in an accepting state; the start node itself is included when the start
// state accepts (the empty path). backward walks incoming edges instead of
// outgoing ones.
func expand(run *derive.Run, dfa *automata.DFA, from derive.NodeID, backward bool) map[derive.NodeID]bool {
	hits := map[derive.NodeID]bool{}
	rel.Walk(run, dfa, from, dfa.Start, backward, func(n derive.NodeID, q int) bool {
		if dfa.Accept[q] {
			hits[n] = true
		}
		return true
	})
	return hits
}

func allIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func collect(in []bool) []int {
	var out []int
	for i, ok := range in {
		if ok {
			out = append(out, i)
		}
	}
	return out
}
