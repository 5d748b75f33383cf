package core

import (
	"provrpq/internal/label"
	"provrpq/internal/reach"
)

// AllPairsStrategy selects how a safe all-pairs query is evaluated.
type AllPairsStrategy int

const (
	// RPL is the paper's Option S1: a nested-loop scan testing every pair
	// with the constant-time pairwise decode. Θ(|l1|·|l2|) decode calls.
	RPL AllPairsStrategy = iota
	// OptRPL is Option S2 run over the query-intersected grammar: one walk
	// of the two lists' tree representations that carries DFA state vectors
	// (walk.go), so a label's decode factors are applied once per tree node
	// rather than once per pair and subtrees no match can come from are
	// never enumerated. O((|l1|+|l2|)·depth·G) vector steps plus the output,
	// G the number of distinct live state vectors: a recursion chain is
	// swept once per direction, not pair by pair.
	OptRPL
)

// AllPairsSafeParallel evaluates the safe all-pairs query over two label
// lists and emits each matching pair by list indices, serially on the
// calling goroutine: RPL in l1-major nested-loop order, OptRPL in the walk's
// order over one trie per list — one trie in all when l1 is l2. Nothing
// built for a scan outlives it. The worker count is ignored: it is kept only
// because the benchmark module still compiles against it (ROADMAP item 1a
// deletes it).
func (e *Env) AllPairsSafeParallel(l1, l2 []label.Label, strategy AllPairsStrategy, _ int, emit func(i, j int)) error {
	if !e.Safe() {
		return ErrUnsafe
	}
	if strategy == RPL {
		return e.rplPairs(nil, l1, l2, emit)
	}
	t2 := reach.NewTrie(l2)
	t1 := t2
	if !sameList(l1, l2) {
		t1 = reach.NewTrie(l1)
	}
	return e.AllPairsSafeTries(t1, t2, emit)
}

// sameList reports whether a and b are one slice.
func sameList(a, b []label.Label) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// rplPairs is the RPL scan; once done fires (nil never does) it stops at its
// next l1 label.
func (e *Env) rplPairs(done <-chan struct{}, l1, l2 []label.Label, emit func(i, j int)) error {
	d := e.decoder()
	if d == nil {
		return ErrUnsafe
	}
	defer e.release(d)
	for i, a := range l1 {
		select {
		case <-done:
			return nil
		default:
		}
		for j, b := range l2 {
			if d.PairwiseUnchecked(a, b) {
				emit(i, j)
			}
		}
	}
	return nil
}
