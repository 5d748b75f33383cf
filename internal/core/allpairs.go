package core

import (
	"provrpq/internal/label"
	"provrpq/internal/parallel"
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
	// never enumerated. O((|l1|+|l2|)·depth) vector steps plus the output.
	OptRPL
)

// rplParallelCutoff is the nested-loop pair-count floor below which the RPL
// scan stays on one worker, and optParallelCutoff the l1 size floor for
// OptRPL: goroutine fan-out only pays off once there is enough per-shard
// work to amortize it. The walk costs under a microsecond per label and the
// l2 half of it (one trie, one set of vectors) is not sharded, so two
// workers measured no gain below several thousand labels.
const (
	rplParallelCutoff = 2048
	optParallelCutoff = 4096
)

// AllPairsSafeParallel evaluates the safe all-pairs query over two label
// lists and emits each matching pair by list indices, sharded across a
// bounded worker pool of the given size (0 means one worker per CPU; 1, or
// a scan below the cut-offs, is the serial scan, run inline on the calling
// goroutine). l1 is split into contiguous shards, each scanned by its own
// goroutine with its own Decoder; per-shard emits are buffered and merged
// in shard order, so the emit callback runs on the calling goroutine and —
// for a fixed worker count — observes a deterministic pair sequence. The
// RPL scan emits in l1-major nested-loop order whatever the worker count;
// the OptRPL scan walks each shard's own sub-trie against one shared l2
// trie (and its state vectors, built once), so its order is shard-major —
// the walk order with one worker — but the pair set is always identical.
// Nothing built for a scan outlives it.
func (e *Env) AllPairsSafeParallel(l1, l2 []label.Label, strategy AllPairsStrategy, workers int, emit func(i, j int)) error {
	if strategy == OptRPL {
		s, err := e.newOptScan(l1, l2, workers)
		if err != nil {
			return err
		}
		s.blocks(func(b block) { b.each(emit) })
		return nil
	}
	return e.rplPairs(nil, l1, l2, workers, emit)
}

// rplPairs is the RPL scan; once done fires (nil never does) every shard
// stops at its next l1 label.
func (e *Env) rplPairs(done <-chan struct{}, l1, l2 []label.Label, workers int, emit func(i, j int)) error {
	st := e.state.Load()
	if !st.safe {
		return ErrUnsafe
	}
	e.artifactsFor(st) // build once up front, not per worker
	if len(l1)*len(l2) < rplParallelCutoff {
		workers = 1
	}
	parallel.Gather(len(l1), workers, func(_, lo, hi int, out func([2]int)) {
		d := e.decoder() // pooled: each worker borrows a warm decoder
		defer e.release(d)
		for i := lo; i < hi; i++ {
			select {
			case <-done:
				return
			default:
			}
			for j, b := range l2 {
				if d.PairwiseUnchecked(l1[i], b) {
					out([2]int{i, j})
				}
			}
		}
	}, func(p [2]int) { emit(p[0], p[1]) })
	return nil
}
