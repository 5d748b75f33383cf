package provrpq

import (
	"provrpq/internal/baseline"
	"provrpq/internal/derive"
)

// G1AllPairs is AllPairs answered by the relational baseline (Option G1): the
// query's whole relation over the run, matched against l1 × l2 in nested-loop
// order. The tests hold the engine's strategies against it.
func G1AllPairs(e *Engine, q *Query, l1, l2 []NodeID) []Pair {
	var out []Pair
	baseline.NewG1(e.index()).AllPairs(q.node, toDerive(l1), toDerive(l2), func(i, j int) {
		out = append(out, Pair{From: l1[i], To: l2[j]})
	})
	return out
}

// ReopenColumnar returns r reopened from its columnar encoding the way the
// durable store boots a run: labels stay encoded and the adjacency is built
// on first use.
func ReopenColumnar(r *Run) (*Run, error) {
	data, err := derive.EncodeColumnar(r.r)
	if err != nil {
		return nil, err
	}
	dr, err := derive.OpenColumnar(r.spec.s, data)
	if err != nil {
		return nil, err
	}
	return &Run{r: dr, spec: r.spec}, nil
}

// WalkTests returns the bucket-pair tests the label walks behind r made.
func WalkTests(r *Rows) int { return r.r.Work.Tests }
