package core

import (
	"fmt"
	"math/rand"
	"testing"

	"provrpq/internal/derive"
	"provrpq/internal/reach"
	"provrpq/internal/workload"
)

// standingRun derives one dataset run, fork-favoured as Fig. 13g/h's
// workload is or plain.
func standingRun(t *testing.T, d *workload.Dataset, fork bool, edges int) *derive.Run {
	t.Helper()
	o := derive.Options{Seed: 1, TargetEdges: edges}
	if fork {
		o.FavorModules, o.FavorCaps = d.ForkFavor, d.ForkCaps
	}
	run, err := derive.Derive(d.Spec, o)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestStandingDeltaEqualsNestedLoop is the stateful differential of the
// standing-query evaluator: one Standing follows a stream of batches — sizes
// 1, 3, 64 and edges-only, across several rebuilds — and every event's delta
// must be, pair for pair and with no duplicate, what the nested pairwise
// decode loop over (batch × run) finds. That loop lives here and nowhere in
// the product. The running total must also equal a full evaluation at every
// version: snapshot ∪ deltas = full.
func TestStandingDeltaEqualsNestedLoop(t *testing.T) {
	for _, d := range []*workload.Dataset{workload.BioAID(), workload.QBLast()} {
		r := rand.New(rand.NewSource(7))
		// A tag that occurs once cannot occur twice on a path.
		once := d.HighSelGroups[0][0]
		queries := []string{d.StarQuery(), "(a|fl)*", "_*", d.SafeIFQ(r, 3, true), d.SafeIFQ(r, 2, false),
			workload.IFQ(once, once)}
		for _, fork := range []bool{false, true} {
			run := standingRun(t, d, fork, 2500)
			n := run.NumNodes()
			if n < 2500 {
				t.Fatalf("%s: run of %d nodes, want at least 2500", d.Name, n)
			}
			labels := run.MaterializeLabels()
			for qi, q := range queries {
				t.Run(fmt.Sprintf("%s/fork=%v/%s", d.Name, fork, q), func(t *testing.T) {
					t.Parallel()
					env := compile(t, d.Spec, q)
					s, err := env.NewStanding()
					if err != nil {
						t.Fatal(err)
					}
					dec := env.NewDecoder()
					count := func(hi int) (total int) {
						trie := reach.NewTrie(labels[:hi])
						dec.newWalk(trie, trie, dec.leafVectors(trie, true), dec.leafVectors(trie, false)).run(func(b block) {
							total += len(b.xs) * len(b.ys)
						})
						return total
					}
					lo := n - 220
					total := count(lo)
					for ev, sizes := 0, []int{1, 3, 64, 0}; lo < n; ev++ {
						hi := min(lo+sizes[ev%len(sizes)], n)
						got := map[[2]int]bool{}
						s.Delta(run, lo, hi, func(from, to int) {
							if got[[2]int{from, to}] {
								t.Fatalf("event %d [%d,%d): pair (%d,%d) emitted twice", ev, lo, hi, from, to)
							}
							got[[2]int{from, to}] = true
						})
						want := 0
						check := func(u, v int) {
							if !dec.PairwiseUnchecked(labels[u], labels[v]) {
								return
							}
							if want++; !got[[2]int{u, v}] {
								t.Fatalf("event %d [%d,%d): pair (%d,%d) missing from the delta", ev, lo, hi, u, v)
							}
						}
						for u := lo; u < hi; u++ {
							for v := 0; v < hi; v++ {
								check(u, v)
								if v < lo {
									check(v, u)
								}
							}
						}
						if len(got) != want {
							t.Fatalf("event %d [%d,%d): delta has %d pairs, the nested loop %d", ev, lo, hi, len(got), want)
						}
						if total += want; total != count(hi) {
							t.Fatalf("event %d [%d,%d): snapshot+deltas has %d pairs, full evaluation %d", ev, lo, hi, total, count(hi))
						}
						lo = hi
					}
					if s.Rebuilds < 3 {
						t.Fatalf("%d rebuilds over the stream, want at least 3", s.Rebuilds)
					}
					if qi == len(queries)-1 && total != 0 {
						t.Fatalf("%d matches of a query that should match nothing", total)
					}
				})
			}
		}
	}
}

// TestStandingDeltaWorkIndependentOfRunSize pins the evaluator's bound,
// O(batch · depth · groups + output): between two BioAID runs, one four times
// the other, the bucket-pair tests of a steady event must not grow with the
// run. That holds on fork-favoured runs, whose fork chains are capped, and on
// plain ones, where every loop chain lengthens with the run: a Case 2 sweep
// tests a batch iteration once per group of carried vectors, not once per
// earlier iteration of its chain.
func TestStandingDeltaWorkIndependentOfRunSize(t *testing.T) {
	t.Parallel()
	d := workload.BioAID()
	env := compile(t, d.Spec, "_*.p3_1._*.p2_13._*")
	perEvent := func(fork bool, edges int) float64 {
		run := standingRun(t, d, fork, edges)
		s, err := env.NewStanding()
		if err != nil {
			t.Fatal(err)
		}
		tests, events, n := 0, 0, run.NumNodes()
		for lo := n / 2; lo+3 <= n; lo += 3 {
			before := s.Rebuilds
			if work := s.Delta(run, lo, lo+3, func(int, int) {}); s.Rebuilds == before {
				tests += work.Tests
				events++
			}
		}
		t.Logf("fork=%v: %d nodes, %d steady events, %.0f bucket-pair tests each", fork, n, events, float64(tests)/float64(events))
		return float64(tests) / float64(events)
	}
	for _, fork := range []bool{true, false} {
		small, large := perEvent(fork, 3000), perEvent(fork, 12000)
		if large > 2*small {
			t.Errorf("fork=%v: %.0f bucket-pair tests per steady event at 12K nodes, %.0f at 3K: the delta grew with the run", fork, large, small)
		}
	}
}
