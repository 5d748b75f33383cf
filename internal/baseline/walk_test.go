package baseline

import (
	"testing"

	"provrpq/internal/automata"
	"provrpq/internal/derive"
	"provrpq/internal/rel"
	"provrpq/internal/wf"
)

// TestWalkReportsEachLiveStateOnce: from every node the walk reports exactly
// the (node, state) pairs the oracle's own search reaches, minus the dead
// state, each once; a visit returning false ends it at that call.
func TestWalkReportsEachLiveStateOnce(t *testing.T) {
	run := testRun(t, wf.PaperSpec(), 1, 80)
	for _, qs := range crossQueries {
		o := NewOracle(run, automata.MustParse(qs))
		dead := o.dfa.DeadState()
		for _, u := range run.AllNodes() {
			type ns struct {
				n derive.NodeID
				q int
			}
			seen := map[ns]bool{}
			rel.Walk(run, o.dfa, u, o.dfa.Start, false, func(n derive.NodeID, q int) bool {
				if q == dead {
					t.Fatalf("%s from %d: dead state reported at node %d", qs, u, n)
				}
				if seen[ns{n, q}] {
					t.Fatalf("%s from %d: (%d, %d) reported twice", qs, u, n, q)
				}
				seen[ns{n, q}] = true
				return true
			})
			want := 0
			for n, states := range o.statesAt(u) {
				for _, q := range states {
					if q == dead {
						continue
					}
					want++
					if !seen[ns{derive.NodeID(n), q}] {
						t.Fatalf("%s from %d: (%d, %d) not reported", qs, u, n, q)
					}
				}
			}
			if len(seen) != want {
				t.Fatalf("%s from %d: %d pairs reported, oracle reaches %d", qs, u, len(seen), want)
			}
			for _, stopAt := range []int{1, (want + 1) / 2, want} {
				if stopAt == 0 {
					continue
				}
				calls := 0
				rel.Walk(run, o.dfa, u, o.dfa.Start, false, func(derive.NodeID, int) bool {
					calls++
					return calls < stopAt
				})
				if calls != stopAt {
					t.Fatalf("%s from %d: visit returned false at call %d, walk made %d", qs, u, stopAt, calls)
				}
			}
		}
	}
}

// TestWalkBackwardOverReverse: walking incoming edges with the DFA of the
// reversed query finds, from v, exactly the sources the forward walk of the
// query finds v from.
func TestWalkBackwardOverReverse(t *testing.T) {
	run := testRun(t, wf.PaperSpec(), 2, 80)
	for _, qs := range crossQueries {
		q := automata.MustParse(qs)
		dfa := automata.CompileDFA(q, run.Spec.Tags())
		rdfa := automata.CompileDFA(q.Reverse(), run.Spec.Tags())
		fwd, bwd := rel.NewRel(), rel.NewRel()
		for _, x := range run.AllNodes() {
			rel.Walk(run, dfa, x, dfa.Start, false, func(v derive.NodeID, s int) bool {
				if dfa.Accept[s] {
					fwd.Add(x, v)
				}
				return true
			})
			rel.Walk(run, rdfa, x, rdfa.Start, true, func(u derive.NodeID, s int) bool {
				if rdfa.Accept[s] {
					bwd.Add(u, x)
				}
				return true
			})
		}
		sameRel(t, "backward "+qs, bwd, fwd, run)
		sameRel(t, "forward "+qs, fwd, relFromOracle(run, q), run)
	}
}
