package core

import (
	"testing"

	"provrpq/internal/automata"
	"provrpq/internal/baseline"
	"provrpq/internal/derive"
	"provrpq/internal/wf"
)

// TestRelaxSafetyAcceptsMore: a*.b on the fork spec is unsafe under
// Definition 12 (the post-b state behaves differently across executions of
// M) but safe under context-restricted safety, because no path can arrive
// at M's input in the post-b state (b only occurs at the very end of runs).
func TestRelaxSafetyAcceptsMore(t *testing.T) {
	spec := wf.ForkSpec()
	cases := []struct {
		q       string
		strict  bool
		relaxed bool
	}{
		{"a*", true, true},
		{"a*.b", false, true},
		{"a+.b", false, false}, // genuinely unsafe: j=0 vs j>0 executions differ from the start state
		{"a+", false, false},
		{"_+", false, false}, // the ambiguity is on the start state itself
	}
	for _, c := range cases {
		env := compile(t, spec, c.q)
		if env.Safe() != c.strict {
			t.Errorf("strict Safe(%q) = %v, want %v", c.q, env.Safe(), c.strict)
			continue
		}
		got := env.RelaxSafety()
		if got != c.relaxed {
			t.Errorf("RelaxSafety(%q) = %v, want %v", c.q, got, c.relaxed)
		}
	}
}

// TestRelaxedDecodeMatchesOracle: decoding with a relaxed-safe environment
// must agree with the product-BFS ground truth pair-for-pair.
func TestRelaxedDecodeMatchesOracle(t *testing.T) {
	spec := wf.ForkSpec()
	for _, qs := range []string{"a*.b", "a*"} {
		env := compile(t, spec, qs)
		if !env.RelaxSafety() {
			t.Fatalf("%q should be relaxed-safe", qs)
		}
		for seed := int64(0); seed < 6; seed++ {
			run, err := derive.Derive(spec, derive.Options{Seed: seed, TargetEdges: 150})
			if err != nil {
				t.Fatal(err)
			}
			oracle := baseline.NewOracle(run, automata.MustParse(qs))
			dec := env.NewDecoder()
			n := run.NumNodes()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					u, v := derive.NodeID(i), derive.NodeID(j)
					got := dec.PairwiseUnchecked(run.Label(u), run.Label(v))
					if want := oracle.Pairwise(u, v); got != want {
						t.Fatalf("seed %d %q (%s,%s): relaxed decode %v oracle %v",
							seed, qs, run.Nodes[i].Name, run.Nodes[j].Name, got, want)
					}
				}
			}
		}
	}
}

// TestRelaxSafetyIdempotentOnSafe: relaxing an already safe query is a
// no-op returning true.
func TestRelaxSafetyIdempotentOnSafe(t *testing.T) {
	env := compile(t, wf.PaperSpec(), "_*.e._*")
	if !env.Safe() || !env.RelaxSafety() || !env.Safe() {
		t.Error("RelaxSafety on safe env should stay safe")
	}
}

// TestRelaxSafetyOnDatasets: the relaxed check accepts a superset of the
// strict check on random dataset queries, and never accepts a query whose
// decode would then disagree with the oracle (spot-checked).
func TestRelaxSafetyPreservesUnsafeWitness(t *testing.T) {
	env := compile(t, wf.ForkSpec(), "a+")
	if env.RelaxSafety() {
		t.Fatal("a+ should stay unsafe")
	}
	if env.Safe() {
		t.Error("failed relaxation must leave Safe=false")
	}
	// The original strict λ table must still be in place for diagnostics.
	if env.Lambda() == nil {
		t.Error("lambda table lost after failed relaxation")
	}
}
