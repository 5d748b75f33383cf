package provrpq

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"provrpq/internal/automata"
	"provrpq/internal/baseline"
	"provrpq/internal/core"
	"provrpq/internal/derive"
	"provrpq/internal/label"
	"provrpq/internal/plan"
	"provrpq/internal/reach"
	"provrpq/internal/workload"
)

// TestEnumeratedCells checks the paper's two label guarantees on every small
// query and run: for each of workload.SmallSpecs, every language of at most
// enumLeaves leaf symbols and every query it names, on every run of at most
// enumNodes nodes. Each evaluator answers the product-BFS oracle's pair
// list, repeats included (Defs. 12/13, Lemma 3.2):
//   - every query: Engine.Pairwise on every pair, the seeded AllPairs and
//     EvaluateRows;
//   - a safe one also: the vector and matrix decodes on every pair, SafeRows
//     under RPL and OptRPL, plan.SeededRows, and AllPairs under RPL and
//     OptRPL;
//   - an unsafe one also: General.Eval under each GeneralStrategy.
//
// And every run, cut after every node and grown back by appending the rest,
// gives each node the label bytes its derivation gave it (Sec. II-B).
func TestEnumeratedCells(t *testing.T) {
	for _, s := range workload.SmallSpecs() {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			derived, err := workload.Runs(s.Spec, enumNodes)
			if err != nil {
				t.Fatal(err)
			}
			var runs []*enumRun
			for _, dr := range derived {
				checkGrowth(t, dr)
				labels := dr.MaterializeLabels()
				runs = append(runs, &enumRun{dr, NewEngine(&Run{r: dr, spec: &Spec{s: dr.Spec}}), labels, reach.NewTrie(labels)})
			}
			queries := workload.Languages(s.Spec, enumLeaves[s.Name])
			languages, safe := len(queries), 0
			for _, q := range s.Named {
				queries = append(queries, automata.MustParse(q))
			}
			for i, q := range queries {
				env, err := sharedPlans.Get(s.Spec, q)
				if err != nil {
					t.Fatal(err)
				}
				if env.Safe() && i < languages {
					safe++
				}
				for _, r := range runs {
					r.check(t, env, q.String())
				}
			}
			t.Logf("%s, k=%d, m=%d: %d languages (%d safe) + %d named queries, %d runs, %d cells", s.Name,
				enumLeaves[s.Name], enumNodes, languages, safe, len(queries)-languages, len(runs), len(queries)*len(runs))
		})
	}
}

// checkGrowth cuts dr after every node, appends the rest back as one batch,
// and compares every node's label bytes with the whole derivation's.
func checkGrowth(t *testing.T, dr *derive.Run) {
	t.Helper()
	data, err := derive.EncodeRun(dr)
	if err != nil {
		t.Fatal(err)
	}
	n := dr.NumNodes()
	for c := 1; c < n; c++ {
		baseData, batches := splitEncodedRun(t, data, []int{c, n})
		base, err := derive.DecodeRun(dr.Spec, baseData)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := derive.DecodeBatch(dr.Spec, batches[0])
		if err != nil {
			t.Fatal(err)
		}
		grown, _, err := base.Grow(batch)
		if err != nil {
			t.Fatal(err)
		}
		for u := range derive.NodeID(n) {
			if !bytes.Equal(grown.LabelBytes(u), dr.LabelBytes(u)) || int(u) < c && !bytes.Equal(base.LabelBytes(u), dr.LabelBytes(u)) {
				t.Fatalf("%v cut after %d nodes: %s is labelled %s grown, %s derived", dr.Nodes, c, dr.Nodes[u].Name, grown.Label(u), dr.Label(u))
			}
		}
	}
}

// enumRun is one enumerated run with its engine and the label forms the
// evaluators read.
type enumRun struct {
	dr     *derive.Run
	eng    *Engine
	labels []label.Label
	trie   *reach.Trie
}

// check holds every evaluator of env's query against the oracle on r.
func (r *enumRun) check(t *testing.T, env *core.Env, qs string) {
	t.Helper()
	// An engine pins every plan it resolves; thousands of pinned plans would
	// make the collector, not the evaluators, the cost.
	defer r.eng.envMemo.Clear()
	ctx, q, all, n := context.Background(), MustParseQuery(qs), r.eng.run.AllNodes(), r.dr.NumNodes()
	var want []Pair
	match := make([]bool, n*n)
	baseline.NewOracle(r.dr, env.Query).AllPairs(toDerive(all), toDerive(all), func(i, j int) {
		want, match[i*n+j] = append(want, Pair{NodeID(i), NodeID(j)}), true
	})
	sortPairs(want)
	points := map[string]func(u, v int) (bool, error){
		"Engine.Pairwise": func(u, v int) (bool, error) { return r.eng.Pairwise(q, NodeID(u), NodeID(v)) },
	}
	lists := map[string]func() ([]Pair, error){
		"EvaluateRows": func() ([]Pair, error) {
			rows, _, err := r.eng.EvaluateRows(ctx, q, 0, -1)
			if err != nil {
				return nil, err
			}
			return rows.Pairs(), nil
		},
	}
	strategies := []Strategy{StrategySeeded}
	if env.Safe() {
		dec := env.NewDecoder()
		points["PairwiseUnchecked"] = func(u, v int) (bool, error) { return dec.PairwiseUnchecked(r.labels[u], r.labels[v]), nil }
		points["PairwiseMatrix"] = func(u, v int) (bool, error) { return env.PairwiseMatrix(r.labels[u], r.labels[v]) }
		lists["SafeRows(RPL)"] = func() ([]Pair, error) { return rowPairs(env.SafeRows(ctx, r.labels, core.RPL, 0, -1)) }
		lists["SafeRows(OptRPL)"] = func() ([]Pair, error) { return rowPairs(env.SafeRows(ctx, r.labels, core.OptRPL, 0, -1)) }
		lists["SeededRows"] = func() ([]Pair, error) {
			return rowPairs(plan.SeededRows(ctx, env, r.eng.index(), plan.Decision{}, func() *reach.Trie { return r.trie }, 0, -1))
		}
		strategies = append(strategies, StrategyRPL, StrategyOptRPL)
	} else {
		for _, st := range []core.GeneralStrategy{core.LargestSafeSubtree, core.CostBased, core.RelationalOnly} {
			lists[fmt.Sprintf("General.Eval(%d)", st)] = func() ([]Pair, error) {
				rel, _, err := core.NewGeneralOpts(r.dr, r.eng.index(), st, core.GeneralOptions{Envs: sharedPlans}).Eval(env.Query)
				var got []Pair
				if err == nil {
					rel.Each(func(u, v derive.NodeID) { got = append(got, Pair{NodeID(u), NodeID(v)}) })
				}
				return got, err
			}
		}
	}
	for _, st := range strategies {
		lists["AllPairs("+st.String()+")"] = func() ([]Pair, error) { return r.eng.AllPairs(q, all, all, st) }
	}
	for what, answer := range points {
		for u := range n {
			for v := range n {
				if got, err := answer(u, v); err != nil || got != match[u*n+v] {
					t.Fatalf("%v, %q: %s(%s, %s) = %v, %v; oracle %v", r.dr.Nodes, qs, what,
						r.dr.Nodes[u].Name, r.dr.Nodes[v].Name, got, err, match[u*n+v])
				}
			}
		}
	}
	for what, list := range lists {
		got, err := list()
		if sortPairs(got); err != nil || !slices.Equal(got, want) {
			t.Fatalf("%v, %q: %s answered %v, %v; oracle %v", r.dr.Nodes, qs, what, got, err, want)
		}
	}
}

// rowPairs lists the pairs of core rows in row order.
func rowPairs(rows *core.Rows, err error) ([]Pair, error) {
	var out []Pair
	if err == nil {
		rows.Each(func(u int, to []int32) bool {
			for _, v := range to {
				out = append(out, Pair{NodeID(u), NodeID(v)})
			}
			return true
		})
	}
	return out, err
}
