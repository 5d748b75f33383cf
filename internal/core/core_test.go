package core

import (
	"context"
	"slices"
	"testing"

	"provrpq/internal/automata"
	"provrpq/internal/baseline"
	"provrpq/internal/derive"
	"provrpq/internal/label"
	"provrpq/internal/wf"
)

func compile(t *testing.T, spec *wf.Spec, q string) *Env {
	t.Helper()
	e, err := Compile(spec, automata.MustParse(q))
	if err != nil {
		t.Fatalf("Compile(%q): %v", q, err)
	}
	return e
}

func TestSafetyVerdictsPaperSpec(t *testing.T) {
	spec := wf.PaperSpec()
	cases := []struct {
		q    string
		safe bool
	}{
		{"_*", true},           // reachability is safe for every workflow
		{"_*.e._*", true},      // paper's R3: A always terminates through W3's e edge
		{"_*.A._*", false},     // analogue of the paper's unsafe _*a_*: only W2 executions carry an A tag
		{"_*.d._*", false},     // d occurs only in W2 executions of A
		{"_*.b._*", true},      // b occurs in every execution of S and B, never inside A
		{"e", false},           // paper's R4
		{"_+", true},           // at least one edge: every composite consumes one
		{"ε", true},            // empty-path query: trivially deterministic
		{"b|e", false},         // distinguishes W2 from W3 executions of A
		{"_*.e._*.e._*", true}, // two e's: W2 recursions preserve the count reached
	}
	for _, c := range cases {
		e := compile(t, spec, c.q)
		if e.Safe() != c.safe {
			t.Errorf("Safe(%q) = %v, want %v (witness module %d prod %d)",
				c.q, e.Safe(), c.safe, e.unsafeModule, e.unsafeProd)
		}
		if !e.Safe() && (e.unsafeModule < 0 || e.unsafeProd < 0) {
			t.Errorf("unsafe verdict for %q lacks a witness", c.q)
		}
	}
}

func TestSafetyVerdictsForkSpec(t *testing.T) {
	spec := wf.ForkSpec()
	// Every execution of M spells a^j (j >= 0) on its input-output path;
	// every execution of S spells a^j b.
	cases := []struct {
		q    string
		safe bool
	}{
		{"_*", true},
		{"a*", true},    // a^j keeps the a-loop state for every j
		{"a*.b", false}, // Def. 12 quantifies over ALL state pairs: the
		// post-b state survives M's ε path but dies on a^+ paths
		{"a+", false}, // distinguishes j = 0 from j > 0 executions of M
		{"a+.b", false},
		{"_+", false}, // M's base execution has an empty path
		{"ε", false},
	}
	for _, c := range cases {
		e := compile(t, spec, c.q)
		if e.Safe() != c.safe {
			t.Errorf("Safe(%q) = %v, want %v", c.q, e.Safe(), c.safe)
		}
	}
}

func TestUnsafeEntryPointsReject(t *testing.T) {
	spec := wf.PaperSpec()
	e := compile(t, spec, "_*.A._*")
	if _, err := e.PairwiseBytes(label.Label{label.Prod(0, 0)}.Encode(), label.Label{label.Prod(0, 3)}.Encode()); err != ErrUnsafe {
		t.Errorf("PairwiseBytes on unsafe query: err = %v, want ErrUnsafe", err)
	}
	if err := e.AllPairsSafeParallel(nil, nil, OptRPL, 1, func(i, j int) {}); err != ErrUnsafe {
		t.Errorf("AllPairsSafeParallel on unsafe query: err = %v, want ErrUnsafe", err)
	}
}

func TestLambdaPaperSpecR3(t *testing.T) {
	// For R3 = _*e_*, λ(A) must map q0 to the accepting state (every
	// execution of A passes an e edge) and λ(B) must keep states unchanged.
	spec := wf.PaperSpec()
	e := compile(t, spec, "_*.e._*")
	if !e.Safe() {
		t.Fatal("R3 should be safe")
	}
	if e.NQ != 2 {
		t.Fatalf("NQ = %d, want 2", e.NQ)
	}
	q0 := e.DFA.Start
	qf := -1
	for q := 0; q < e.NQ; q++ {
		if e.DFA.Accept[q] {
			qf = q
		}
	}
	aMod, _ := spec.ModuleByName("A")
	bMod, _ := spec.ModuleByName("B")
	sMod, _ := spec.ModuleByName("S")
	if la := e.lambda[aMod]; !la.Get(q0, qf) || la.Get(q0, q0) || !la.Get(qf, qf) {
		t.Errorf("λ(A) = %s: want q0->qf only from q0", la)
	}
	if lb := e.lambda[bMod]; !lb.Get(q0, q0) || lb.Get(q0, qf) || !lb.Get(qf, qf) {
		t.Errorf("λ(B) = %s: want state-preserving", lb)
	}
	if ls := e.lambda[sMod]; !ls.Get(q0, qf) || ls.Get(q0, q0) {
		t.Errorf("λ(S) = %s: S's executions always pass e", ls)
	}
}

// scriptW2W2W3 reproduces the paper's sample run.
func scriptW2W2W3(m wf.ModuleID, prods []int, iter int) int {
	if len(prods) == 1 {
		return prods[0]
	}
	if iter < 3 {
		return 1
	}
	return 2
}

func TestPairwiseR3OnPaperRun(t *testing.T) {
	spec := wf.PaperSpec()
	run, err := derive.Derive(spec, derive.Options{Policy: scriptW2W2W3})
	if err != nil {
		t.Fatal(err)
	}
	e := compile(t, spec, "_*.e._*")
	cases := []struct {
		u, v string
		want bool
	}{
		{"c:1", "b:3", true},  // the chain passes the e edge inside A's base case
		{"c:1", "a:2", false}, // before the e edge
		{"e:1", "e:2", true},  // the e edge itself
		{"e:2", "d:1", false}, // after the e edge, no second e
		{"a:1", "d:2", true},  // crosses the nested base case
		{"b:1", "b:2", false},
		{"c:1", "c:1", false}, // ε not in L(R3)
	}
	for _, c := range cases {
		u, _ := run.NodeByName(c.u)
		v, _ := run.NodeByName(c.v)
		got, err := e.PairwiseBytes(run.LabelBytes(u), run.LabelBytes(v))
		if err != nil {
			t.Fatalf("PairwiseBytes: %v", err)
		}
		if got != c.want {
			t.Errorf("R3(%s, %s) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

// TestPairwiseMatchesOracle: on every enumerated specification × run × safe
// query, the vector decode of two labels answers the product-BFS oracle on
// every node pair (Defs. 12/13, Lemma 3.2).
func TestPairwiseMatchesOracle(t *testing.T) {
	for _, e := range enumerate(t) {
		for _, run := range e.runs {
			labels := run.MaterializeLabels()
			for _, env := range e.safe {
				oracle := baseline.NewOracle(run, env.Query)
				dec := env.NewDecoder()
				for u := range labels {
					for v := range labels {
						got := dec.PairwiseUnchecked(labels[u], labels[v])
						if want := oracle.Pairwise(derive.NodeID(u), derive.NodeID(v)); got != want {
							t.Fatalf("%s %v, %q: Pairwise(%s, %s) = %v, oracle %v\nlabels %s | %s", e.name, run.Nodes, env.Query,
								run.Nodes[u].Name, run.Nodes[v].Name, got, want, labels[u], labels[v])
						}
					}
				}
			}
		}
	}
}

// TestVectorAndMatrixDecodeAgree cross-checks the row-vector fast path
// against the full matrix-product decode on every node pair of every
// enumerated specification × run × safe query.
func TestVectorAndMatrixDecodeAgree(t *testing.T) {
	for _, e := range enumerate(t) {
		for _, run := range e.runs {
			labels := run.MaterializeLabels()
			for _, env := range e.safe {
				dec := env.NewDecoder()
				for u := range labels {
					for v := range labels {
						fast := dec.PairwiseUnchecked(labels[u], labels[v])
						slow, err := env.PairwiseMatrix(labels[u], labels[v])
						if err != nil || fast != slow {
							t.Fatalf("%s %v, %q (%s, %s): vector=%v matrix=%v, %v", e.name, run.Nodes, env.Query,
								run.Nodes[u].Name, run.Nodes[v].Name, fast, slow, err)
						}
					}
				}
			}
		}
	}
}

// TestAllPairsStrategiesAgree: on every enumerated specification × run ×
// safe query, the rows of the RPL nested loop and of the OptRPL walk over the
// whole run list the oracle's pairs, each once.
func TestAllPairsStrategiesAgree(t *testing.T) {
	ctx := context.Background()
	for _, e := range enumerate(t) {
		for _, run := range e.runs {
			labels, all := run.MaterializeLabels(), run.AllNodes()
			for _, env := range e.safe {
				var want [][2]int
				baseline.NewOracle(run, env.Query).AllPairs(all, all, func(i, j int) { want = append(want, [2]int{i, j}) })
				sortIndexPairs(want)
				for _, s := range []AllPairsStrategy{RPL, OptRPL} {
					rows, err := env.SafeRows(ctx, labels, s, 0, -1)
					if err != nil {
						t.Fatal(err)
					}
					var got [][2]int
					rows.Each(func(u int, to []int32) bool {
						for _, v := range to {
							got = append(got, [2]int{u, int(v)})
						}
						return true
					})
					if sortIndexPairs(got); !slices.Equal(got, want) {
						t.Fatalf("%s %v, %q: strategy %d found %d pairs, oracle %d (first diff %s)", e.name, run.Nodes, env.Query,
							s, len(got), len(want), firstDiff(got, want))
					}
				}
			}
		}
	}
}

func TestDeepRecursionChainPowers(t *testing.T) {
	// Long fork chains force the chain caches through many loop powers.
	spec := wf.ForkSpec()
	run, err := derive.Derive(spec, derive.Options{Seed: 1, TargetEdges: 3000, FavorModule: "M"})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"a*", "_*"} {
		env := compile(t, spec, q)
		if !env.Safe() {
			t.Fatalf("%q unexpectedly unsafe", q)
		}
		oracle := baseline.NewOracle(run, automata.MustParse(q))
		as := run.NodesOfModule("a")
		bs := run.NodesOfModule("b")
		// Sample far-apart pairs along the chain.
		pairs := [][2]derive.NodeID{
			{as[0], bs[len(bs)-1]},
			{as[0], bs[0]},
			{as[len(as)/2], bs[len(bs)-1]},
			{as[len(as)-1], bs[0]},
			{as[0], as[len(as)-1]},
			{as[3], as[4]},
		}
		for _, p := range pairs {
			got, err := env.PairwiseBytes(run.LabelBytes(p[0]), run.LabelBytes(p[1]))
			if err != nil {
				t.Fatal(err)
			}
			if want := oracle.Pairwise(p[0], p[1]); got != want {
				t.Fatalf("query %q pair (%s,%s): got %v want %v", q,
					run.Nodes[p[0]].Name, run.Nodes[p[1]].Name, got, want)
			}
		}
	}
}

// TestSafetyMeansExecutionMatricesAgree validates the safety checker
// against sampled executions: for a safe query, every sampled execution of
// every composite module must exhibit exactly λ(M).
func TestSafetyMeansExecutionMatricesAgree(t *testing.T) {
	spec := wf.PaperSpec()
	for _, q := range []string{"_*.e._*", "_*", "_*.b._*", "_+"} {
		env := compile(t, spec, q)
		if !env.Safe() {
			t.Fatalf("%q unexpectedly unsafe", q)
		}
		for m := range spec.Modules {
			mod := wf.ModuleID(m)
			if !spec.IsComposite(mod) {
				continue
			}
			for seed := int64(0); seed < 10; seed++ {
				run, err := derive.DeriveFrom(spec, mod, derive.Options{Seed: seed, TargetEdges: 40})
				if err != nil {
					t.Fatal(err)
				}
				got := executionMatrix(env, run)
				if !got.Eq(env.lambda[mod]) {
					t.Fatalf("query %q module %s seed %d: execution matrix %s != λ %s",
						q, spec.Name(mod), seed, got, env.lambda[mod])
				}
			}
		}
	}
}

// executionMatrix computes the input-to-output transition matrix of a
// materialized execution by forward DP (ground truth for λ).
func executionMatrix(env *Env, run *derive.Run) Mat {
	n := run.NumNodes()
	// Find source and sink.
	indeg := make([]int, n)
	outdeg := make([]int, n)
	for _, e := range run.Edges {
		indeg[e.To]++
		outdeg[e.From]++
	}
	src, sink := -1, -1
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			src = i
		}
		if outdeg[i] == 0 {
			sink = i
		}
	}
	// at[v][q][q'] accumulated as Mat per node; topological by Kahn.
	at := make([]Mat, n)
	at[src] = Identity(env.NQ)
	deg := append([]int(nil), indeg...)
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ei := range run.Out(derive.NodeID(v)) {
			e := run.Edges[ei]
			step := at[v].Mul(env.tagMat(e.Tag))
			if at[e.To] == nil {
				at[e.To] = step
			} else {
				at[e.To].OrInPlace(step)
			}
			deg[e.To]--
			if deg[e.To] == 0 {
				queue = append(queue, int(e.To))
			}
		}
	}
	return at[sink]
}
