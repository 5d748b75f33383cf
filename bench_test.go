package provrpq_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"provrpq"
	"provrpq/internal/automata"
	"provrpq/internal/bench"
	"provrpq/internal/core"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/label"
	"provrpq/internal/plan"
	"provrpq/internal/reach"
	"provrpq/internal/rel"
	"provrpq/internal/wf"
	"provrpq/internal/workload"
)

// Figure benchmarks: each regenerates one figure of the paper's evaluation
// on a reduced (Quick) workload so `go test -bench=.` stays tractable. Run
// `go run ./cmd/rpqbench -all` for the full-size sweeps recorded in
// EXPERIMENTS.md.

func benchFigure(b *testing.B, id string) {
	b.Helper()
	cfg := bench.Config{W: io.Discard, Quick: true, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bench.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13aOverheadGrammarSize(b *testing.B) { benchFigure(b, "13a") }
func BenchmarkFig13bOverheadQuerySize(b *testing.B)   { benchFigure(b, "13b") }
func BenchmarkFig13cPairwiseRunSize(b *testing.B)     { benchFigure(b, "13c") }
func BenchmarkFig13dPairwiseQuerySize(b *testing.B)   { benchFigure(b, "13d") }
func BenchmarkFig13eAllPairsIFQBioAID(b *testing.B)   { benchFigure(b, "13e") }
func BenchmarkFig13fAllPairsIFQQBLast(b *testing.B)   { benchFigure(b, "13f") }
func BenchmarkFig13gKleeneBioAID(b *testing.B)        { benchFigure(b, "13g") }
func BenchmarkFig13hKleeneQBLast(b *testing.B)        { benchFigure(b, "13h") }
func BenchmarkFig15aGeneralBioAID(b *testing.B)       { benchFigure(b, "15a") }
func BenchmarkFig15bGeneralQBLast(b *testing.B)       { benchFigure(b, "15b") }

// Micro-benchmarks of the core primitives.

func bioRun(b *testing.B, edges int) (*workload.Dataset, *derive.Run) {
	b.Helper()
	d := workload.BioAID()
	run, err := derive.Derive(d.Spec, derive.Options{Seed: 1, TargetEdges: edges})
	if err != nil {
		b.Fatal(err)
	}
	return d, run
}

// BenchmarkPairwiseSafeDecode measures the constant-time pairwise decode
// (Theorem 1) on random node pairs of a 2K-edge BioAID run.
func BenchmarkPairwiseSafeDecode(b *testing.B) {
	d, run := bioRun(b, 2000)
	r := rand.New(rand.NewSource(2))
	env, err := core.Compile(d.Spec, automata.MustParse(d.SafeIFQ(r, 3, true)))
	if err != nil {
		b.Fatal(err)
	}
	if !env.Safe() {
		b.Fatal("query should be safe")
	}
	n := run.NumNodes()
	pairs := make([][2]label.Label, 4096)
	for i := range pairs {
		pairs[i] = [2]label.Label{
			run.Label(derive.NodeID(r.Intn(n))),
			run.Label(derive.NodeID(r.Intn(n))),
		}
	}
	dec := env.NewDecoder() // hold one decoder: no pool traffic in the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		dec.PairwiseUnchecked(p[0], p[1])
	}
}

// BenchmarkCoarseReachabilityDecode measures the plain-reachability decode
// of the prior-work labeling (reconstruction of [4]).
func BenchmarkCoarseReachabilityDecode(b *testing.B) {
	_, run := bioRun(b, 2000)
	r := rand.New(rand.NewSource(3))
	n := run.NumNodes()
	pairs := make([][2]label.Label, 4096)
	for i := range pairs {
		pairs[i] = [2]label.Label{
			run.Label(derive.NodeID(r.Intn(n))),
			run.Label(derive.NodeID(r.Intn(n))),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		reach.Pairwise(run.Spec, p[0], p[1])
	}
}

// BenchmarkSafetyCheck measures Compile (minimal DFA + λ + safety verdict)
// on BioAID — the per-query overhead of Fig. 13a/b.
func BenchmarkSafetyCheck(b *testing.B) {
	d := workload.BioAID()
	r := rand.New(rand.NewSource(4))
	queries := make([]*automata.Node, 32)
	for i := range queries {
		queries[i] = automata.MustParse(d.SafeIFQ(r, 3, true))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(d.Spec, queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllPairsReachable measures Engine.AllPairsReachable, the
// output-linear all-pairs reachability (Lemma 4.1), over all nodes of a
// 2K-edge run.
func BenchmarkAllPairsReachable(b *testing.B) {
	d, dr := bioRun(b, 2000)
	run := rehydrate(b, d, dr)
	eng := provrpq.NewEngine(run)
	all := run.AllNodes()
	if _, err := eng.AllPairsReachable(all[:1], all[:1]); err != nil { // warm the plan and labels
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.AllPairsReachable(all, all); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLabelEncodeDecode measures the compact varint label codec.
func BenchmarkLabelEncodeDecode(b *testing.B) {
	_, run := bioRun(b, 2000)
	var labels []label.Label
	for i := 0; i < run.NumNodes(); i += 7 {
		labels = append(labels, run.Label(derive.NodeID(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := labels[i%len(labels)].Encode()
		if _, err := label.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDerive2K measures labeled-run generation itself.
func BenchmarkDerive2K(b *testing.B) {
	d := workload.BioAID()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := derive.Derive(d.Spec, derive.Options{Seed: int64(i), TargetEdges: 2000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineEvaluateSafe measures the public API end to end on a safe
// query over a mid-size run.
func BenchmarkEngineEvaluateSafe(b *testing.B) {
	spec, err := provrpq.NewSpecBuilder().
		Start("S").
		Chain("S", "in", "Loop", "out").
		Chain("Loop", "work", "Loop", "emit").
		Chain("Loop", "work", "emit").
		Build()
	if err != nil {
		b.Fatal(err)
	}
	run, err := spec.Derive(provrpq.DeriveOptions{Seed: 1, TargetEdges: 500})
	if err != nil {
		b.Fatal(err)
	}
	q := provrpq.MustParseQuery("_*.emit._*.out")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := provrpq.NewEngine(run)
		if _, err := eng.Evaluate(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateDense4K is the evaluation inside the served read-dense
// benchmark: its densest pool query, _*.p6_8._* on the 4K-edge BioAID fixture
// (117,827 pairs), as the whole list and as one page of 1,000 pairs from the
// middle. A page costs the count pass and its window's rows, not the result.
func BenchmarkEvaluateDense4K(b *testing.B) {
	d := workload.BioAID()
	run, err := derive.Derive(d.Spec, derive.Options{Seed: 20150413, TargetEdges: 4000})
	if err != nil {
		b.Fatal(err)
	}
	eng, q := provrpq.NewEngine(rehydrate(b, d, run)), provrpq.MustParseQuery("_*.p6_8._*")
	for _, w := range []struct {
		name          string
		offset, limit int
	}{{"full", 0, -1}, {"page", 58000, 1000}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			pairs := 0
			for i := 0; i < b.N; i++ {
				rows, _, err := eng.EvaluateRows(context.Background(), q, w.offset, w.limit)
				if err != nil || rows.Total() != 117827 {
					b.Fatalf("%v, %d pairs, want 117827", err, rows.Total())
				}
				pairs += rows.Len()
			}
			b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
		})
	}
}

// BenchmarkSeededSelective16K is the evaluate of read-point's cycle: a
// selective query the planner answers by the seeded strategy, over a
// 16K-edge fixture reopened from its columnar encoding as the durable store
// boots it. The candidate walks visit a handful of nodes, so a warm evaluate
// decodes a handful of labels, not every node's.
func BenchmarkSeededSelective16K(b *testing.B) {
	for _, c := range []struct {
		d     *workload.Dataset
		query string
		pairs int
	}{{workload.BioAID(), "_*.L1._*.s_tail._*", 1}, {workload.QBLast(), "_*.C3._*", 7}} {
		run, err := derive.Derive(c.d.Spec, derive.Options{Seed: 20150413, TargetEdges: 16000})
		if err != nil {
			b.Fatal(err)
		}
		col, err := provrpq.ReopenColumnar(rehydrate(b, c.d, run))
		if err != nil {
			b.Fatal(err)
		}
		eng, q := provrpq.NewEngine(col), provrpq.MustParseQuery(c.query)
		if rep, err := eng.Explain(q); err != nil || rep.Strategy != provrpq.StrategySeeded {
			b.Fatalf("%s: %v, strategy %v; want seeded", c.query, err, rep.Strategy)
		}
		b.Run(c.d.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, _, err := eng.EvaluateRows(context.Background(), q, 0, -1)
				if err != nil || rows.Total() != c.pairs {
					b.Fatalf("%s: %v, %d pairs, want %d", c.query, err, rows.Total(), c.pairs)
				}
			}
		})
	}
}

// BenchmarkSeededWholeSide8K is the evaluate of mixed's cycle: _*.L1._* on
// the 8K-edge BioAID fixture, whose candidate sources are 8,068 of its 8,069
// nodes, over the derived run and over one reopened from its columnar
// encoding. Such a side walks the engine's one trie of every node, so a warm
// evaluate decodes and sorts only the small side's labels.
func BenchmarkSeededWholeSide8K(b *testing.B) {
	d := workload.BioAID()
	run, err := derive.Derive(d.Spec, derive.Options{Seed: 20150413, TargetEdges: 8000})
	if err != nil {
		b.Fatal(err)
	}
	derived := rehydrate(b, d, run)
	col, err := provrpq.ReopenColumnar(derived)
	if err != nil {
		b.Fatal(err)
	}
	q := provrpq.MustParseQuery("_*.L1._*")
	for _, c := range []struct {
		name string
		run  *provrpq.Run
	}{{"derived", derived}, {"columnar", col}} {
		eng := provrpq.NewEngine(c.run)
		if rep, err := eng.Explain(q); err != nil || rep.Strategy != provrpq.StrategySeeded {
			b.Fatalf("%v, strategy %v; want seeded", err, rep.Strategy)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, _, err := eng.EvaluateRows(context.Background(), q, 0, -1)
				if err != nil || rows.Total() != 8068 {
					b.Fatalf("%v, %d pairs, want 8068", err, rows.Total())
				}
			}
		})
	}
}

// BenchmarkCompileDFA is the automaton half of a plan-cache miss: the minimal
// DFA of 64 queries drawn as read-decompose's pool draws them (RandomQuery of
// depth 2 or 3, over BioAID and QBLast), each against its spec's tags. One op
// compiles all 64.
func BenchmarkCompileDFA(b *testing.B) {
	type query struct {
		node *automata.Node
		tags []string
	}
	var qs []query
	r := rand.New(rand.NewSource(1))
	for _, d := range []*workload.Dataset{workload.BioAID(), workload.QBLast()} {
		for range 32 {
			qs = append(qs, query{automata.MustParse(d.RandomQuery(r, 2+r.Intn(2))), d.Spec.Tags()})
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			automata.CompileDFA(q.node, q.tags)
		}
	}
}

// BenchmarkEvaluateScanCount is the evaluate of the served read-scan
// benchmark: count_only windows (limit 0) of tag-free safe queries, which
// the planner answers by OptRPL, on the 350-edge fork run and the 720-edge
// BioAID run, reopened from their columnar encoding as the daemon boots them.
// A warm count walks the engine's one trie of every node against itself.
// paper1500 is a run where both halves of every Case 2 sweep fire: _* on
// the paper's specification, 384K blocks for 772K pairs. tests/op is the
// walk's bucket-pair tests (core.Work.Tests), which a faster walk must keep.
func BenchmarkEvaluateScanCount(b *testing.B) {
	bio := workload.BioAID()
	for _, f := range []struct {
		name   string
		d      *workload.Dataset
		opts   derive.Options
		counts map[string]int
	}{
		{"fork350/", bio, derive.Options{Seed: 20150413, TargetEdges: 350, FavorModules: bio.ForkFavor, FavorCaps: bio.ForkCaps},
			map[string]int{"a*": 21309, "(a|fl)*": 42890}},
		{"std720/", bio, derive.Options{Seed: 20150413, TargetEdges: 720}, map[string]int{"a*": 816, "(a|fl)*": 817}},
		{"paper1500/", &workload.Dataset{Spec: wf.PaperSpec()}, derive.Options{Seed: 3, TargetEdges: 1500}, map[string]int{"_*": 771903}},
	} {
		run, err := derive.Derive(f.d.Spec, f.opts)
		if err != nil {
			b.Fatal(err)
		}
		col, err := provrpq.ReopenColumnar(rehydrate(b, f.d, run))
		if err != nil {
			b.Fatal(err)
		}
		eng := provrpq.NewEngine(col)
		for _, qs := range slices.Sorted(maps.Keys(f.counts)) {
			q := provrpq.MustParseQuery(qs)
			b.Run(f.name+qs, func(b *testing.B) {
				b.ReportAllocs()
				tests := 0
				for i := 0; i < b.N; i++ {
					rows, rep, err := eng.EvaluateRows(context.Background(), q, 0, 0)
					if err != nil || rows.Total() != f.counts[qs] || rep.Strategy != provrpq.StrategyOptRPL {
						b.Fatalf("%s: %v, %d pairs by %v; want %d by optrpl", qs, err, rows.Total(), rep.Strategy, f.counts[qs])
					}
					tests = provrpq.WalkTests(rows)
				}
				b.ReportMetric(float64(tests), "tests/op")
			})
		}
	}
}

// BenchmarkUnsafePairwise measures Engine.Pairwise on unsafe queries over an
// 8K-edge QBLast run — the search behind /v1/pairwise when the label decode
// does not apply. "a" requires a tag that occurs 1,277 times in the run,
// "j1._" one that occurs once; random pairs, most of them non-matching.
func BenchmarkUnsafePairwise(b *testing.B) {
	d := workload.QBLast()
	run, err := derive.Derive(d.Spec, derive.Options{Seed: 1, TargetEdges: 8000})
	if err != nil {
		b.Fatal(err)
	}
	eng := provrpq.NewEngine(rehydrate(b, d, run))
	r := rand.New(rand.NewSource(11))
	pairs := make([][2]provrpq.NodeID, 256)
	for i := range pairs {
		pairs[i] = [2]provrpq.NodeID{provrpq.NodeID(r.Intn(run.NumNodes())), provrpq.NodeID(r.Intn(run.NumNodes()))}
	}
	for _, qs := range []string{"a", "j1._"} {
		q := provrpq.MustParseQuery(qs)
		if safe, err := eng.IsSafe(q); err != nil || safe {
			b.Fatalf("%s: safe=%v err=%v, want an unsafe query", qs, safe, err)
		}
		if _, err := eng.Pairwise(q, pairs[0][0], pairs[0][1]); err != nil { // the index build stays outside the timing
			b.Fatal(err)
		}
		b.Run(qs, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, err := eng.Pairwise(q, p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// decomposeFixture is the unsafe-query workload behind the served
// read-decompose benchmark: a ~400-node BioAID run, a general evaluator, and
// two query shapes whose one safe subtree is _* — tens of thousands of pairs
// feeding a small relational remainder.
func decomposeFixture(tb testing.TB) (*derive.Run, *core.General, []*automata.Node) {
	tb.Helper()
	d := workload.BioAID()
	run, err := derive.Derive(d.Spec, derive.Options{Seed: 1, TargetEdges: 300})
	if err != nil {
		tb.Fatal(err)
	}
	ix := index.Build(run)
	tag := run.Edges[len(run.Edges)/2].Tag
	gen := core.NewGeneral(run, ix, core.CostBased)
	var qs []*automata.Node
	for _, shape := range []string{"%s._*._", "(_._*.%s).(_._)"} {
		q := automata.MustParse(fmt.Sprintf(shape, tag))
		_, rep, err := gen.Eval(q)
		if err != nil {
			tb.Fatal(err)
		}
		if rep.Safe || len(rep.SafeSubtrees) != 1 || rep.SafeSubtrees[0] != "_*" {
			tb.Fatalf("%s: want an unsafe query with the safe subtree _*, got %+v", q, rep)
		}
		qs = append(qs, q)
	}
	return run, gen, qs
}

// BenchmarkGeneralEvalDecompose measures General.Eval on the decomposition
// shapes above — the label walk's blocks filled into rows, then joined — and
// on four queries of the served pool over the benchmark's own runs: a tag
// that restricts _* on its left, one that restricts it two joins away on its
// right, two safe subtrees, and a closure and a wildcard that restrict next
// to nothing.
func BenchmarkGeneralEvalDecompose(b *testing.B) {
	type fixture struct {
		gen *core.General
		qs  []*automata.Node
	}
	_, gen, qs := decomposeFixture(b)
	fixtures := map[string]fixture{"": {gen, qs}}
	for name, f := range map[string]struct {
		d       *workload.Dataset
		edges   int
		queries []string
	}{
		"bio300/": {workload.BioAID(), 300, []string{"p6_2._*._", "_._*.(_.p1_12)"}},
		"qbl400/": {workload.QBLast(), 400, []string{"q1_7*._*.((q2_13|a)._*.q1_7*)", "P2*._*._"}},
	} {
		run, err := derive.Derive(f.d.Spec, derive.Options{Seed: 20150413, TargetEdges: f.edges})
		if err != nil {
			b.Fatal(err)
		}
		fx := fixture{gen: core.NewGeneral(run, index.Build(run), core.CostBased)}
		for _, qs := range f.queries {
			fx.qs = append(fx.qs, automata.MustParse(qs))
		}
		fixtures[name] = fx
	}
	for _, name := range []string{"", "bio300/", "qbl400/"} {
		for _, q := range fixtures[name].qs {
			gen := fixtures[name].gen
			b.Run(name+q.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := gen.Eval(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEvaluateDecomposeCount is the evaluate of the served
// read-decompose benchmark: a count_only window (limit 0) of the four pool
// queries above, through the engine over its runs reopened from their
// columnar encoding as the daemon boots them. A warm count walks the safe
// subtrees against the engine's one trie of every node and reads the
// relation's size.
func BenchmarkEvaluateDecomposeCount(b *testing.B) {
	for _, f := range []struct {
		d       *workload.Dataset
		name    string
		edges   int
		queries []string
	}{
		{workload.BioAID(), "bio300/", 300, []string{"p6_2._*._", "_._*.(_.p1_12)"}},
		{workload.QBLast(), "qbl400/", 400, []string{"q1_7*._*.((q2_13|a)._*.q1_7*)", "P2*._*._"}},
	} {
		run, err := derive.Derive(f.d.Spec, derive.Options{Seed: 20150413, TargetEdges: f.edges})
		if err != nil {
			b.Fatal(err)
		}
		col, err := provrpq.ReopenColumnar(rehydrate(b, f.d, run))
		if err != nil {
			b.Fatal(err)
		}
		eng := provrpq.NewEngine(col)
		for _, qs := range f.queries {
			q := provrpq.MustParseQuery(qs)
			b.Run(f.name+qs, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rows, rep, err := eng.EvaluateRows(context.Background(), q, 0, 0)
					if err != nil || rows.Len() != 0 || rows.Total() == 0 || !rep.Decomposed {
						b.Fatalf("%s: %v, %d of %d pairs held; want a decomposed count", qs, err, rows.Len(), rows.Total())
					}
				}
			})
		}
	}
}

// BenchmarkUnsafeAllPairs measures Engine.AllPairs on an unsafe query over 16
// sources × every node of a 4K-edge QBLast run, where _* alone is 5.9 million
// pairs: the lists go down the decomposition, so the cost is what 16 sources
// reach.
func BenchmarkUnsafeAllPairs(b *testing.B) {
	d := workload.QBLast()
	dr, err := derive.Derive(d.Spec, derive.Options{Seed: 1, TargetEdges: 4000})
	if err != nil {
		b.Fatal(err)
	}
	run := rehydrate(b, d, dr)
	tag := dr.Edges[len(dr.Edges)/2].Tag
	q := provrpq.MustParseQuery(tag + "._*._")
	l2 := run.AllNodes()
	var l1 []provrpq.NodeID
	for _, e := range dr.Edges { // the tag's sources first, so there are answers
		if e.Tag == tag && len(l1) < 8 {
			l1 = append(l1, provrpq.NodeID(e.From))
		}
	}
	for i := 0; len(l1) < 16; i++ {
		l1 = append(l1, l2[i*len(l2)/16])
	}
	eng := provrpq.NewEngine(run)
	if safe, err := eng.IsSafe(q); err != nil || safe {
		b.Fatalf("%s: safe=%v err=%v, want an unsafe query", q, safe, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	want := -1
	for i := 0; i < b.N; i++ {
		pairs, err := eng.AllPairs(q, l1, l2, provrpq.Auto)
		if err != nil || len(pairs) == 0 || (want >= 0 && len(pairs) != want) {
			b.Fatalf("%d pairs (%v), want %d", len(pairs), err, want)
		}
		want = len(pairs)
	}
}

// TestGeneralEvalAllocatesPerRowNotPerPair pins the container: a relation
// costs a few allocations per node — rows carved from shared arrays — and
// none per pair, whatever the tens of thousands of pairs _* holds.
func TestGeneralEvalAllocatesPerRowNotPerPair(t *testing.T) {
	run, gen, qs := decomposeFixture(t)
	for _, q := range qs {
		var pairs int
		allocs := testing.AllocsPerRun(5, func() {
			rel, _, err := gen.Eval(q)
			if err != nil {
				t.Fatal(err)
			}
			pairs = rel.Len()
		})
		if bound := float64(4*run.NumNodes() + 64); allocs > bound {
			t.Errorf("%s: %.0f allocations per Eval on %d nodes (%d result pairs), want at most %.0f",
				q, allocs, run.NumNodes(), pairs, bound)
		}
	}
}

// BenchmarkPairwiseSafeDecodeDeepChains is the pairwise decode where the
// chain range tables carry the work: a* between random fork nodes of deep
// (capped) fork chains, every pair a chainIn or chainOut lookup.
func BenchmarkPairwiseSafeDecodeDeepChains(b *testing.B) {
	d := workload.BioAID()
	run, err := derive.Derive(d.Spec, derive.Options{
		Seed: 1, TargetEdges: 4000,
		FavorModules: d.ForkFavor, FavorCaps: d.ForkCaps,
	})
	if err != nil {
		b.Fatal(err)
	}
	anodes := run.NodesOfModule("a")
	r := rand.New(rand.NewSource(5))
	pairs := make([][2]label.Label, 4096)
	for i := range pairs {
		pairs[i] = [2]label.Label{
			run.Label(anodes[r.Intn(len(anodes))]),
			run.Label(anodes[r.Intn(len(anodes))]),
		}
	}
	env, err := core.Compile(d.Spec, automata.MustParse("a*"))
	if err != nil {
		b.Fatal(err)
	}
	dec := env.NewDecoder() // hold one decoder: no pool traffic in the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		dec.PairwiseUnchecked(p[0], p[1])
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblationClosure compares the semi-naive closure our remainder
// evaluation uses against the naive self-join fixpoint of the baseline.
func BenchmarkAblationClosure(b *testing.B) {
	d := workload.BioAID()
	run, err := derive.Derive(d.Spec, derive.Options{
		Seed: 1, TargetEdges: 2000,
		FavorModules: d.ForkFavor, FavorCaps: d.ForkCaps,
	})
	if err != nil {
		b.Fatal(err)
	}
	ix := index.Build(run)
	base := rel.NewRel()
	for _, p := range ix.Pairs("a") {
		base.Add(p.From, p.To)
	}
	b.Run("semi-naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base.Closure()
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base.ClosureNaive()
		}
	})
}

// Append-path benchmarks: the acceptance claim is that appending k ≪ n
// edges to a 16K-node run does work proportional to the affected frontier
// (the k edges' endpoints), not the O(n) of re-deriving the whole run.
// Compare AppendEdges64 (the in-place ingest), Grow64 (the catalog's
// copy-on-write versioning on top of it) and Redecode (the only
// pre-append way to reflect new edges: full re-derivation of the final
// graph). The first sits orders of magnitude under the last.

// benchAppendBatch builds one k-edge growth batch between random existing
// nodes.
func benchAppendBatch(rng *rand.Rand, run *derive.Run, tags []string, k int) derive.Batch {
	edges := make([]derive.Edge, k)
	for j := range edges {
		edges[j] = derive.Edge{
			From: derive.NodeID(rng.Intn(run.NumNodes())),
			To:   derive.NodeID(rng.Intn(run.NumNodes())),
			Tag:  tags[rng.Intn(len(tags))],
		}
	}
	return derive.Batch{Edges: edges}
}

// BenchmarkAppendEdges16K: one in-place 64-edge append per op, run
// growing as a live ingest would.
func BenchmarkAppendEdges16K(b *testing.B) {
	d, run := bioRun(b, 16000)
	tags := d.Spec.Tags()
	rng := rand.New(rand.NewSource(1))
	const k = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := derive.AppendEdges(run, benchAppendBatch(rng, run, tags, k)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(k, "edges/op")
}

// BenchmarkAppendGrow16K: the versioned (copy-on-write) append the
// catalog swap uses — clone headers, then frontier-proportional work.
func BenchmarkAppendGrow16K(b *testing.B) {
	d, run := bioRun(b, 16000)
	tags := d.Spec.Tags()
	batch := benchAppendBatch(rand.New(rand.NewSource(1)), run, tags, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := run.Grow(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendRedecode16K: the O(n) alternative — re-derive (decode,
// validate, re-index) all n nodes to pick up the new edges.
func BenchmarkAppendRedecode16K(b *testing.B) {
	d, run := bioRun(b, 16000)
	data, err := derive.EncodeRun(run)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := derive.DecodeRun(d.Spec, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStandingDelta measures one standing-query delta of the
// ingest-watch workload's shape: a 12K-edge BioAID run growing by 3-node
// batches under a dense safe IFQ. steady is a watcher following the run with
// one retained StandingQuery — its rebuilds, one per 2·√run batch nodes, are
// in the mean and reported per op — and oneshot is Catalog.DeltaPairs,
// which builds and drops that state on every call. Every event carries the
// full run: a delta reads only the nodes below its batch's end.
func BenchmarkStandingDelta(b *testing.B) {
	specJSON, err := json.Marshal(workload.BioAID().Spec)
	if err != nil {
		b.Fatal(err)
	}
	spec := &provrpq.Spec{}
	if err := spec.UnmarshalJSON(specJSON); err != nil {
		b.Fatal(err)
	}
	run, err := spec.Derive(provrpq.DeriveOptions{Seed: 1, TargetEdges: 12000})
	if err != nil {
		b.Fatal(err)
	}
	cat := provrpq.NewCatalog(provrpq.CatalogOptions{})
	q := provrpq.MustParseQuery("_*.p3_1._*.p2_13._*")
	const batch = 3
	n := run.NumNodes()
	first := n - n/4
	event := func(i int) provrpq.AppendEvent {
		at := first + i%((n-first)/batch)*batch
		return provrpq.AppendEvent{RunName: "r", Version: i + 1, Run: run,
			FirstNewNode: provrpq.NodeID(at), NewNodes: batch}
	}
	b.Run("steady", func(b *testing.B) {
		b.ReportAllocs()
		sq := cat.NewStandingQuery(q)
		for i := 0; i < b.N; i++ {
			if _, err := sq.Delta(event(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(sq.Rebuilds())/float64(b.N), "rebuilds/op")
	})
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cat.DeltaPairs(event(i), q); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(1, "rebuilds/op")
	})
}

// BenchmarkPlanAuto is the planner acceptance benchmark: the same
// all-pairs scan (l1 = l2 = all nodes) under each forced strategy and
// under Auto (the planner's choice), on a highly selective anchored IFQ
// and a dense per-iteration IFQ over the BioAID and QBLast workloads. Auto
// should sit within a few percent of the best forced column on both
// workloads, with the seeded strategy far ahead of optRPL on the
// selective one.
func BenchmarkPlanAuto(b *testing.B) {
	for _, d := range []*workload.Dataset{workload.BioAID(), workload.QBLast()} {
		run, err := derive.Derive(d.Spec, derive.Options{Seed: 1, TargetEdges: 2000})
		if err != nil {
			b.Fatal(err)
		}
		ix := index.Build(run)
		pl := plan.New(ix)
		pl.ReachDensity() // one-time statistics sample, outside every timing
		nodes := run.AllNodes()
		labels := make([]label.Label, len(nodes))
		for i, id := range nodes {
			labels[i] = run.Label(id)
		}
		r := rand.New(rand.NewSource(7))
		workloads := []struct{ name, q string }{
			{"selective", d.SafeIFQ(r, 3, false)},
			{"dense", d.SafeIFQ(r, 3, true)},
		}
		for _, wl := range workloads {
			env, err := core.Compile(d.Spec, automata.MustParse(wl.q))
			if err != nil {
				b.Fatal(err)
			}
			if !env.Safe() {
				b.Fatalf("IFQ %s unexpectedly unsafe", wl.q)
			}
			runSeeded := func(dec plan.Decision) error {
				return plan.AllPairsSeeded(env, ix, dec, nodes, nodes, func(i, j int) {})
			}
			strategies := []struct {
				name string
				fn   func() error
			}{
				{"RPL", func() error {
					return env.AllPairsSafeParallel(labels, labels, core.RPL, 1, func(i, j int) {})
				}},
				{"OptRPL", func() error {
					return env.AllPairsSafeParallel(labels, labels, core.OptRPL, 1, func(i, j int) {})
				}},
				{"Seeded", func() error {
					return runSeeded(pl.Plan(env, len(nodes), len(nodes)))
				}},
				{"Auto", func() error {
					dec := pl.Plan(env, len(nodes), len(nodes))
					switch dec.Strategy {
					case plan.RPL:
						return env.AllPairsSafeParallel(labels, labels, core.RPL, 1, func(i, j int) {})
					case plan.Seeded:
						return runSeeded(dec)
					default:
						return env.AllPairsSafeParallel(labels, labels, core.OptRPL, 1, func(i, j int) {})
					}
				}},
			}
			for _, st := range strategies {
				b.Run(d.Name+"/"+wl.name+"/"+st.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if err := st.fn(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
