package provrpq

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"provrpq/internal/derive"
	"provrpq/internal/plan"
	"provrpq/internal/reach"
	"provrpq/internal/wf"
	"provrpq/internal/workload"
)

// bioRunAt derives the benchmark's BioAID fixture at the given size.
func bioRunAt(t testing.TB, edges int) *Run {
	t.Helper()
	d := workload.BioAID()
	dr, err := derive.Derive(d.Spec, derive.Options{Seed: 20150413, TargetEdges: edges})
	if err != nil {
		t.Fatal(err)
	}
	return &Run{r: dr, spec: &Spec{s: d.Spec}}
}

// shuffledUpload re-uploads a run with its nodes in random order, as a client
// that numbers nodes its own way would: ids no longer follow label order.
func shuffledUpload(t *testing.T, run *Run, r *rand.Rand) *Run {
	t.Helper()
	data, err := EncodeRun(run)
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Nodes []json.RawMessage `json:"nodes"`
		Edges []derive.Edge     `json:"edges"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatal(err)
	}
	at := r.Perm(len(payload.Nodes)) // old id -> new id
	nodes := make([]json.RawMessage, len(at))
	for old, id := range at {
		nodes[id] = payload.Nodes[old]
	}
	payload.Nodes = nodes
	for i, e := range payload.Edges {
		payload.Edges[i].From, payload.Edges[i].To = derive.NodeID(at[e.From]), derive.NodeID(at[e.To])
	}
	if data, err = json.Marshal(payload); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRun(run.Spec(), data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSortPairsMatchesComparisonSort: the rows an evaluation builds are the
// pairs its strategy emits, in the (From, To) order of a comparison sort —
// kept here, now that the product has none on this path — and every window of
// them is that slice of the list with the same total. Strategies RPL, OptRPL
// and seeded plus an unsafe decomposed query, over paper, fork and BioAID runs
// (the last a 4,200-edge run that takes the label scans only), and over a run
// uploaded with shuffled node ids, whose rows arrive unsorted.
func TestSortPairsMatchesComparisonSort(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	derived := func(s *wf.Spec, o DeriveOptions) *Run {
		run, err := (&Spec{s: s}).Derive(o)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	paper := derived(wf.PaperSpec(), DeriveOptions{Seed: 2, TargetEdges: 150})
	fixtures := []struct {
		name    string
		run     *Run
		queries []string // safe ones first
		unsafe  string
		rpl     bool // RPL's two nested loops stay on the small runs
	}{
		{"paper", paper, []string{"_*", "_*.e._*", "_*.b._*.e._*"}, "_*.d._*", true},
		{"fork", derived(wf.ForkSpec(), DeriveOptions{Seed: 4, TargetEdges: 120, FavorModule: "M"}), []string{"a*", "_*"}, "a+", true},
		{"bio4k", bioRunAt(t, 4200), []string{"_*.p6_8._*", "_*.L1._*.s_tail._*"}, "", false},
		{"shuffled", shuffledUpload(t, paper, r), []string{"_*", "_*.e._*"}, "_*.d._*", true},
	}
	ctx := context.Background()
	for _, fx := range fixtures {
		all := fx.run.AllNodes()
		eng := NewEngine(fx.run)
		for _, qs := range append(fx.queries, fx.unsafe) {
			if qs == "" {
				continue
			}
			q := MustParseQuery(qs)
			env, err := eng.env(q)
			if err != nil {
				t.Fatal(err)
			}
			if env.Safe() == (qs == fx.unsafe) {
				t.Fatalf("%s: %q: safe=%v, the fixture lists it as the other kind", fx.name, qs, env.Safe())
			}
			strategies := map[Strategy]plan.Strategy{Auto: 0}
			if env.Safe() {
				strategies = map[Strategy]plan.Strategy{StrategyOptRPL: plan.OptRPL, StrategySeeded: plan.Seeded}
				if fx.rpl {
					strategies[StrategyRPL] = plan.RPL
				}
			}
			for st, ps := range strategies {
				name := fmt.Sprintf("%s %q %v", fx.name, qs, st)
				want, err := eng.AllPairs(q, all, all, st)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sort.Slice(want, func(i, j int) bool {
					if want[i].From != want[j].From {
						return want[i].From < want[j].From
					}
					return want[i].To < want[j].To
				})
				window := func(offset, limit int) *Rows {
					if !env.Safe() {
						rows, _, err := eng.EvaluateRows(ctx, q, offset, limit)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						return rows
					}
					n := fx.run.NumNodes()
					rows, err := eng.scanRows(ctx, env, eng.planner().Plan(env, n, n), ps, offset, limit)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return rows
				}
				if got := window(0, -1).Pairs(); !slices.Equal(got, want) {
					t.Fatalf("%s: %d pairs, the sorted emitted set has %d", name, len(got), len(want))
				}
				n := len(want)
				inRow := 0 // a window of one pair inside the first row of three or more
				for i := 0; i+2 < n && inRow == 0; i++ {
					if want[i].From == want[i+2].From {
						inRow = i + 1
					}
				}
				windows := [][2]int{{0, 0}, {n / 2, 0}, {n, 10}, {n + 7, -1}, {inRow, 1}, {max(n-1, 0), 5}}
				for i := 0; i < 6 && (i < 2 || n < 50000); i++ { // a dense result takes fewer
					windows = append(windows, [2]int{r.Intn(n + 2), r.Intn(n + 2)})
				}
				for _, w := range windows {
					lo := min(w[0], n)
					hi := n
					if w[1] >= 0 {
						hi = min(lo+w[1], n)
					}
					rows := window(w[0], w[1])
					if got := rows.Pairs(); !slices.Equal(got, want[lo:hi]) || rows.Total() != n || rows.Len() != hi-lo {
						t.Fatalf("%s: window (offset %d, limit %d): %d pairs (Len %d) of %d, want [%d:%d] of %d",
							name, w[0], w[1], len(got), rows.Len(), rows.Total(), lo, hi, n)
					}
				}
			}
		}
	}
}

// raceEnabled is set by race_test.go.
var raceEnabled bool

// allocsOf reports the allocations and bytes of one call of fn, averaged.
func allocsOf(fn func()) (allocs float64, bytes uint64) {
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, fn)
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
}

// TestEvaluateRowsScratch bounds what an evaluation allocates besides its
// answer. A selective one on a 16K-edge run (the benchmark's read-point
// evaluate: one pair, answered by the seeded strategy) stays within 8
// allocations and 128 KB of what it measured on that run and query: 33
// allocations, 70,984 B (go1.24, amd64; most of it the result's index, one
// 4-byte counter per node). OptRPL's label trie would take about 7 MB.
// A dense one (117,827 pairs on the 4K-edge run) costs 4 B per pair on top of
// a per-run constant under 512 B per node — the parent's doubling []Pair took
// 8.7 MB, 56 B per pair, over that — and a page of it costs the constant and
// the rows its window meets, not the result.
func TestEvaluateRowsScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are for the plain build")
	}
	ctx := context.Background()
	eval := func(eng *Engine, q *Query, offset, limit int) func() {
		return func() {
			if _, _, err := eng.EvaluateRows(ctx, q, offset, limit); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng, q := NewEngine(bioRunAt(t, 16000)), MustParseQuery("_*.L1._*.s_tail._*")
	eval(eng, q, 0, -1)() // the engine's lazy parts
	if allocs, bytes := allocsOf(eval(eng, q, 0, -1)); allocs > 33+8 || bytes > 70_984+128<<10 {
		t.Errorf("selective evaluate on %d nodes: %.0f allocs, %d B; seeded took 33 and 70984", eng.run.NumNodes(), allocs, bytes)
	}

	eng, q = NewEngine(bioRunAt(t, 4000)), MustParseQuery("_*.p6_8._*")
	rows, _, err := eng.EvaluateRows(ctx, q, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	perRun := uint64(512 * eng.run.NumNodes())
	if _, bytes := allocsOf(eval(eng, q, 0, -1)); bytes > perRun+4*uint64(rows.Total()) {
		t.Errorf("dense evaluate: %d B for %d pairs on %d nodes, want at most 4 B per pair + 512 B per node", bytes, rows.Total(), eng.run.NumNodes())
	}
	if _, bytes := allocsOf(eval(eng, q, rows.Total()/2, 1000)); bytes > perRun+4*(1000+2*uint64(eng.run.NumNodes())) {
		t.Errorf("page of a dense evaluate: %d B, want at most its window's rows + 512 B per node", bytes)
	}
}

// TestEvaluateRowsRejectsNegativeOffset: a window cannot start before the
// first row. A negative offset is an error on the safe path, the unsafe one
// and every batch cell, not a window whose Len() disagrees with its pairs.
func TestEvaluateRowsRejectsNegativeOffset(t *testing.T) {
	spec := &Spec{s: wf.ForkSpec()}
	run, err := spec.Derive(DeriveOptions{Seed: 1, TargetEdges: 200, FavorModule: "M"})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(run)
	queries := []*Query{MustParseQuery("_*"), MustParseQuery("a+")}
	for _, q := range queries {
		for _, limit := range []int{10, -1} {
			if rows, _, err := eng.EvaluateRows(context.Background(), q, -5, limit); err == nil {
				t.Errorf("EvaluateRows(%s, -5, %d): Len() %d, %d pairs; want an error", q, limit, rows.Len(), len(rows.Pairs()))
			}
		}
	}
	cat := NewCatalog(CatalogOptions{})
	if err := cat.RegisterSpec("fork", spec); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("r", "fork", run); err != nil {
		t.Fatal(err)
	}
	for _, res := range cat.EvaluateBatchRows(context.Background(), nil, queries, -5, 10) {
		if res.Err == nil {
			t.Errorf("EvaluateBatchRows(%s, -5, 10): no error", res.Query)
		}
	}
}

// TestEngineScansShareOneTrie: on one engine over a BioAID run, a tag-free
// OptRPL evaluate, a seeded evaluate with a candidate side over half the run
// and an unsafe decomposition all walk the engine's one trie of every node:
// each, run first on a fresh engine, leaves that engine's trie built, and on
// the shared engine the trie stays one object. A version grown by an append
// gets its own trie. Every answer is G1's.
func TestEngineScansShareOneTrie(t *testing.T) {
	ctx := context.Background()
	d := workload.BioAID()
	full, err := derive.Derive(d.Spec, derive.Options{Seed: 20150413, TargetEdges: 600})
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{s: d.Spec}
	data, err := EncodeRun(&Run{r: full, spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	n := full.NumNodes()
	baseJSON, batchJSONs := splitEncodedRun(t, data, []int{n - 9, n})
	cat := NewCatalog(CatalogOptions{})
	if err := cat.RegisterSpec("bio", spec); err != nil {
		t.Fatal(err)
	}
	base, err := DecodeRun(spec, baseJSON)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("r", "bio", base); err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		q        string
		strategy Strategy
	}{{"a*", StrategyOptRPL}, {"_*.L1._*", StrategySeeded}, {"p6_2._*._", Auto}}
	// shared evaluates every query on eng, checks its answer and its trie,
	// and returns the trie.
	shared := func(eng *Engine) *reach.Trie {
		t.Helper()
		var first *reach.Trie
		all := eng.Run().AllNodes()
		for _, c := range queries {
			q := MustParseQuery(c.q)
			fresh := NewEngine(eng.Run())
			if _, _, err := fresh.EvaluateRows(ctx, q, 0, 0); err != nil {
				t.Fatal(err)
			}
			// One P for the window: the counters are process-wide, and any
			// other goroutine allocating inside it would read as a trie build.
			var before, after runtime.MemStats
			procs := runtime.GOMAXPROCS(1)
			runtime.ReadMemStats(&before)
			fresh.general().Trie()
			runtime.ReadMemStats(&after)
			runtime.GOMAXPROCS(procs)
			if after.Mallocs != before.Mallocs {
				t.Errorf("%s on %d nodes left the engine's trie unbuilt", c.q, eng.Run().NumNodes())
			}
			rows, rep, err := eng.EvaluateRows(ctx, q, 0, -1)
			if err != nil || rep.Strategy != c.strategy || rep.Decomposed != (c.strategy == Auto) {
				t.Fatalf("%s: %v, strategy %v (decomposed %v), want %v", c.q, err, rep.Strategy, rep.Decomposed, c.strategy)
			}
			if got, want := rows.Pairs(), G1AllPairs(eng, q, all, all); len(want) == 0 || !slices.Equal(got, want) {
				t.Errorf("%s on %d nodes: %d pairs, G1 %d", c.q, len(all), len(got), len(want))
			}
			tr := eng.general().Trie()
			if first == nil {
				first = tr
			}
			if tr != first || len(tr.Perm) != len(all) {
				t.Errorf("%s: trie %p of %d leaves, want the engine's one %p of %d", c.q, tr, len(tr.Perm), first, len(all))
			}
		}
		return first
	}
	old, err := cat.Engine("r")
	if err != nil {
		t.Fatal(err)
	}
	before := shared(old)
	b, err := DecodeBatch(spec, batchJSONs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AppendEdges("r", b); err != nil {
		t.Fatal(err)
	}
	grown, err := cat.Engine("r")
	if err != nil {
		t.Fatal(err)
	}
	if after := shared(grown); after == before || len(after.Perm) != n {
		t.Errorf("the grown version walks trie %p of %d leaves, the base %p; want its own of %d", after, len(after.Perm), before, n)
	}
}

// TestSeededWarmWholeSideBuildsNoTrie: the seeded evaluate of mixed's query,
// _*.L1._*, has a candidate side over half the run, which walks the engine's
// trie of every node. A warm evaluate allocates at least one such trie's
// build less than the first on an engine whose index, planner and plan are
// ready.
func TestSeededWarmWholeSideBuildsNoTrie(t *testing.T) {
	run, q := bioRunAt(t, 2000), MustParseQuery("_*.L1._*")
	bytesOf := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	eval := func(eng *Engine) func() {
		return func() {
			if _, rep, err := eng.EvaluateRows(context.Background(), q, 0, -1); err != nil || rep.Strategy != StrategySeeded {
				t.Fatalf("%v, strategy %v; want seeded", err, rep.Strategy)
			}
		}
	}
	warm := NewEngine(run)
	eval(warm)()
	cold := NewEngine(run)
	if _, err := cold.Explain(q); err != nil { // the plan, the index and the planner's sample
		t.Fatal(err)
	}
	first, second := bytesOf(eval(cold)), ^uint64(0)
	for i := 0; i < 3; i++ { // a pooled decoder a collection dropped is not the trie
		second = min(second, bytesOf(eval(warm)))
	}
	build := bytesOf(func() { reach.NewTrie(run.r.MaterializeLabels()) })
	if first < second+build {
		t.Errorf("a warm evaluate allocates %d B, a cold one %d B: not the %d B of the whole trie less", second, first, build)
	}
}

// TestPlanIgnoresHistory: a plan depends on the run and the query, never on
// what evaluated before it. The selective 16K query TestEvaluateRowsScratch
// bounds is seeded 2.1× below OptRPL in decode units, so any timing of
// earlier requests fed back into the comparison — here, many small
// evaluates on other runs and engines — could flip it.
func TestPlanIgnoresHistory(t *testing.T) {
	run, q := bioRunAt(t, 16000), MustParseQuery("_*.L1._*.s_tail._*")
	type planned struct {
		Strategy            Strategy
		RPL, OptRPL, Seeded float64
	}
	explain := func() planned {
		rep, err := NewEngine(run).Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		return planned{rep.Strategy, rep.CostRPL, rep.CostOptRPL, rep.CostSeeded}
	}
	before := explain()
	spec := introSpec(t)
	qs := []*Query{MustParseQuery("_*.s._*"), MustParseQuery("_*.a1._*"), MustParseQuery("_*")}
	for _, edges := range []int{20, 120} {
		for round := 0; round < 12; round++ {
			small, err := spec.Derive(DeriveOptions{Seed: int64(round + 1), TargetEdges: edges})
			if err != nil {
				t.Fatal(err)
			}
			eng := NewEngine(small)
			for _, sq := range qs {
				if _, err := eng.Evaluate(sq); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if after := explain(); after != before {
		t.Errorf("plan for %s changed after unrelated evaluates: %+v, was %+v", q, after, before)
	}
}

// TestEvaluateRowsCancelled: a done context ends an evaluation with its error,
// safe or decomposed, and the Evaluate wrappers are unaffected. On the served
// decomposition whose joins dominate — P2*._*._ on QBLast 400, three
// relations of which two hold nearly every pair _* does — the context is also
// cancelled after each look the evaluation takes at it in turn: before any
// child, inside the walk, and after the last child, when only joins remain.
func TestEvaluateRowsCancelled(t *testing.T) {
	run, err := introSpec(t).Derive(DeriveOptions{Seed: 2, TargetEdges: 120})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(run)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, qs := range []string{"_*.s._*", "_*.a1._*"} {
		q := MustParseQuery(qs)
		if rows, _, err := eng.EvaluateRows(ctx, q, 0, -1); !errors.Is(err, context.Canceled) || rows != nil {
			t.Errorf("%s: cancelled evaluation returned (%v, %v), want context.Canceled", qs, rows, err)
		}
		if _, err := eng.Evaluate(q); err != nil {
			t.Errorf("%s: Evaluate after a cancelled EvaluateRows: %v", qs, err)
		}
	}

	d := workload.QBLast()
	dr, err := derive.Derive(d.Spec, derive.Options{Seed: 20150413, TargetEdges: 400})
	if err != nil {
		t.Fatal(err)
	}
	eng = NewEngine(&Run{r: dr, spec: &Spec{s: d.Spec}})
	q := MustParseQuery("P2*._*._")
	count := &cancelAt{Context: context.Background()}
	rows, rep, err := eng.EvaluateRows(count, q, 0, -1)
	if err != nil || rows.Total() != 59785 || !rep.Decomposed {
		t.Fatalf("%s: %v, %+v, %v", q, rows, rep, err)
	}
	if count.asked < 8 {
		t.Fatalf("%s consulted its context %d times, want once per subtree and walk pass at least", q, count.asked)
	}
	for at := 1; at < count.asked; at++ {
		ctx, cancel := context.WithCancel(context.Background())
		rows, _, err := eng.EvaluateRows(&cancelAt{Context: ctx, at: at, cancel: cancel}, q, 0, -1)
		if !errors.Is(err, context.Canceled) || rows != nil {
			t.Errorf("%s cancelled after look %d of %d at its context: (%v, %v), want context.Canceled", q, at, count.asked, rows, err)
		}
		cancel()
	}
}

// cancelAt is a context that counts how often its Err is asked and cancels
// itself right after answering the at-th time: what runs between that look
// and the next finds it done.
type cancelAt struct {
	context.Context
	asked, at int
	cancel    func()
}

func (c *cancelAt) Err() error {
	err := c.Context.Err()
	if c.asked++; c.asked == c.at {
		c.cancel()
	}
	return err
}

// TestAllPairsDecomposedEqualsFiltered: an unsafe AllPairs hands its lists to
// the decomposition as the sources and targets to compute, and answers what
// filtering the full evaluation by them does — in nested-loop order, on lists
// that are empty, one node, every node, or a random draw with repeats in no
// order — on a derived run and on one uploaded with shuffled node ids, whose
// label order is not id order. G1, which filters its own full relation, agrees.
func TestAllPairsDecomposedEqualsFiltered(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	paper, err := (&Spec{s: wf.PaperSpec()}).Derive(DeriveOptions{Seed: 2, TargetEdges: 150})
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]*Run{"paper": paper, "shuffled": shuffledUpload(t, paper, r), "bio300": bioRunAt(t, 300)} {
		queries := []string{"_*.d._*", "A.(_*.e._*)", "(b.b)|(e.d)", "A*._*.d", "(_*.d._*)|A"}
		if name == "bio300" {
			queries = []string{"p6_2._*._", "_._*.(_.p1_12)", "p2_6*._*.p5_2", "(_.p6_12)+._*.p4_8*", "p2_4._*.p5_11|(p3_10|p2_14)"}
		}
		eng := NewEngine(run)
		all := run.AllNodes()
		list := func() []NodeID {
			switch r.Intn(5) {
			case 0:
				return nil
			case 1:
				return []NodeID{all[r.Intn(len(all))]}
			case 2:
				return all
			}
			l := make([]NodeID, 1+r.Intn(len(all)/2))
			for i := range l {
				l[i] = all[r.Intn(len(all))]
			}
			return l
		}
		for _, qs := range queries {
			q := MustParseQuery(qs)
			if safe, err := eng.IsSafe(q); err != nil || safe {
				t.Fatalf("%s %q: safe=%v err=%v, want an unsafe query", name, qs, safe, err)
			}
			full, err := eng.Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			in := map[Pair]bool{}
			for _, p := range full {
				in[p] = true
			}
			for round := 0; round < 12; round++ {
				l1, l2 := list(), list()
				var want []Pair
				for _, u := range l1 {
					for _, v := range l2 {
						if in[Pair{From: u, To: v}] {
							want = append(want, Pair{From: u, To: v})
						}
					}
				}
				got, err := eng.AllPairs(q, l1, l2, Auto)
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s %q over %d × %d nodes, auto: %d pairs (%v), the filtered evaluation has %d", name, qs, len(l1), len(l2), len(got), err, len(want))
				}
				if got := G1AllPairs(eng, q, l1, l2); !slices.Equal(got, want) {
					t.Fatalf("%s %q over %d × %d nodes, G1: %d pairs, the filtered evaluation has %d", name, qs, len(l1), len(l2), len(got), len(want))
				}
			}
		}
	}
}
