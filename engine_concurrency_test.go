package provrpq_test

// Concurrency tests for the engine stack: one shared Engine (and two
// engines sharing a plan cache) hammered from many goroutines with a mix of
// Pairwise / AllPairs / Evaluate / IsSafeRelaxed calls, asserting every
// answer matches the serial one. Run with -race; the suite exists to fail
// under it.

import (
	"fmt"
	"sync"
	"testing"

	"provrpq"
)

// forkSpec is the public-API equivalent of the Fig. 14 fork pattern: every
// execution of M spells a^j, so a* is safe, a*.b is strict-unsafe but
// relaxed-safe, and a+ is genuinely unsafe (G2 fallback).
func forkSpec(t testing.TB) *provrpq.Spec {
	t.Helper()
	spec, err := provrpq.NewSpecBuilder().
		Start("S").
		Prod("S", []string{"M", "b"}, []provrpq.BodyEdge{{From: 0, To: 1, Tag: "b"}}).
		Prod("M", []string{"a", "M"}, []provrpq.BodyEdge{{From: 0, To: 1, Tag: "a"}}).
		Prod("M", []string{"a"}, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func forkRun(t testing.TB, spec *provrpq.Spec, seed int64, edges int) *provrpq.Run {
	t.Helper()
	run, err := spec.Derive(provrpq.DeriveOptions{Seed: seed, TargetEdges: edges, FavorModule: "M"})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func pairSet(pairs []provrpq.Pair) map[provrpq.Pair]bool {
	m := make(map[provrpq.Pair]bool, len(pairs))
	for _, p := range pairs {
		m[p] = true
	}
	return m
}

func samePairs(a, b []provrpq.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	sb := pairSet(b)
	for _, p := range a {
		if !sb[p] {
			return false
		}
	}
	return true
}

// TestEngineConcurrentMixedCalls hammers one shared Engine with every entry
// point at once — safe decodes, the unsafe G2 fallback, all-pairs scans,
// the general evaluator, and the relaxation state transition — and checks
// each answer against a serial engine's.
func TestEngineConcurrentMixedCalls(t *testing.T) {
	spec := forkSpec(t)
	run := forkRun(t, spec, 7, 120)
	qSafe := provrpq.MustParseQuery("a*")
	qRelax := provrpq.MustParseQuery("a*.b")
	qUnsafe := provrpq.MustParseQuery("a+")

	anodes := run.NodesOfModule("a")
	if len(anodes) < 8 {
		t.Fatalf("run too small: %d a-nodes", len(anodes))
	}

	// Serial ground truth from a private, serial engine.
	serial := provrpq.NewEngineOpts(run, provrpq.EngineOptions{
		Workers:   1,
		PlanCache: provrpq.NewPlanCache(64),
	})
	type pw struct{ u, v provrpq.NodeID }
	samples := make([]pw, 0, 16)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			samples = append(samples, pw{anodes[i*len(anodes)/4], anodes[j*len(anodes)/4]})
		}
	}
	wantSafe := map[pw]bool{}
	wantRelax := map[pw]bool{}
	wantUnsafe := map[pw]bool{}
	for _, s := range samples {
		var err error
		if wantSafe[s], err = serial.Pairwise(qSafe, s.u, s.v); err != nil {
			t.Fatal(err)
		}
		if wantRelax[s], err = serial.Pairwise(qRelax, s.u, s.v); err != nil {
			t.Fatal(err)
		}
		if wantUnsafe[s], err = serial.Pairwise(qUnsafe, s.u, s.v); err != nil {
			t.Fatal(err)
		}
	}
	wantAll, err := serial.AllPairs(qSafe, anodes, anodes, provrpq.Auto)
	if err != nil {
		t.Fatal(err)
	}
	wantEval, err := serial.Evaluate(qUnsafe)
	if err != nil {
		t.Fatal(err)
	}
	wantReach, err := serial.AllPairsReachable(anodes, anodes)
	if err != nil {
		t.Fatal(err)
	}

	// The engine under test: default worker pool, private cache so the
	// relaxation transition runs inside this test.
	eng := provrpq.NewEngineOpts(run, provrpq.EngineOptions{PlanCache: provrpq.NewPlanCache(64)})

	const goroutines = 16
	const iters = 6
	errs := make(chan error, goroutines*iters)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				switch (g + it) % 6 {
				case 0:
					s := samples[(g*iters+it)%len(samples)]
					got, err := eng.Pairwise(qSafe, s.u, s.v)
					if err != nil {
						errs <- err
					} else if got != wantSafe[s] {
						errs <- fmt.Errorf("Pairwise(a*, %d, %d) = %v, want %v", s.u, s.v, got, wantSafe[s])
					}
				case 1:
					// The relaxable query races the IsSafeRelaxed upgrade:
					// before it lands the G2 fallback answers, afterwards
					// the label decode does — both must agree with serial.
					s := samples[(g*iters+it)%len(samples)]
					got, err := eng.Pairwise(qRelax, s.u, s.v)
					if err != nil {
						errs <- err
					} else if got != wantRelax[s] {
						errs <- fmt.Errorf("Pairwise(a*.b, %d, %d) = %v, want %v", s.u, s.v, got, wantRelax[s])
					}
				case 2:
					if ok, err := eng.IsSafeRelaxed(qRelax); err != nil {
						errs <- err
					} else if !ok {
						errs <- fmt.Errorf("IsSafeRelaxed(a*.b) = false, want true")
					}
					if ok, err := eng.IsSafeRelaxed(qUnsafe); err != nil {
						errs <- err
					} else if ok {
						errs <- fmt.Errorf("IsSafeRelaxed(a+) = true, want false")
					}
				case 3:
					got, err := eng.AllPairs(qSafe, anodes, anodes, provrpq.Auto)
					if err != nil {
						errs <- err
					} else if !samePairs(got, wantAll) {
						errs <- fmt.Errorf("AllPairs(a*): %d pairs, want %d", len(got), len(wantAll))
					}
				case 4:
					got, err := eng.Evaluate(qUnsafe)
					if err != nil {
						errs <- err
					} else if !samePairs(got, wantEval) {
						errs <- fmt.Errorf("Evaluate(a+): %d pairs, want %d", len(got), len(wantEval))
					}
				case 5:
					s := samples[(g*iters+it)%len(samples)]
					got, err := eng.Pairwise(qUnsafe, s.u, s.v)
					if err != nil {
						errs <- err
					} else if got != wantUnsafe[s] {
						errs <- fmt.Errorf("Pairwise(a+, %d, %d) = %v, want %v", s.u, s.v, got, wantUnsafe[s])
					}
					gotReach, err := eng.AllPairsReachable(anodes, anodes)
					if err != nil {
						errs <- err
					} else if !samePairs(gotReach, wantReach) {
						errs <- fmt.Errorf("AllPairsReachable: %d pairs, want %d", len(gotReach), len(wantReach))
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEnginesSharePlanCache runs two engines over different runs of one
// specification against one explicit plan cache, concurrently, and checks
// that plans are genuinely shared: a relaxation upgrade performed through
// one engine is visible to the other.
func TestEnginesSharePlanCache(t *testing.T) {
	spec := forkSpec(t)
	run1 := forkRun(t, spec, 11, 300)
	run2 := forkRun(t, spec, 12, 300)
	pc := provrpq.NewPlanCache(64)
	e1 := provrpq.NewEngineOpts(run1, provrpq.EngineOptions{PlanCache: pc})
	e2 := provrpq.NewEngineOpts(run2, provrpq.EngineOptions{PlanCache: pc})
	qSafe := provrpq.MustParseQuery("a*")
	qRelax := provrpq.MustParseQuery("a*.b")

	// Serial ground truth per engine.
	want1, err := provrpq.NewEngineOpts(run1, provrpq.EngineOptions{Workers: 1, PlanCache: provrpq.NewPlanCache(8)}).Evaluate(qSafe)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := provrpq.NewEngineOpts(run2, provrpq.EngineOptions{Workers: 1, PlanCache: provrpq.NewPlanCache(8)}).Evaluate(qSafe)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			eng, want := e1, want1
			if g%2 == 1 {
				eng, want = e2, want2
			}
			got, err := eng.Evaluate(qSafe)
			if err != nil {
				errs <- err
				return
			}
			if !samePairs(got, want) {
				errs <- fmt.Errorf("engine %d: Evaluate(a*) gave %d pairs, want %d", g%2+1, len(got), len(want))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if pc.Len() == 0 {
		t.Fatal("plan cache unused")
	}

	// Plan sharing makes the relaxation upgrade visible across engines.
	if ok, err := e1.IsSafe(qRelax); err != nil || ok {
		t.Fatalf("IsSafe(a*.b) = %v, %v; want false before relaxation", ok, err)
	}
	if ok, err := e1.IsSafeRelaxed(qRelax); err != nil || !ok {
		t.Fatalf("IsSafeRelaxed(a*.b) = %v, %v; want true", ok, err)
	}
	if ok, err := e2.IsSafe(qRelax); err != nil || !ok {
		t.Fatalf("IsSafe(a*.b) on the sharing engine = %v, %v; want true after relaxation", ok, err)
	}
}

// TestRelaxationSurvivesPlanEviction churns a capacity-1 plan cache until
// the relaxed plan is long evicted: the engine that performed the upgrade
// must keep answering with the constant-time decode (its memo pins the
// plan), per the IsSafeRelaxed contract.
func TestRelaxationSurvivesPlanEviction(t *testing.T) {
	spec := forkSpec(t)
	run := forkRun(t, spec, 5, 150)
	pc := provrpq.NewPlanCache(1)
	eng := provrpq.NewEngineOpts(run, provrpq.EngineOptions{Workers: 1, PlanCache: pc})
	qRelax := provrpq.MustParseQuery("a*.b")
	if ok, err := eng.IsSafeRelaxed(qRelax); err != nil || !ok {
		t.Fatalf("IsSafeRelaxed(a*.b) = %v, %v", ok, err)
	}
	// Evict a*.b from the shared cache by compiling other queries.
	for _, qs := range []string{"a*", "a+", "_*", "_+"} {
		if _, err := eng.IsSafe(provrpq.MustParseQuery(qs)); err != nil {
			t.Fatal(err)
		}
	}
	// StrategyRPL demands a safe plan: it must still see the upgrade.
	anodes := run.NodesOfModule("a")
	if _, err := eng.AllPairs(qRelax, anodes, anodes, provrpq.StrategyRPL); err != nil {
		t.Fatalf("AllPairs(a*.b, RPL) after eviction: %v", err)
	}
	if ok, err := eng.IsSafe(qRelax); err != nil || !ok {
		t.Fatalf("IsSafe(a*.b) after eviction = %v, %v; the memo must pin the relaxed plan", ok, err)
	}
}

// TestParallelMatchesSerial asserts the parallel scans return the same
// result sets as the serial ones — and, for AllPairs, in exactly the same
// order.
func TestParallelMatchesSerial(t *testing.T) {
	spec := forkSpec(t)
	run := forkRun(t, spec, 3, 900)
	anodes := run.NodesOfModule("a")
	all := run.AllNodes()
	qSafe := provrpq.MustParseQuery("a*")

	serial := provrpq.NewEngineOpts(run, provrpq.EngineOptions{Workers: 1, PlanCache: provrpq.NewPlanCache(16)})
	strategies := []provrpq.Strategy{provrpq.StrategyRPL, provrpq.StrategyOptRPL, provrpq.Auto}
	wants := map[provrpq.Strategy][]provrpq.Pair{}
	for _, strat := range strategies {
		w, err := serial.AllPairs(qSafe, anodes, anodes, strat)
		if err != nil {
			t.Fatal(err)
		}
		wants[strat] = w
	}
	wantReach, err := serial.AllPairsReachable(all, anodes)
	if err != nil {
		t.Fatal(err)
	}
	wantEval, err := serial.Evaluate(qSafe)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		par := provrpq.NewEngineOpts(run, provrpq.EngineOptions{Workers: workers, PlanCache: provrpq.NewPlanCache(16)})
		for _, strat := range strategies {
			want := wants[strat]
			got, err := par.AllPairs(qSafe, anodes, anodes, strat)
			if err != nil {
				t.Fatal(err)
			}
			if !samePairs(got, want) {
				t.Fatalf("workers=%d strategy=%d: %d pairs, want %d", workers, strat, len(got), len(want))
			}
			if strat == provrpq.StrategyRPL {
				// The sharded nested-loop scan must preserve the serial
				// emit order exactly.
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("workers=%d RPL: pair %d = %v, want %v (order must match serial)",
							workers, i, got[i], want[i])
					}
				}
			}
		}
		gotReach, err := par.AllPairsReachable(all, anodes)
		if err != nil {
			t.Fatal(err)
		}
		if !samePairs(gotReach, wantReach) {
			t.Fatalf("workers=%d: AllPairsReachable %d pairs, want %d", workers, len(gotReach), len(wantReach))
		}
		gotEval, err := par.Evaluate(qSafe)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotEval) != len(wantEval) {
			t.Fatalf("workers=%d: Evaluate %d pairs, want %d", workers, len(gotEval), len(wantEval))
		}
		for i := range gotEval {
			if gotEval[i] != wantEval[i] {
				t.Fatalf("workers=%d: Evaluate pair %d differs", workers, i)
			}
		}
	}
}

// TestUnsafeAllPairsShardsReadOneRelation answers an unsafe query over two
// lists on an engine with four workers — the lists go down the decomposition
// as node sets, so no shard reads the relation any more; the name is from when
// four did: the answer is the nested loop's — l1-major, l2 order, a node
// listed twice matched at both positions — whatever order the lists are in.
// The G1 baseline restricts its full relation the same way.
func TestUnsafeAllPairsShardsReadOneRelation(t *testing.T) {
	spec := forkSpec(t)
	run := forkRun(t, spec, 3, 900)
	q := provrpq.MustParseQuery("a+")
	eng := provrpq.NewEngineOpts(run, provrpq.EngineOptions{Workers: 4, PlanCache: provrpq.NewPlanCache(16)})
	if safe, err := eng.IsSafe(q); err != nil || safe {
		t.Fatalf("a+ should be unsafe on the fork grammar (safe=%v, err=%v)", safe, err)
	}
	full, err := eng.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	in := pairSet(full)

	// Every third node descending, then every node ascending, then a few
	// repeats: out of order, overlapping, with duplicates.
	all := run.AllNodes()
	var l1, l2 []provrpq.NodeID
	for i := len(all) - 1; i >= 0; i -= 3 {
		l1 = append(l1, all[i])
	}
	l1 = append(l1, all[:40]...)
	for i := 0; i < len(all); i += 2 {
		l2 = append(l2, all[i])
	}
	l2 = append(l2, l2[5], l2[5], all[1], all[len(all)-1])
	var want []provrpq.Pair
	for _, u := range l1 {
		for _, v := range l2 {
			if in[provrpq.Pair{From: u, To: v}] {
				want = append(want, provrpq.Pair{From: u, To: v})
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture matches nothing")
	}
	auto, err := eng.AllPairs(q, l1, l2, provrpq.Auto)
	if err != nil {
		t.Fatal(err)
	}
	for strategy, got := range map[string][]provrpq.Pair{"auto": auto, "G1": provrpq.G1AllPairs(eng, q, l1, l2)} {
		if len(got) != len(want) {
			t.Fatalf("%v: %d pairs, nested loop %d", strategy, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: pair %d = %v, nested loop has %v", strategy, i, got[i], want[i])
			}
		}
	}
}
