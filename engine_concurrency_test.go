package provrpq_test

// Concurrency tests for the engine stack: one shared Engine (and two
// engines sharing a plan cache) hammered from many goroutines with a mix of
// Pairwise / AllPairs / Evaluate / IsSafe calls, asserting every
// answer matches the serial one. Run with -race; the suite exists to fail
// under it.

import (
	"fmt"
	"sync"
	"testing"

	"provrpq"
)

// forkSpec is the public-API equivalent of the Fig. 14 fork pattern: every
// execution of M spells a^j, so a* is safe while a*.b and a+ are unsafe
// (answered by the search fallback and the decomposition).
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
// point at once — safe decodes, the unsafe search fallback, all-pairs
// scans, the general evaluator and the safety verdicts — and checks each
// answer against one engine's called from a single goroutine.
func TestEngineConcurrentMixedCalls(t *testing.T) {
	spec := forkSpec(t)
	run := forkRun(t, spec, 7, 120)
	qSafe := provrpq.MustParseQuery("a*")
	qStrict := provrpq.MustParseQuery("a*.b") // unsafe: M's two productions disagree
	qUnsafe := provrpq.MustParseQuery("a+")

	anodes := run.NodesOfModule("a")
	if len(anodes) < 8 {
		t.Fatalf("run too small: %d a-nodes", len(anodes))
	}

	// Ground truth from a private engine, called from this goroutine alone.
	serial := provrpq.NewEngineOpts(run, provrpq.EngineOptions{PlanCache: provrpq.NewPlanCache(64)})
	type pw struct{ u, v provrpq.NodeID }
	samples := make([]pw, 0, 16)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			samples = append(samples, pw{anodes[i*len(anodes)/4], anodes[j*len(anodes)/4]})
		}
	}
	wantSafe := map[pw]bool{}
	wantStrict := map[pw]bool{}
	wantUnsafe := map[pw]bool{}
	for _, s := range samples {
		var err error
		if wantSafe[s], err = serial.Pairwise(qSafe, s.u, s.v); err != nil {
			t.Fatal(err)
		}
		if wantStrict[s], err = serial.Pairwise(qStrict, s.u, s.v); err != nil {
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
	wantStrictEval, err := serial.Evaluate(qStrict)
	if err != nil {
		t.Fatal(err)
	}
	wantReach, err := serial.AllPairsReachable(anodes, anodes)
	if err != nil {
		t.Fatal(err)
	}

	// The engine under test: a private cache so every compile runs inside
	// this test, raced by the calls that need it.
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
					s := samples[(g*iters+it)%len(samples)]
					got, err := eng.Pairwise(qStrict, s.u, s.v)
					if err != nil {
						errs <- err
					} else if got != wantStrict[s] {
						errs <- fmt.Errorf("Pairwise(a*.b, %d, %d) = %v, want %v", s.u, s.v, got, wantStrict[s])
					}
				case 2:
					if ok, err := eng.IsSafe(qStrict); err != nil {
						errs <- err
					} else if ok {
						errs <- fmt.Errorf("IsSafe(a*.b) = true, want false")
					}
					got, err := eng.Evaluate(qStrict)
					if err != nil {
						errs <- err
					} else if !samePairs(got, wantStrictEval) {
						errs <- fmt.Errorf("Evaluate(a*.b): %d pairs, want %d", len(got), len(wantStrictEval))
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
// that plans are genuinely shared: a plan compiled through one engine is a
// cache hit for the other.
func TestEnginesSharePlanCache(t *testing.T) {
	spec := forkSpec(t)
	run1 := forkRun(t, spec, 11, 300)
	run2 := forkRun(t, spec, 12, 300)
	pc := provrpq.NewPlanCache(64)
	e1 := provrpq.NewEngineOpts(run1, provrpq.EngineOptions{PlanCache: pc})
	e2 := provrpq.NewEngineOpts(run2, provrpq.EngineOptions{PlanCache: pc})
	qSafe := provrpq.MustParseQuery("a*")
	qStrict := provrpq.MustParseQuery("a*.b")

	// Serial ground truth per engine.
	want1, err := provrpq.NewEngineOpts(run1, provrpq.EngineOptions{PlanCache: provrpq.NewPlanCache(8)}).Evaluate(qSafe)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := provrpq.NewEngineOpts(run2, provrpq.EngineOptions{PlanCache: provrpq.NewPlanCache(8)}).Evaluate(qSafe)
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

	// A plan e1 compiles is a hit for e2: no second compile.
	if ok, err := e1.IsSafe(qStrict); err != nil || ok {
		t.Fatalf("IsSafe(a*.b) = %v, %v; want false", ok, err)
	}
	before := pc.Stats()
	if ok, err := e2.IsSafe(qStrict); err != nil || ok {
		t.Fatalf("IsSafe(a*.b) on the sharing engine = %v, %v; want false", ok, err)
	}
	if after := pc.Stats(); after.Misses != before.Misses || after.Hits != before.Hits+1 {
		t.Fatalf("e2's IsSafe(a*.b): stats %+v → %+v; want one more hit and no miss", before, after)
	}
}

// TestUnsafeAllPairsShardsReadOneRelation answers an unsafe query over two
// lists — the lists go down the decomposition as node sets, so no shard reads
// the relation any more; the name is from when four did: the answer is the
// nested loop's — l1-major, l2 order, a node listed twice matched at both
// positions — whatever order the lists are in.
// The G1 baseline restricts its full relation the same way.
func TestUnsafeAllPairsShardsReadOneRelation(t *testing.T) {
	spec := forkSpec(t)
	run := forkRun(t, spec, 3, 900)
	q := provrpq.MustParseQuery("a+")
	eng := provrpq.NewEngineOpts(run, provrpq.EngineOptions{PlanCache: provrpq.NewPlanCache(16)})
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
