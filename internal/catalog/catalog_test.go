package catalog

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// The registry is exercised with plain string specs/runs and a counting
// engine builder; the root package tests cover the wiring to real Engines.

func newTest() (*Registry[string, string, int], *atomic.Int64) {
	var builds atomic.Int64
	seq := atomic.Int64{}
	r := New[string, string, int](func(run string) int {
		builds.Add(1)
		return int(seq.Add(1))
	})
	return r, &builds
}

func TestRegistryBasics(t *testing.T) {
	g, _ := newTest()
	if err := g.PutSpec("w", "specW"); err != nil {
		t.Fatal(err)
	}
	if err := g.PutSpec("w", "again"); err == nil {
		t.Fatal("duplicate spec name should fail")
	}
	if err := g.PutSpec("", "x"); err == nil {
		t.Fatal("empty spec name should fail")
	}
	if err := g.PutRun("r1", "nope", "run1", 0); err == nil {
		t.Fatal("run with unknown spec should fail")
	}
	if err := g.PutRun("r1", "w", "run1", 0); err != nil {
		t.Fatal(err)
	}
	if err := g.PutRun("r1", "w", "dup", 0); err == nil {
		t.Fatal("duplicate run name should fail")
	}
	if err := g.PutRun("", "w", "x", 0); err == nil {
		t.Fatal("empty run name should fail")
	}

	if s, ok := g.Spec("w"); !ok || s != "specW" {
		t.Fatalf("Spec(w) = %q, %v", s, ok)
	}
	if r, ok := g.Run("r1"); !ok || r != "run1" {
		t.Fatalf("Run(r1) = %q, %v", r, ok)
	}
	if sp, ok := g.RunSpec("r1"); !ok || sp != "w" {
		t.Fatalf("RunSpec(r1) = %q, %v", sp, ok)
	}
	if _, ok := g.Run("ghost"); ok {
		t.Fatal("unknown run should not resolve")
	}
	if _, ok := g.Engine("ghost"); ok {
		t.Fatal("unknown engine should not resolve")
	}
	ns, nr := g.Len()
	if ns != 1 || nr != 1 {
		t.Fatalf("Len = (%d, %d), want (1, 1)", ns, nr)
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	g, _ := newTest()
	for _, s := range []string{"zeta", "alpha", "mid"} {
		if err := g.PutSpec(s, s); err != nil {
			t.Fatal(err)
		}
	}
	got := g.SpecNames()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SpecNames = %v, want %v", got, want)
		}
	}
	for i, r := range []string{"r-c", "r-a", "r-b"} {
		spec := []string{"zeta", "alpha", "alpha"}[i]
		if err := g.PutRun(r, spec, r, 0); err != nil {
			t.Fatal(err)
		}
	}
	runs := g.RunNames()
	if len(runs) != 3 || runs[0] != "r-a" || runs[2] != "r-c" {
		t.Fatalf("RunNames = %v", runs)
	}
	of := g.RunsOf("alpha")
	if len(of) != 2 || of[0] != "r-a" || of[1] != "r-b" {
		t.Fatalf("RunsOf(alpha) = %v", of)
	}
	if len(g.RunsOf("zeta")) != 1 {
		t.Fatalf("RunsOf(zeta) = %v", g.RunsOf("zeta"))
	}
}

// TestEngineBuiltOnce hammers one run's engine from many goroutines: the
// builder must fire exactly once and every caller must see the same engine.
func TestEngineBuiltOnce(t *testing.T) {
	g, builds := newTest()
	if err := g.PutSpec("w", "s"); err != nil {
		t.Fatal(err)
	}
	if err := g.PutRun("r", "w", "run", 0); err != nil {
		t.Fatal(err)
	}
	const goroutines = 64
	got := make([]int, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, ok := g.Engine("r")
			if !ok {
				t.Error("Engine(r) not found")
				return
			}
			got[i] = e
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("builder fired %d times, want 1", n)
	}
	for i := 1; i < goroutines; i++ {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d saw engine %d, goroutine 0 saw %d", i, got[i], got[0])
		}
	}
}

// TestConcurrentRegistration races registrations against lookups and
// engine builds across many distinct names (run under -race in CI).
func TestConcurrentRegistration(t *testing.T) {
	g, builds := newTest()
	if err := g.PutSpec("w", "s"); err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("run-%d", i)
			if err := g.PutRun(name, "w", name, 0); err != nil {
				t.Errorf("PutRun(%s): %v", name, err)
				return
			}
			if _, ok := g.Engine(name); !ok {
				t.Errorf("Engine(%s) missing right after PutRun", name)
			}
			g.RunNames()
			g.RunsOf("w")
		}(i)
	}
	wg.Wait()
	if _, nr := g.Len(); nr != n {
		t.Fatalf("registered %d runs, want %d", nr, n)
	}
	if b := builds.Load(); b != n {
		t.Fatalf("builder fired %d times, want %d", b, n)
	}
}

func TestReplaceRunSwapsEngine(t *testing.T) {
	g, builds := newTest()
	if err := g.PutSpec("w", "specW"); err != nil {
		t.Fatal(err)
	}
	if err := g.PutRun("r1", "w", "v0", 0); err != nil {
		t.Fatal(err)
	}
	if gen, ok := g.RunGeneration("r1"); !ok || gen != 0 {
		t.Fatalf("fresh generation = %d, %v", gen, ok)
	}
	e0, _ := g.Engine("r1")

	gen, ok := g.ReplaceRun("r1", "v1")
	if !ok || gen != 1 {
		t.Fatalf("ReplaceRun = %d, %v", gen, ok)
	}
	if r, _ := g.Run("r1"); r != "v1" {
		t.Fatalf("Run after replace = %q", r)
	}
	if sp, _ := g.RunSpec("r1"); sp != "w" {
		t.Fatalf("RunSpec after replace = %q; the binding must survive", sp)
	}
	e1, _ := g.Engine("r1")
	if e1 == e0 {
		t.Fatal("replace must drop the old engine")
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2", builds.Load())
	}
	// Further lookups reuse the rebuilt engine.
	if e2, _ := g.Engine("r1"); e2 != e1 {
		t.Fatal("engine rebuilt twice after one replace")
	}
	if _, ok := g.ReplaceRun("ghost", "x"); ok {
		t.Fatal("ReplaceRun of an unknown run must fail")
	}
}

func TestDropEngineKeepsRun(t *testing.T) {
	g, builds := newTest()
	if err := g.PutSpec("w", "specW"); err != nil {
		t.Fatal(err)
	}
	if err := g.PutRun("r1", "w", "v0", 0); err != nil {
		t.Fatal(err)
	}
	e0, _ := g.Engine("r1")
	if !g.DropEngine("r1") {
		t.Fatal("DropEngine failed")
	}
	if r, ok := g.Run("r1"); !ok || r != "v0" {
		t.Fatalf("run vanished on DropEngine: %q, %v", r, ok)
	}
	if gen, _ := g.RunGeneration("r1"); gen != 0 {
		t.Fatalf("DropEngine changed the generation to %d", gen)
	}
	e1, _ := g.Engine("r1")
	if e1 == e0 {
		t.Fatal("dropped engine came back")
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2", builds.Load())
	}
	if g.DropEngine("ghost") {
		t.Fatal("DropEngine of an unknown run must fail")
	}
}

// TestPutRunAtGeneration: a run registered at a boot-time generation counts
// on from it, and EngineAt pairs each engine with the generation of the
// version it was built over.
func TestPutRunAtGeneration(t *testing.T) {
	g, _ := newTest()
	if err := g.PutSpec("w", "specW"); err != nil {
		t.Fatal(err)
	}
	if err := g.PutRun("r1", "w", "v0", 7); err != nil {
		t.Fatal(err)
	}
	if gen, _ := g.RunGeneration("r1"); gen != 7 {
		t.Fatalf("generation = %d, want 7", gen)
	}
	e0, gen0, ok := g.EngineAt("r1")
	if !ok || gen0 != 7 {
		t.Fatalf("EngineAt = (%d, %d, %v), want generation 7", e0, gen0, ok)
	}
	if gen, _ := g.ReplaceRun("r1", "v1"); gen != 8 {
		t.Fatalf("generation after replace = %d, want 8", gen)
	}
	e1, gen1, _ := g.EngineAt("r1")
	if gen1 != 8 || e1 == e0 {
		t.Fatalf("EngineAt after replace = (%d, %d), want a new engine at generation 8", e1, gen1)
	}
	if e, _ := g.Engine("r1"); e != e1 {
		t.Fatal("Engine and EngineAt disagree")
	}
	if _, _, ok := g.EngineAt("ghost"); ok {
		t.Fatal("EngineAt of an unknown run must fail")
	}
}
