package workload

import (
	"math/rand"
	"testing"

	"provrpq/internal/automata"
	"provrpq/internal/core"
	"provrpq/internal/derive"
	"provrpq/internal/index"
)

func TestBioAIDStatistics(t *testing.T) {
	d := BioAID()
	s := d.Spec
	if got := len(s.Modules); got != 112 {
		t.Errorf("modules = %d, want 112", got)
	}
	composite := 0
	for i := range s.Modules {
		if s.Modules[i].Composite {
			composite++
		}
	}
	if composite != 16 {
		t.Errorf("composite modules = %d, want 16", composite)
	}
	if got := len(s.Prods); got != 23 {
		t.Errorf("productions = %d, want 23", got)
	}
	recProds := 0
	for _, c := range s.Cycles() {
		recProds += len(c.Edges)
	}
	if recProds != 7 {
		t.Errorf("recursive productions = %d, want 7", recProds)
	}
	if got := s.Size(); got != 166 {
		t.Errorf("size = %d, want 166", got)
	}
}

func TestQBLastStatistics(t *testing.T) {
	d := QBLast()
	s := d.Spec
	if got := len(s.Modules); got != 77 {
		t.Errorf("modules = %d, want 77", got)
	}
	composite := 0
	for i := range s.Modules {
		if s.Modules[i].Composite {
			composite++
		}
	}
	if composite != 11 {
		t.Errorf("composite modules = %d, want 11", composite)
	}
	if got := len(s.Prods); got != 15 {
		t.Errorf("productions = %d, want 15", got)
	}
	recProds := 0
	for _, c := range s.Cycles() {
		recProds += len(c.Edges)
	}
	if recProds != 5 {
		t.Errorf("recursive productions = %d, want 5", recProds)
	}
	if got := s.Size(); got != 105 {
		t.Errorf("size = %d, want 105", got)
	}
	// QBLast's mutual recursion is a 2-cycle.
	has2 := false
	for _, c := range s.Cycles() {
		if c.Len() == 2 {
			has2 = true
		}
	}
	if !has2 {
		t.Error("expected the A<->B two-module cycle")
	}
}

func TestStarQuerySafe(t *testing.T) {
	for _, d := range []*Dataset{BioAID(), QBLast()} {
		env, err := core.Compile(d.Spec, automata.MustParse(d.StarQuery()))
		if err != nil {
			t.Fatal(err)
		}
		if !env.Safe() {
			t.Errorf("%s: %s should be safe (Fig. 13g/h uses RPL on it)", d.Name, d.StarQuery())
		}
	}
}

func TestSafeIFQsAreSafe(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, d := range []*Dataset{BioAID(), QBLast()} {
		for k := 0; k <= 10; k++ {
			for trial := 0; trial < 6; trial++ {
				for _, low := range []bool{false, true} {
					q := d.SafeIFQ(r, k, low)
					env, err := core.Compile(d.Spec, automata.MustParse(q))
					if err != nil {
						t.Fatal(err)
					}
					if !env.Safe() {
						t.Errorf("%s: SafeIFQ %q (k=%d, low=%v) is not safe", d.Name, q, k, low)
					}
				}
			}
		}
	}
}

func TestSelectivityContrast(t *testing.T) {
	d := BioAID()
	run, err := derive.Derive(d.Spec, derive.Options{Seed: 3, TargetEdges: 2000})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(run)
	// High-selectivity tags occur a bounded number of times; low-selectivity
	// tags occur once per loop iteration.
	for _, tag := range d.HighSelTags {
		if c := ix.Count(tag); c > 10 {
			t.Errorf("high-sel tag %s occurs %d times", tag, c)
		}
	}
	lowTotal := 0
	for _, tag := range d.LowSelTags {
		lowTotal += ix.Count(tag)
	}
	if lowTotal < 10*len(d.LowSelTags)/2 {
		t.Errorf("low-sel tags occur too rarely: %d total over %d tags", lowTotal, len(d.LowSelTags))
	}
}

func TestForkWorkload(t *testing.T) {
	for _, d := range []*Dataset{BioAID(), QBLast()} {
		run, err := derive.Derive(d.Spec, derive.Options{
			Seed: 2, TargetEdges: 1000, FavorModules: d.ForkFavor, FavorCaps: d.ForkCaps,
		})
		if err != nil {
			t.Fatal(err)
		}
		ix := index.Build(run)
		if c := ix.Count(d.ForkTag); c < 100 {
			t.Errorf("%s: fork tag %s occurs only %d times under the fork workload", d.Name, d.ForkTag, c)
		}
		// The run must hold MANY fork chains (Fig. 14b), not one giant one:
		// each fl edge terminates one chain.
		if c := ix.Count("fl"); c < 5 {
			t.Errorf("%s: only %d fork chains", d.Name, c)
		}
		// Chains are capped, bounding the a* result size.
		if cap := d.ForkCaps[d.ForkModule]; cap > 0 {
			if got := ix.Count(d.ForkTag) / maxi(1, ix.Count("fl")); got > cap {
				t.Errorf("%s: average chain length %d exceeds cap %d", d.Name, got, cap)
			}
		}
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestRandomQueriesMixSafeAndUnsafe(t *testing.T) {
	d := BioAID()
	r := rand.New(rand.NewSource(7))
	safe, unsafe := 0, 0
	for i := 0; i < 60; i++ {
		q := d.RandomQuery(r, 3)
		node, err := automata.Parse(q)
		if err != nil {
			t.Fatalf("generated query %q does not parse: %v", q, err)
		}
		env, err := core.Compile(d.Spec, node)
		if err != nil {
			// Oversized DFAs can occur for pathological random queries.
			continue
		}
		if env.Safe() {
			safe++
		} else {
			unsafe++
		}
	}
	if safe == 0 || unsafe == 0 {
		t.Errorf("random queries should mix verdicts: %d safe, %d unsafe", safe, unsafe)
	}
	// The paper observes most random queries are safe.
	if safe <= unsafe {
		t.Logf("note: %d safe vs %d unsafe (paper observed a safe majority)", safe, unsafe)
	}
}

func TestSyntheticSizes(t *testing.T) {
	for _, size := range []int{400, 800, 1200} {
		d := Synthetic(size, 1)
		got := d.Spec.Size()
		if got < size-60 || got > size+60 {
			t.Errorf("Synthetic(%d) size = %d", size, got)
		}
		// IFQs over its pipeline tags must be safe (the Fig. 13a workload).
		r := rand.New(rand.NewSource(1))
		q := d.SafeIFQ(r, 3, true)
		env, err := core.Compile(d.Spec, automata.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		if !env.Safe() {
			t.Errorf("Synthetic(%d): %q should be safe", size, q)
		}
	}
}

func TestIFQRendering(t *testing.T) {
	if got := IFQ(); got != "_*" {
		t.Errorf("IFQ() = %q", got)
	}
	if got := IFQ("x", "y"); got != "_*.x._*.y._*" {
		t.Errorf("IFQ(x,y) = %q", got)
	}
}

// TestEnumeratorCounts pins what the enumerators give at the quick bounds:
// distinct languages of at most 2 leaves, and runs of at most 12 nodes, one
// per depth of the specification's recursion.
func TestEnumeratorCounts(t *testing.T) {
	want := map[string][2]int{"paper": {1282, 4}, "fork": {190, 11}, "multicycle": {1282, 5}, "branchy": {832, 4}}
	for _, s := range SmallSpecs() {
		runs, err := Runs(s.Spec, 12)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range runs {
			if r.NumNodes() > 12 {
				t.Errorf("%s: a run of %d nodes", s.Name, r.NumNodes())
			}
		}
		if got := [2]int{len(Languages(s.Spec, 2)), len(runs)}; got != want[s.Name] {
			t.Errorf("%s: %d languages and %d runs, want %v", s.Name, got[0], got[1], want[s.Name])
		}
	}
}
