package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"provrpq/internal/automata"
	"provrpq/internal/baseline"
	"provrpq/internal/derive"
	"provrpq/internal/label"
	"provrpq/internal/reach"
	"provrpq/internal/wf"
	"provrpq/internal/workload"
)

// enumerated is one of workload.SmallSpecs with every run of at most 12
// nodes and the compiled languages of at most 2 leaf symbols, then the
// queries the spec names, split into safe and unsafe: the quick bounds of the
// root package's TestEnumeratedCells.
type enumerated struct {
	name   string
	runs   []*derive.Run
	safe   []*Env
	unsafe []*Env
}

var enumeration struct {
	sync.Once
	specs []enumerated
	err   error
}

// enumerate builds the enumeration once for every test of the package.
func enumerate(t *testing.T) []enumerated {
	t.Helper()
	enumeration.Do(func() {
		for _, s := range workload.SmallSpecs() {
			runs, err := workload.Runs(s.Spec, 12)
			if err != nil {
				enumeration.err = err
				return
			}
			e := enumerated{name: s.Name, runs: runs}
			queries := workload.Languages(s.Spec, 2)
			for _, q := range s.Named {
				queries = append(queries, automata.MustParse(q))
			}
			for _, q := range queries {
				env, err := Compile(s.Spec, q)
				switch {
				case err != nil:
					enumeration.err = fmt.Errorf("%s: Compile(%q): %w", s.Name, q, err)
					return
				case env.Safe():
					e.safe = append(e.safe, env)
				default:
					e.unsafe = append(e.unsafe, env)
				}
			}
			enumeration.specs = append(enumeration.specs, e)
		}
	})
	if enumeration.err != nil {
		t.Fatal(enumeration.err)
	}
	return enumeration.specs
}

// TestFusedWalkMatchesRPLAndOracle: over every enumerated specification ×
// run × safe language × list shape, the fused OptRPL walk emits exactly the
// RPL scan's pair list, which is exactly the product-BFS oracle's — each
// pair once, in a deterministic sequence.
func TestFusedWalkMatchesRPLAndOracle(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, e := range enumerate(t) {
		for ri, run := range e.runs {
			n := run.NumNodes()
			all := run.AllNodes()
			var evens, odds, dups []derive.NodeID
			for i, id := range all {
				if i%2 == 0 {
					evens = append(evens, id)
				} else {
					odds = append(odds, id)
				}
				dups = append(dups, derive.NodeID(r.Intn(n)))
			}
			shapes := [][2][]derive.NodeID{
				{all, all}, // scanned as one list: l1 and l2 the same slice
				{all, all},
				{evens, odds},
				{dups, evens},
				{all[:n/3], dups},
				{nil, all},
				{all, nil},
				{all[n/2 : n/2+1], all},
				{all, all[n-1:]},
			}
			for _, env := range e.safe {
				q := env.Query.String()
				oracle := baseline.NewOracle(run, env.Query)
				for si, sh := range shapes {
					l1 := labelsOfRun(run, sh[0])
					l2 := l1
					if si > 0 {
						l2 = labelsOfRun(run, sh[1])
					}
					var want [][2]int
					oracle.AllPairs(sh[0], sh[1], func(i, j int) { want = append(want, [2]int{i, j}) })
					sortIndexPairs(want)
					var rpl [][2]int
					if err := env.AllPairsSafeParallel(l1, l2, RPL, 1, func(i, j int) { rpl = append(rpl, [2]int{i, j}) }); err != nil {
						t.Fatal(err)
					}
					sortIndexPairs(rpl)
					if !slices.Equal(rpl, want) {
						t.Fatalf("%s run %d %q shape %d: RPL found %d pairs, oracle %d", e.name, ri, q, si, len(rpl), len(want))
					}
					var seq, again [][2]int
					for _, out := range []*[][2]int{&seq, &again} {
						if err := env.AllPairsSafeParallel(l1, l2, OptRPL, 1, func(i, j int) { *out = append(*out, [2]int{i, j}) }); err != nil {
							t.Fatal(err)
						}
					}
					if !slices.Equal(seq, again) {
						t.Fatalf("%s run %d %q shape %d: two walks emitted different sequences", e.name, ri, q, si)
					}
					sortIndexPairs(seq)
					if !slices.Equal(seq, want) {
						t.Fatalf("%s run %d %q shape %d: walk found %d pairs, oracle %d (first diff %v)",
							e.name, ri, q, si, len(seq), len(want), firstDiff(seq, want))
					}
				}
			}
		}
	}
}

// TestFusedWalkWorkIsInputPlusOutput is the regression this walk exists to
// prevent: on a run where almost every node pair is reachable but almost
// none matches, the walk's bucket-pair tests stay within a constant of
// n·depth + matches instead of growing with the reachable pairs. nowhere*,
// whose tag no edge carries, matches the empty paths alone and prunes every
// divergence; _*.e._*.e._* and _*.b._* keep live vectors across the run's
// recursion chains, so both halves of every Case 2 sweep run, and find
// nothing and a few blocks of pairs.
func TestFusedWalkWorkIsInputPlusOutput(t *testing.T) {
	t.Parallel()
	spec := wf.PaperSpec()
	run, err := derive.Derive(spec, derive.Options{Seed: 3, TargetEdges: 1500})
	if err != nil {
		t.Fatal(err)
	}
	tag := "nowhere"
	if slices.Contains(spec.Tags(), tag) {
		t.Fatalf("tag %q is in the specification", tag)
	}
	labels := run.MaterializeLabels()
	depth := 0
	for _, l := range labels {
		depth = max(depth, len(l))
	}
	reachable := 0
	for _, a := range labels {
		for _, b := range labels {
			if reach.Pairwise(spec, a, b) {
				reachable++
			}
		}
	}
	n := len(labels)
	t1, t2 := reach.NewTrie(labels), reach.NewTrie(labels)
	for _, c := range []struct {
		query   string
		matches int
	}{
		{tag + "*", n}, // the empty paths
		{"_*.e._*.e._*", 0},
		{"_*.b._*", 2481},
	} {
		env := compile(t, spec, c.query)
		if !env.Safe() {
			t.Fatalf("%s should be safe", c.query)
		}
		d := env.NewDecoder()
		matches := 0
		w := d.newWalk(t1, t2, d.leafVectors(t1, true), d.leafVectors(t2, false))
		work := w.run(func(b block) { matches += len(b.xs) * len(b.ys) })
		if matches != c.matches {
			t.Fatalf("%s: %d matches, want %d", c.query, matches, c.matches)
		}
		if reachable < 100*max(matches, 1) {
			t.Fatalf("%s: fixture too sparse: %d reachable pairs for %d matches", c.query, reachable, matches)
		}
		if bound := 2 * (n*depth + matches); work.Tests > bound {
			t.Errorf("%s: %d bucket-pair tests for n=%d depth=%d matches=%d (bound %d; %d reachable pairs)",
				c.query, work.Tests, n, depth, matches, bound, reachable)
		}
		t.Logf("%s: n=%d depth=%d reachable=%d matches=%d tests=%d", c.query, n, depth, reachable, matches, work.Tests)
	}
}

func labelsOfRun(run *derive.Run, ids []derive.NodeID) []label.Label {
	out := make([]label.Label, len(ids))
	for i, id := range ids {
		out[i] = run.Label(id)
	}
	return out
}

func sortIndexPairs(s [][2]int) {
	slices.SortFunc(s, func(a, b [2]int) int { return slices.Compare(a[:], b[:]) })
}

func firstDiff(got, want [][2]int) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("got %v want %v", got[i], want[i])
		}
	}
	return "length"
}

// TestLeafVectorsCompact: a walk's state holds no pointer per bucket or per
// node, and a trie has about one bucket per node on each side (ROADMAP item
// 16): on a BioAID run of 8K edges, under a query whose candidates are half
// the run and under a*, each side's pool holds at most 1.05 buckets per trie
// node and its spill at most one entry per leaf.
func TestLeafVectorsCompact(t *testing.T) {
	var pointerFree func(reflect.Type) bool
	pointerFree = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !pointerFree(ty.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Array:
			return pointerFree(ty.Elem())
		}
		return ty.Kind() <= reflect.Complex128 // bool, ints, uints, floats
	}
	for _, v := range []any{bucket{}, span{}} {
		if ty := reflect.TypeOf(v); !pointerFree(ty) {
			t.Errorf("%v holds a pointer", ty)
		}
	}

	d := workload.BioAID()
	run, err := derive.Derive(d.Spec, derive.Options{Seed: 20150413, TargetEdges: 8000})
	if err != nil {
		t.Fatal(err)
	}
	trie := reach.NewTrie(run.MaterializeLabels())
	for _, q := range []string{"_*.L1._*", "a*"} {
		dec := compile(t, d.Spec, q).NewDecoder()
		for _, up := range []bool{true, false} {
			v := dec.leafVectors(trie, up)
			nodes, leaves := len(trie.Nodes), len(trie.Perm)
			t.Logf("%s up=%v: %d buckets, %d spilled leaves for %d nodes, %d leaves", q, up, len(v.pool), len(v.spill), nodes, leaves)
			if len(v.pool) > nodes+nodes/20 || len(v.spill) > leaves {
				t.Errorf("%s up=%v: %d buckets and %d spilled leaves for %d nodes and %d leaves; want at most %d and %d",
					q, up, len(v.pool), len(v.spill), nodes, leaves, nodes+nodes/20, leaves)
			}
		}
	}
}
