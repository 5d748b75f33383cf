package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"provrpq/internal/automata"
	"provrpq/internal/baseline"
	"provrpq/internal/derive"
	"provrpq/internal/label"
	"provrpq/internal/reach"
	"provrpq/internal/wf"
)

// walkQueries generates the safe queries of one specification for the walk
// property test: infrequent-symbol queries _*.t1._*…tk._* for k = 1..4 over
// random tags, the star of one tag and of an alternation of two, the
// hand-picked suite of specsAndQueries, and — through RelaxSafety — the
// relaxed-safe ones among them.
func walkQueries(t *testing.T, spec *wf.Spec, extra []string, r *rand.Rand) map[string]*Env {
	tags := spec.Tags()
	pick := func() string { return tags[r.Intn(len(tags))] }
	qs := slices.Clone(extra)
	for k := 1; k <= 4; k++ {
		for n := 0; n < 6; n++ {
			syms := make([]string, k)
			for i := range syms {
				syms[i] = pick()
			}
			qs = append(qs, "_*."+strings.Join(syms, "._*.")+"._*")
		}
	}
	for _, tag := range tags {
		qs = append(qs, tag+"*", "("+tag+"|"+pick()+")*")
	}
	out := map[string]*Env{}
	for _, q := range qs {
		if env := compile(t, spec, q); env.RelaxSafety() {
			out[q] = env
		}
	}
	return out
}

// TestFusedWalkMatchesRPLAndOracle: over every test specification × safe
// query × list shape, the fused OptRPL walk emits exactly the RPL scan's
// pair set, which is exactly the product-BFS oracle's — each pair once, in
// a deterministic sequence.
func TestFusedWalkMatchesRPLAndOracle(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for name, suite := range specsAndQueries() {
		envs := walkQueries(t, suite.spec, suite.queries, r)
		if len(envs) < 8 {
			t.Errorf("%s: only %d safe queries generated", name, len(envs))
		}
		for seed := int64(0); seed < 3; seed++ {
			run, err := derive.Derive(suite.spec, derive.Options{Seed: seed, TargetEdges: 90})
			if err != nil {
				t.Fatal(err)
			}
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
			for q, env := range envs {
				oracle := baseline.NewOracle(run, automata.MustParse(q))
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
						t.Fatalf("%s seed %d %q shape %d: RPL found %d pairs, oracle %d", name, seed, q, si, len(rpl), len(want))
					}
					var seq, again [][2]int
					for _, out := range []*[][2]int{&seq, &again} {
						if err := env.AllPairsSafeParallel(l1, l2, OptRPL, 1, func(i, j int) { *out = append(*out, [2]int{i, j}) }); err != nil {
							t.Fatal(err)
						}
					}
					if !slices.Equal(seq, again) {
						t.Fatalf("%s seed %d %q shape %d: two walks emitted different sequences", name, seed, q, si)
					}
					sortIndexPairs(seq)
					if !slices.Equal(seq, want) {
						t.Fatalf("%s seed %d %q shape %d: walk found %d pairs, oracle %d (first diff %v)",
							name, seed, q, si, len(seq), len(want), firstDiff(seq, want))
					}
				}
			}
		}
	}
}

// TestFusedWalkWorkIsInputPlusOutput is the regression this walk exists to
// prevent: on a run where almost every node pair is reachable but almost
// none matches (a* where no edge is tagged a, so only the empty path
// matches), the walk's bucket-pair tests stay within a constant of
// n·depth + matches instead of growing with the reachable pairs.
func TestFusedWalkWorkIsInputPlusOutput(t *testing.T) {
	spec := wf.PaperSpec()
	run, err := derive.Derive(spec, derive.Options{Seed: 3, TargetEdges: 1500})
	if err != nil {
		t.Fatal(err)
	}
	tag := "nowhere"
	if slices.Contains(spec.Tags(), tag) {
		t.Fatalf("tag %q is in the specification", tag)
	}
	env := compile(t, spec, tag+"*")
	if !env.Safe() {
		t.Fatalf("%s* should be safe: it matches the empty path only", tag)
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

	d := env.NewDecoder()
	t1, t2 := reach.NewTrie(labels), reach.NewTrie(labels)
	matches := 0
	w := d.newWalk(t1, t2, d.leafVectors(t1, true), d.leafVectors(t2, false))
	w.run(func(b block) { matches += len(b.xs) * len(b.ys) })

	n := len(labels)
	if matches != n {
		t.Fatalf("%d matches, want the %d empty paths", matches, n)
	}
	if reachable < 100*matches {
		t.Fatalf("fixture too sparse: %d reachable pairs for %d matches", reachable, matches)
	}
	if bound := 2 * (n*depth + matches); w.tests > bound {
		t.Errorf("%d bucket-pair tests for n=%d depth=%d matches=%d (bound %d; %d reachable pairs)",
			w.tests, n, depth, matches, bound, reachable)
	}
	t.Logf("n=%d depth=%d reachable=%d matches=%d tests=%d", n, depth, reachable, matches, w.tests)
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
