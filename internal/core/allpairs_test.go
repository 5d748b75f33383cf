package core

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"provrpq/internal/derive"
	"provrpq/internal/label"
	"provrpq/internal/wf"
)

// TestAllPairsWorkersOneIsTheSerialScan pins the emit order of the one
// remaining scan entry. The golden digests were taken from the hand-written
// serial RPL and OptRPL loops this function replaced (commit 81434c8,
// workers == 1): a single worker must reproduce that pair sequence exactly,
// below and above the fan-out cut-offs, and any other worker count must
// emit the identical pair set.
func TestAllPairsWorkersOneIsTheSerialScan(t *testing.T) {
	spec := wf.PaperSpec()
	env := compile(t, spec, "_*.e._*")
	for _, c := range []struct {
		name        string
		targetEdges int
		golden      map[AllPairsStrategy]string // strategy -> "count:fnv64a" of the serial sequence
	}{
		{"below", 40, map[AllPairsStrategy]string{RPL: "168:74ca6998262bd30b", OptRPL: "168:3b594e24f07cfe2b"}},
		{"above", 1400, map[AllPairsStrategy]string{RPL: "150543:8f158f5893111e44", OptRPL: "150543:2a111a1f4550f924"}},
	} {
		run, err := derive.Derive(spec, derive.Options{Seed: 9, TargetEdges: c.targetEdges})
		if err != nil {
			t.Fatal(err)
		}
		labels := make([]label.Label, len(run.Nodes))
		for i, n := range run.Nodes {
			labels[i] = n.Label
		}
		// optParallelCutoff² > rplParallelCutoff, so these two bounds put a
		// square scan below, or above, both cut-offs at once.
		if n := len(labels); (c.name == "below") != (n*n < rplParallelCutoff) || (c.name == "above") != (n >= optParallelCutoff) {
			t.Fatalf("%s: %d labels sit on the wrong side of the cut-offs", c.name, n)
		}
		sortPairs := func(s [][2]int) {
			slices.SortFunc(s, func(a, b [2]int) int { return slices.Compare(a[:], b[:]) })
		}
		for _, strategy := range []AllPairsStrategy{RPL, OptRPL} {
			var serial [][2]int
			for _, workers := range []int{1, 2, 4} {
				var seq [][2]int
				if err := env.AllPairsSafeParallel(labels, labels, strategy, workers, func(i, j int) {
					seq = append(seq, [2]int{i, j})
				}); err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					h := fnv.New64a()
					for _, p := range seq {
						fmt.Fprintf(h, "%d,%d;", p[0], p[1])
					}
					if got := fmt.Sprintf("%d:%016x", len(seq), h.Sum64()); got != c.golden[strategy] {
						t.Errorf("%s strategy %d workers 1: sequence digest %s, want the serial scan's %s", c.name, strategy, got, c.golden[strategy])
					}
					sortPairs(seq)
					serial = seq
					continue
				}
				sortPairs(seq)
				if !slices.Equal(seq, serial) {
					t.Errorf("%s strategy %d workers %d: %d pairs differ from the serial scan's %d", c.name, strategy, workers, len(seq), len(serial))
				}
			}
		}
	}
}
