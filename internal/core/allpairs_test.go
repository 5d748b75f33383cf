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

// TestAllPairsWorkersOneIsTheSerialScan pins the emit order of the one scan
// entry. The golden digests of the first two cases were taken from the
// hand-written serial RPL and OptRPL loops this function replaced (commit
// 81434c8, workers == 1) — the fused OptRPL walk visits the tries in the
// order the reach-filter walk did, so on a query whose leaves never split
// into several buckets it reproduces that sequence too. A single worker
// must emit that pair sequence exactly, below and above the fan-out
// cut-offs, and any other worker count the identical pair set. The third
// case puts l1 above OptRPL's cut-off (RPL would decode 18M pairs per
// worker count there and is left out).
func TestAllPairsWorkersOneIsTheSerialScan(t *testing.T) {
	spec := wf.PaperSpec()
	for _, c := range []struct {
		name, query      string
		targetEdges      int
		rplFans, optFans bool
		golden           map[AllPairsStrategy]string // strategy -> "count:fnv64a" of the serial sequence
	}{
		{"below", "_*.e._*", 40, false, false, map[AllPairsStrategy]string{RPL: "168:74ca6998262bd30b", OptRPL: "168:3b594e24f07cfe2b"}},
		{"above", "_*.e._*", 1400, true, false, map[AllPairsStrategy]string{RPL: "150543:8f158f5893111e44", OptRPL: "150543:2a111a1f4550f924"}},
		{"fan-out", "_*.e._*.b._*", 7700, true, true, map[AllPairsStrategy]string{OptRPL: "4242:77f6c6000b50c698"}},
	} {
		env := compile(t, spec, c.query)
		run, err := derive.Derive(spec, derive.Options{Seed: 9, TargetEdges: c.targetEdges})
		if err != nil {
			t.Fatal(err)
		}
		labels := make([]label.Label, len(run.Nodes))
		for i, n := range run.Nodes {
			labels[i] = n.Label
		}
		if n := len(labels); c.rplFans != (n*n >= rplParallelCutoff) || c.optFans != (n >= optParallelCutoff) {
			t.Fatalf("%s: %d labels sit on the wrong side of the cut-offs", c.name, n)
		}
		sortPairs := func(s [][2]int) {
			slices.SortFunc(s, func(a, b [2]int) int { return slices.Compare(a[:], b[:]) })
		}
		for _, strategy := range []AllPairsStrategy{RPL, OptRPL} {
			if c.golden[strategy] == "" {
				continue
			}
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
