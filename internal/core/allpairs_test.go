package core

import (
	"fmt"
	"hash/fnv"
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
// into several buckets it reproduces that sequence too. The third case's
// digest was taken from the serial walk when a 7,700-edge list still sat
// above a fan-out cut-off (RPL would decode 18M pairs there and is left
// out): every case is the serial scan, whatever the list size.
func TestAllPairsWorkersOneIsTheSerialScan(t *testing.T) {
	spec := wf.PaperSpec()
	for _, c := range []struct {
		name, query string
		targetEdges int
		golden      map[AllPairsStrategy]string // strategy -> "count:fnv64a" of the serial sequence
	}{
		{"below", "_*.e._*", 40, map[AllPairsStrategy]string{RPL: "168:74ca6998262bd30b", OptRPL: "168:3b594e24f07cfe2b"}},
		{"above", "_*.e._*", 1400, map[AllPairsStrategy]string{RPL: "150543:8f158f5893111e44", OptRPL: "150543:2a111a1f4550f924"}},
		{"fan-out", "_*.e._*.b._*", 7700, map[AllPairsStrategy]string{OptRPL: "4242:77f6c6000b50c698"}},
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
		for _, strategy := range []AllPairsStrategy{RPL, OptRPL} {
			if c.golden[strategy] == "" {
				continue
			}
			h := fnv.New64a()
			count := 0
			if err := env.AllPairsSafeParallel(labels, labels, strategy, 1, func(i, j int) {
				fmt.Fprintf(h, "%d,%d;", i, j)
				count++
			}); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%d:%016x", count, h.Sum64()); got != c.golden[strategy] {
				t.Errorf("%s strategy %d: sequence digest %s, want the serial scan's %s", c.name, strategy, got, c.golden[strategy])
			}
		}
	}
}
