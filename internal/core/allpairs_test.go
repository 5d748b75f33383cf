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
// entry. The RPL digests of the first two cases were taken from the
// hand-written serial RPL loop this function replaced (commit 81434c8,
// workers == 1). Their OptRPL digests were taken from the walk once Case 2
// swept each recursion chain, which hands out blocks in another order than
// the earlier iteration-pair loops did; the walk's pairs, sorted, must be
// RPL's, so each golden pins a checked answer. The third case's digest was
// taken from the serial walk when a 7,700-edge list still sat above a
// fan-out cut-off (RPL would decode 18M pairs there and is left out): every
// case is the serial scan, whatever the list size.
func TestAllPairsWorkersOneIsTheSerialScan(t *testing.T) {
	spec := wf.PaperSpec()
	for _, c := range []struct {
		name, query string
		targetEdges int
		golden      map[AllPairsStrategy]string // strategy -> "count:fnv64a" of the serial sequence
	}{
		{"below", "_*.e._*", 40, map[AllPairsStrategy]string{RPL: "168:74ca6998262bd30b", OptRPL: "168:a966dfc48ac1922b"}},
		{"above", "_*.e._*", 1400, map[AllPairsStrategy]string{RPL: "150543:8f158f5893111e44", OptRPL: "150543:6f465a30351645a2"}},
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
		seqs := map[AllPairsStrategy][][2]int{}
		for _, strategy := range []AllPairsStrategy{RPL, OptRPL} {
			if c.golden[strategy] == "" {
				continue
			}
			h := fnv.New64a()
			var seq [][2]int
			if err := env.AllPairsSafeParallel(labels, labels, strategy, 1, func(i, j int) {
				fmt.Fprintf(h, "%d,%d;", i, j)
				seq = append(seq, [2]int{i, j})
			}); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%d:%016x", len(seq), h.Sum64()); got != c.golden[strategy] {
				t.Errorf("%s strategy %d: sequence digest %s, want the serial scan's %s", c.name, strategy, got, c.golden[strategy])
			}
			seqs[strategy] = seq
		}
		if rpl, opt := seqs[RPL], seqs[OptRPL]; rpl != nil {
			sortIndexPairs(opt)
			if !slices.Equal(opt, rpl) {
				t.Errorf("%s: the OptRPL sequence, sorted, is not RPL's (first diff %s)", c.name, firstDiff(opt, rpl))
			}
		}
	}
}
