package baseline

import (
	"testing"

	"provrpq/internal/automata"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/rel"
	"provrpq/internal/wf"
)

func testRun(t *testing.T, spec *wf.Spec, seed int64, target int) *derive.Run {
	t.Helper()
	r, err := derive.Derive(spec, derive.Options{Seed: seed, TargetEdges: target})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func relFromOracle(run *derive.Run, q *automata.Node) *rel.Rel {
	o := NewOracle(run, q)
	out := rel.NewRel()
	for _, u := range run.AllNodes() {
		for _, v := range o.From(u) {
			out.Add(u, v)
		}
	}
	return out
}

func sameRel(t *testing.T, name string, got, want *rel.Rel, run *derive.Run) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Errorf("%s: %d pairs, oracle %d", name, got.Len(), want.Len())
	}
	want.Each(func(u, v derive.NodeID) {
		if !got.Has(u, v) {
			t.Errorf("%s: missing (%s,%s)", name, run.Nodes[u].Name, run.Nodes[v].Name)
		}
	})
	got.Each(func(u, v derive.NodeID) {
		if !want.Has(u, v) {
			t.Errorf("%s: spurious (%s,%s)", name, run.Nodes[u].Name, run.Nodes[v].Name)
		}
	})
}

var crossQueries = []string{
	"_*", "_*.e._*", "_*.e._*.b._*", "e", "b.b", "(e|b)._*", "d*", "A+",
	"_*.A._*", "_._._", "(A|d)+", "e.e", "_?",
}

func TestG1MatchesOracle(t *testing.T) {
	spec := wf.PaperSpec()
	for seed := int64(0); seed < 4; seed++ {
		run := testRun(t, spec, seed, 80)
		ix := index.Build(run)
		g1 := NewG1(ix)
		for _, qs := range crossQueries {
			q := automata.MustParse(qs)
			sameRel(t, "G1 "+qs, g1.Eval(q), relFromOracle(run, q), run)
		}
	}
}

func TestG2MatchesOracle(t *testing.T) {
	spec := wf.PaperSpec()
	for seed := int64(0); seed < 4; seed++ {
		run := testRun(t, spec, seed, 80)
		ix := index.Build(run)
		for _, qs := range crossQueries {
			q := automata.MustParse(qs)
			g2 := NewG2(ix, q)
			sameRel(t, "G2 "+qs, g2.Eval(), relFromOracle(run, q), run)
		}
	}
}

func TestG2PairwiseMatchesOracle(t *testing.T) {
	spec := wf.PaperSpec()
	run := testRun(t, spec, 5, 60)
	ix := index.Build(run)
	for _, qs := range []string{"_*.e._*", "e", "_*.e._*.b._*", "A+"} {
		q := automata.MustParse(qs)
		g2 := NewG2(ix, q)
		o := NewOracle(run, q)
		n := run.NumNodes()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				u, v := derive.NodeID(i), derive.NodeID(j)
				if g2.Pairwise(u, v) != o.Pairwise(u, v) {
					t.Fatalf("G2 %s (%s,%s): mismatch", qs, run.Nodes[i].Name, run.Nodes[j].Name)
				}
			}
		}
	}
}

func TestG2RareLabelChoice(t *testing.T) {
	spec := wf.PaperSpec()
	run := testRun(t, spec, 1, 150)
	ix := index.Build(run)
	// e occurs once per recursion base; b at least 3 times; _*e_* must pick e.
	g2 := NewG2(ix, automata.MustParse("_*.e._*"))
	if g2.RareLabel() != "e" {
		t.Errorf("rare label = %q, want e", g2.RareLabel())
	}
	// Kleene star has no required label.
	g2 = NewG2(ix, automata.MustParse("d*"))
	if g2.RareLabel() != "" {
		t.Errorf("rare label for d* = %q, want none", g2.RareLabel())
	}
	// Alternation: neither branch symbol is required.
	g2 = NewG2(ix, automata.MustParse("e|b"))
	if g2.RareLabel() != "" {
		t.Errorf("rare label for e|b = %q, want none", g2.RareLabel())
	}
	// ... but a symbol required via both branches is.
	g2 = NewG2(ix, automata.MustParse("(e.d)|(d.e)"))
	if g2.RareLabel() == "" {
		t.Error("d and e are both required in (e.d)|(d.e)")
	}
}

func TestIFQRecognition(t *testing.T) {
	cases := []struct {
		q    string
		want []string
		ok   bool
	}{
		{"_*", []string{}, true},
		{"_*.e._*", []string{"e"}, true},
		{"_*.e._*.b._*", []string{"e", "b"}, true},
		{"_*.a1._*.a2._*.a3._*", []string{"a1", "a2", "a3"}, true},
		{"e", nil, false},
		{"_*.e", nil, false},
		{"e._*", nil, false},
		{"_*.e*._*", nil, false},
		{"_*.(e|b)._*", nil, false},
		{"(_*.e._*)", []string{"e"}, true},
	}
	for _, c := range cases {
		syms, ok := IFQSymbols(automata.MustParse(c.q))
		if ok != c.ok {
			t.Errorf("IFQSymbols(%q) ok = %v, want %v", c.q, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if len(syms) != len(c.want) {
			t.Errorf("IFQSymbols(%q) = %v, want %v", c.q, syms, c.want)
			continue
		}
		for i := range syms {
			if syms[i] != c.want[i] {
				t.Errorf("IFQSymbols(%q) = %v, want %v", c.q, syms, c.want)
			}
		}
	}
}

func TestG3MatchesOracle(t *testing.T) {
	spec := wf.PaperSpec()
	for seed := int64(0); seed < 4; seed++ {
		run := testRun(t, spec, seed, 80)
		ix := index.Build(run)
		for _, qs := range []string{"_*", "_*.e._*", "_*.e._*.b._*", "_*.A._*.d._*"} {
			q := automata.MustParse(qs)
			g3, ok := NewG3(ix, q)
			if !ok {
				t.Fatalf("%q should be an IFQ", qs)
			}
			o := NewOracle(run, q)
			n := run.NumNodes()
			// Pairwise over all pairs.
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					u, v := derive.NodeID(i), derive.NodeID(j)
					if got, want := g3.Pairwise(u, v), o.Pairwise(u, v); got != want {
						t.Fatalf("G3 %s (%s,%s) = %v, oracle %v", qs,
							run.Nodes[i].Name, run.Nodes[j].Name, got, want)
					}
				}
			}
			// All-pairs over split lists.
			var l1, l2 []derive.NodeID
			for i := 0; i < n; i++ {
				if i%2 == 0 {
					l1 = append(l1, derive.NodeID(i))
				} else {
					l2 = append(l2, derive.NodeID(i))
				}
			}
			got := rel.NewRel()
			g3.AllPairs(l1, l2, func(i, j int) { got.Add(l1[i], l2[j]) })
			want := rel.NewRel()
			o.AllPairs(l1, l2, func(i, j int) { want.Add(l1[i], l2[j]) })
			sameRel(t, "G3 allpairs "+qs, got, want, run)
		}
	}
}

func TestNonIFQRejected(t *testing.T) {
	run := testRun(t, wf.PaperSpec(), 0, 40)
	ix := index.Build(run)
	if _, ok := NewG3(ix, automata.MustParse("e+")); ok {
		t.Error("e+ is not an IFQ")
	}
}

func TestOracleEmptyPath(t *testing.T) {
	run := testRun(t, wf.PaperSpec(), 0, 40)
	o := NewOracle(run, automata.MustParse("_*"))
	if !o.Pairwise(0, 0) {
		t.Error("reflexive reachability should hold for _*")
	}
	o2 := NewOracle(run, automata.MustParse("_+"))
	if o2.Pairwise(0, 0) {
		t.Error("_+ should not match the empty path")
	}
}

func TestRelOps(t *testing.T) {
	r := rel.NewRel()
	r.Add(1, 2)
	r.Add(2, 3)
	r.Add(3, 1)
	if r.Len() != 3 || !r.Has(1, 2) || r.Has(2, 1) {
		t.Fatal("Add/Has broken")
	}
	j := r.Join(r) // (1,3), (2,1), (3,2)
	if j.Len() != 3 || !j.Has(1, 3) || !j.Has(2, 1) || !j.Has(3, 2) {
		t.Fatalf("Join = %v", j.Pairs())
	}
	c := r.Closure() // full 3x3 cycle closure: 9 pairs
	if c.Len() != 9 {
		t.Fatalf("Closure has %d pairs, want 9", c.Len())
	}
	u := r.Union(j)
	if u.Len() != 6 {
		t.Fatalf("Union has %d pairs, want 6", u.Len())
	}
	ps := u.Pairs()
	for i := 1; i < len(ps); i++ {
		if ps[i-1][0] > ps[i][0] || (ps[i-1][0] == ps[i][0] && ps[i-1][1] >= ps[i][1]) {
			t.Fatal("Pairs not sorted")
		}
	}
}

func TestG1AllPairsFilter(t *testing.T) {
	run := testRun(t, wf.PaperSpec(), 2, 60)
	ix := index.Build(run)
	g1 := NewG1(ix)
	q := automata.MustParse("_*.e._*")
	want := relFromOracle(run, q)
	var l1, l2 []derive.NodeID
	for i := 0; i < run.NumNodes(); i += 2 {
		l1 = append(l1, derive.NodeID(i))
	}
	for i := 1; i < run.NumNodes(); i += 3 {
		l2 = append(l2, derive.NodeID(i))
	}
	got := rel.NewRel()
	g1.AllPairs(q, l1, l2, func(i, j int) { got.Add(l1[i], l2[j]) })
	for _, p := range got.Pairs() {
		if !want.Has(p[0], p[1]) {
			t.Fatalf("spurious pair %v", p)
		}
	}
	count := 0
	for _, u := range l1 {
		for _, v := range l2 {
			if want.Has(u, v) {
				count++
			}
		}
	}
	if got.Len() != count {
		t.Fatalf("AllPairs found %d pairs, want %d", got.Len(), count)
	}
}
