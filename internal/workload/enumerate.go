package workload

import (
	"fmt"
	"math"

	"provrpq/internal/automata"
	"provrpq/internal/derive"
	"provrpq/internal/wf"
)

// SmallSpec is one of the small specifications that tests enumerate every
// query and run of, up to a size bound.
type SmallSpec struct {
	Name string
	Spec *wf.Spec
	// Named are regression queries outside the enumerated bound — more leaf
	// symbols than the quick tier's, or ε, which no leaf spells — that the
	// tests check on every enumerated run like the enumerated languages.
	Named []string
}

// SmallSpecs returns the specifications the bounded-exhaustive tests cover,
// always in this order: the paper's running example (Fig. 2a), the fork of
// Fig. 14, a two-module recursion whose cycle has length 2, and a grammar
// whose bodies branch and rejoin.
func SmallSpecs() []SmallSpec {
	multicycle := wf.NewBuilder().
		Start("S").
		Atomic("x", "y", "z").
		Chain("S", "x", "A").
		Chain("A", "x", "B", "y").
		Chain("A", "z", "z").
		Chain("B", "y", "A", "x").
		Chain("B", "z", "z").
		MustBuild()
	branchy := wf.NewBuilder().
		Start("S").
		Atomic("src", "l", "r", "snk", "t").
		Prod("S", []string{"src", "L", "R", "snk"}, []wf.BodyEdge{
			{From: 0, To: 1, Tag: "l"}, {From: 0, To: 2, Tag: "r"},
			{From: 1, To: 3, Tag: "s"}, {From: 2, To: 3, Tag: "s"},
		}).
		Prod("L", []string{"src", "L", "snk"}, []wf.BodyEdge{
			{From: 0, To: 1, Tag: "l"}, {From: 1, To: 2, Tag: "l"},
		}).
		Chain("L", "l").
		Prod("R", []string{"r", "t"}, []wf.BodyEdge{{From: 0, To: 1, Tag: "t"}}).
		MustBuild()
	return []SmallSpec{
		{"paper", wf.PaperSpec(), []string{"ε", "_*.e._*", "_*.b._*", "(e|b)._*", "_*.e._*.b._*", "_*.e._*.e._*",
			"_*.A._*", "_*.d._*", "(_*.e._*).A", "d.(_*.e._*)", "d*._*.e._*", "(b.b)|(e.d)"}},
		{"fork", wf.ForkSpec(), []string{"ε", "a*.b._*"}},
		{"multicycle", multicycle, []string{"ε", "_*.z._*"}},
		{"branchy", branchy, []string{"_*.s._*", "_*.t._*", "r.t.s"}},
	}
}

// Languages returns one expression for each regular language that an
// expression over spec's tags and the wildcard denotes, built with
// concatenation, alternation and an optional *, + or ? on each
// subexpression, with at most k leaf symbols. The first expression found for
// a language represents it, and larger expressions are built from
// representatives only. Expressions come in order of leaf count, and in a
// fixed order within one count.
func Languages(spec *wf.Spec, k int) []*automata.Node {
	if k < 1 {
		return nil
	}
	tags := spec.Tags()
	seen := map[string]bool{}
	var out []*automata.Node
	byLeaves := make([][]*automata.Node, k+1) // representatives by leaf count
	add := func(i int, n *automata.Node) {
		for _, x := range []*automata.Node{n, automata.Star(n), automata.Plus(n), automata.Opt(n)} {
			// CompileDFA numbers the minimal DFA's states in breadth-first
			// order, so two expressions of one language compile alike.
			d := automata.CompileDFA(x, tags)
			if key := fmt.Sprint(d.Accept, d.Delta); !seen[key] {
				seen[key] = true
				byLeaves[i] = append(byLeaves[i], x)
				out = append(out, x)
			}
		}
	}
	for _, t := range tags {
		add(1, automata.Sym(t))
	}
	add(1, automata.Wild())
	for i := 2; i <= k; i++ {
		for j := 1; j < i; j++ {
			for _, a := range byLeaves[j] {
				for _, b := range byLeaves[i-j] {
					add(i, automata.Concat(a, b))
					if j <= i-j { // Alt(b, a) is the same language
						add(i, automata.Alt(a, b))
					}
				}
			}
		}
	}
	return out
}

// Runs returns every run of spec with at most m nodes, each once. Every
// expansion that has more than one production able to finish within m
// nodes is a choice; a run is the derivation one vector of choices drives,
// and the vectors are visited depth-first, first production first.
func Runs(spec *wf.Spec, m int) ([]*derive.Run, error) {
	// least[mod] is the fewest nodes a run of module mod has, and body[k]
	// the fewest production k's body expands to.
	least, body := make([]int, len(spec.Modules)), make([]int, len(spec.Prods))
	for i := range least {
		least[i] = 1
		if spec.IsComposite(wf.ModuleID(i)) {
			least[i] = math.MaxInt32
		}
	}
	for changed := true; changed; {
		changed = false
		for k, p := range spec.Prods {
			body[k] = 0
			for _, b := range p.Body.Nodes {
				body[k] += least[b]
			}
			if body[k] < least[p.LHS] {
				least[p.LHS], changed = body[k], true
			}
		}
	}
	if least[spec.Start] > m {
		return nil, nil
	}
	var runs []*derive.Run
	// choice[i] picks among options[i] productions at the i-th choice.
	var choice, options []int
	for {
		at, bound := 0, least[spec.Start]
		policy := func(mod wf.ModuleID, prods []int, _ int) int {
			// bound is the fewest nodes the run can still end with: the
			// nodes placed, plus the least each unexpanded module derives.
			var feasible []int
			for _, k := range prods {
				if bound-least[mod]+body[k] <= m {
					feasible = append(feasible, k)
				}
			}
			pick := 0
			if len(feasible) > 1 {
				if at == len(choice) {
					choice = append(choice, 0)
					options = append(options, len(feasible))
				}
				pick = choice[at]
				at++
			}
			k := feasible[pick]
			bound += body[k] - least[mod]
			return k
		}
		run, err := derive.Derive(spec, derive.Options{Policy: policy})
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
		for len(choice) > 0 && choice[len(choice)-1] == options[len(options)-1]-1 {
			choice, options = choice[:len(choice)-1], options[:len(options)-1]
		}
		if len(choice) == 0 {
			return runs, nil
		}
		choice[len(choice)-1]++
	}
}
