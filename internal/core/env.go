// Package core implements the paper's contribution: answering regular path
// queries over workflow provenance with derivation-based reachability
// labels.
//
// Compile intersects the workflow specification G with the minimal DFA of a
// query R (conceptually producing the fine-grained specification G_R of
// Section III-B — realized not as an explicit grammar but as per-production
// state-transition matrices), checks the safety of R w.r.t. G (Section
// III-C), and, for safe queries, answers
//
//   - pairwise queries u —R→ v in constant time from the two labels alone
//     (Algorithm 1 / Theorem 1), and
//   - all-pairs queries over node lists with either a nested-loop scan (the
//     paper's Option S1, "RPL") or the output-linear tree algorithm run
//     over G_R, carrying DFA state vectors down the pair of label tries
//     (Option S2, "optRPL"; Section IV-A; walk.go).
//
// General (unsafe) queries are decomposed into maximal safe subtrees plus a
// relational remainder (Section IV-B "Our approach") in general.go.
//
// # Concurrency
//
// A compiled Env depends only on (Spec, query), never on a run, so it is
// shared freely: after Compile returns, every exported method is safe for
// concurrent use by any number of goroutines. Compile fixes the safety
// verdict and the λ table for good (Definitions 12/13 decide safety once
// per specification and query); the decode artifacts are built once, on
// first use. The mutable per-scan memo tables (chain range products and
// loop powers) are owned by Decoder values — one per goroutine, pooled on
// the Env for the convenience entry points — so the decode hot path never
// locks.
package core

import (
	"fmt"
	"sync"

	"provrpq/internal/automata"
	"provrpq/internal/wf"
)

// Env is a query compiled against a specification: the minimal DFA, the
// per-module dependency matrices λ, the safety verdict, and (for safe
// queries) the decode artifacts. An Env is immutable once Compile returns
// (its lazily built artifacts and memos are once-guarded) and safe for
// concurrent use; see the package comment.
//
//provrpq:immutable
type Env struct {
	Spec  *wf.Spec
	Query *automata.Node
	DFA   *automata.DFA
	// NQ is the minimal DFA's state count.
	NQ int

	// lambda is the per-module λ table; unsafeModule/unsafeProd witness an
	// unsafe verdict and are -1 when the query is safe.
	lambda       []Mat
	unsafeModule wf.ModuleID
	unsafeProd   int

	// art holds the decode artifacts of a safe query, built once on first
	// use; decPool holds decoders warmed against them.
	artOnce sync.Once
	art     *artifacts
	decPool sync.Pool // of *Decoder

	// reqOnce/reqSyms memoize RequiredSyms. They depend only on the minimal
	// DFA (never on the safety verdict), so one computation serves every
	// engine sharing this compiled plan.
	reqOnce sync.Once
	reqSyms []string
	revOnce sync.Once // memoizes revDFA (ReverseDFA), likewise
	revDFA  *automata.DFA
}

// Compile builds the query environment: minimal DFA over the specification's
// tag alphabet, λ computation, and the safety verdict. It errors only on
// structural impossibilities (too many DFA states); unsafe queries compile
// fine and report Safe() == false.
func Compile(spec *wf.Spec, query *automata.Node) (*Env, error) {
	dfa := automata.CompileDFA(query, spec.Tags())
	if dfa.NumStates() > 64 {
		return nil, fmt.Errorf("core: minimal DFA has %d states; this implementation supports at most 64", dfa.NumStates())
	}
	e := &Env{
		Spec:  spec,
		Query: query,
		DFA:   dfa,
		NQ:    dfa.NumStates(),
	}
	e.lambda, e.unsafeModule, e.unsafeProd = e.computeLambda()
	e.decPool.New = func() any { return e.NewDecoder() }
	return e, nil
}

// Safe reports whether the query is safe w.r.t. the specification
// (Definition 13, checked on the minimal DFA per Lemma 3.2).
func (e *Env) Safe() bool { return e.unsafeProd < 0 }

// tagMat returns the single-symbol transition matrix T of an edge tag:
// T[q][δ(q,tag)] = 1.
func (e *Env) tagMat(tag string) Mat {
	m := NewMat(e.NQ)
	for q := 0; q < e.NQ; q++ {
		m.Set(q, e.DFA.Step(q, tag))
	}
	return m
}

// computeLambda runs the worklist of Section III-C (adapted from the
// CFG-emptiness algorithm): λ of an atomic module is the identity; a
// production is verifiable once every body module has λ; the first
// verifiable production of a module defines λ, later ones must agree or the
// DFA is unsafe. Productivity of the grammar (enforced by wf.New) guarantees
// every module's λ is eventually defined. It returns the table and the
// first disagreeing production and its module, both -1 when the query is
// safe.
func (e *Env) computeLambda() (lam []Mat, unsafeModule wf.ModuleID, unsafeProd int) {
	s := e.Spec
	lam = make([]Mat, len(s.Modules))
	unsafeModule, unsafeProd = -1, -1
	for i := range s.Modules {
		if !s.IsComposite(wf.ModuleID(i)) {
			lam[i] = Identity(e.NQ)
		}
	}
	pending := make([]bool, len(s.Prods))
	for i := range pending {
		pending[i] = true
	}
	for changed := true; changed; {
		changed = false
		for k := range s.Prods {
			if !pending[k] {
				continue
			}
			p := &s.Prods[k]
			ready := true
			for _, m := range p.Body.Nodes {
				if lam[m] == nil {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			pending[k] = false
			changed = true
			cand := e.prodLambda(lam, k)
			switch {
			case lam[p.LHS] == nil:
				lam[p.LHS] = cand
			case !lam[p.LHS].Eq(cand) && unsafeProd < 0:
				unsafeModule, unsafeProd = p.LHS, k
			}
		}
	}
	return lam, unsafeModule, unsafeProd
}

// prodLambda computes the input-to-output matrix of one production body by
// a forward DP over the (acyclic) fine-grained body: D[c] maps states at
// the body input to states at node c's input; traversing node c applies
// λ(module(c)) and an edge (c, c2, tag) applies the tag's transition.
func (e *Env) prodLambda(lam []Mat, k int) Mat {
	in := e.bodyInMats(lam, k)
	sink := e.Spec.Sink(k)
	return in[sink].Mul(lam[e.Spec.Prods[k].Body.Nodes[sink]])
}

// bodyInMats returns, for every body node c of production k, the matrix
// from the body input (input port of the source node) to the input port of
// c, composed through the given λ table. Requires λ for all body modules.
func (e *Env) bodyInMats(lam []Mat, k int) []Mat {
	p := &e.Spec.Prods[k]
	n := len(p.Body.Nodes)
	d := make([]Mat, n)
	for _, c := range e.bodyTopo(k) {
		if d[c] == nil {
			if c == e.Spec.Source(k) {
				d[c] = Identity(e.NQ)
			} else {
				d[c] = NewMat(e.NQ) // unreachable from source: impossible in well-formed bodies
			}
		}
		out := d[c].Mul(lam[p.Body.Nodes[c]])
		for _, be := range p.Body.Edges {
			if be.From != c {
				continue
			}
			step := out.Mul(e.tagMat(be.Tag))
			if d[be.To] == nil {
				d[be.To] = step
			} else {
				d[be.To].OrInPlace(step)
			}
		}
	}
	return d
}

// bodyOutMats returns, for every body node c, the matrix from the output
// port of c to the body output (output port of the sink node).
func (e *Env) bodyOutMats(lam []Mat, k int) []Mat {
	p := &e.Spec.Prods[k]
	n := len(p.Body.Nodes)
	u := make([]Mat, n)
	topo := e.bodyTopo(k)
	for i := len(topo) - 1; i >= 0; i-- {
		c := topo[i]
		if c == e.Spec.Sink(k) {
			u[c] = Identity(e.NQ)
			continue
		}
		u[c] = NewMat(e.NQ)
		for _, be := range p.Body.Edges {
			if be.From != c {
				continue
			}
			// out(c) -tag-> in(To) -λ-> out(To) -u[To]-> out(sink)
			step := e.tagMat(be.Tag).Mul(lam[p.Body.Nodes[be.To]]).Mul(u[be.To])
			u[c].OrInPlace(step)
		}
	}
	return u
}

// bodyTopo returns a topological order of production k's body nodes.
func (e *Env) bodyTopo(k int) []int {
	p := &e.Spec.Prods[k]
	n := len(p.Body.Nodes)
	indeg := make([]int, n)
	for _, be := range p.Body.Edges {
		indeg[be.To]++
	}
	var queue, order []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, v)
		for _, be := range p.Body.Edges {
			if be.From != v {
				continue
			}
			indeg[be.To]--
			if indeg[be.To] == 0 {
				queue = append(queue, be.To)
			}
		}
	}
	return order
}

// RequiredSyms returns the query symbols every accepted word must contain
// (ascending by name), computed on the minimal DFA and memoized with the
// compiled plan. Any run path matching the query traverses an edge tagged
// with each of these symbols, which is what the selectivity planner's
// seeded strategy exploits. Callers must not mutate the returned slice.
//
//provrpq:mutator
func (e *Env) RequiredSyms() []string {
	e.reqOnce.Do(func() {
		for _, sym := range e.Query.Symbols() {
			if e.DFA.Requires(sym) {
				e.reqSyms = append(e.reqSyms, sym)
			}
		}
	})
	return e.reqSyms
}

// ReverseDFA returns the minimal DFA of the reversed query, which accepts the
// reversals of the query's words; compiled once per plan.
//
//provrpq:mutator
func (e *Env) ReverseDFA() *automata.DFA {
	e.revOnce.Do(func() { e.revDFA = automata.CompileDFA(e.Query.Reverse(), e.Spec.Tags()) })
	return e.revDFA
}

// AcceptMask returns the bitset of accepting DFA states.
func (e *Env) AcceptMask() uint64 {
	var mask uint64
	for q := 0; q < e.NQ; q++ {
		if e.DFA.Accept[q] {
			mask |= 1 << uint(q)
		}
	}
	return mask
}

// liveMask returns the bitset of DFA states from which an accepting state
// is still reachable: every state but the completion sink (the minimal DFA
// has at most one). A state vector with no live bit can never match,
// whatever path follows.
func (e *Env) liveMask() uint64 {
	mask := uint64(1)<<uint(e.NQ) - 1
	if dead := e.DFA.DeadState(); dead >= 0 {
		mask &^= 1 << uint(dead)
	}
	return mask
}

// MatchesEmpty reports whether ε ∈ L(R), i.e. whether a node trivially
// R-reaches itself.
func (e *Env) MatchesEmpty() bool { return e.DFA.Accept[e.DFA.Start] }
