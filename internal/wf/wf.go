// Package wf implements the workflow-specification model of the paper:
// context-free graph grammars (CFGGs) whose language is the set of all
// possible workflow executions (Definitions 1-4).
//
// A specification is a set of modules (atomic or composite), a start module
// and a set of productions M -> W where W is a simple workflow (an acyclic
// edge-tagged DAG over modules). The package also builds the production
// graph P(G) (Definition 5), enumerates its cycles, and checks the two
// structural constraints the paper's labeling scheme requires:
//
//   - strict linear recursion: all cycles of P(G) are vertex-disjoint
//     (Definition 6);
//   - well-formed bodies: each production body is acyclic with a unique
//     source and a unique sink, and every body node lies on a source-to-sink
//     path. This is the coarse-grained single-input/single-output property
//     (Section III-A) that makes plain reachability safe for every workflow.
package wf

import (
	"fmt"
	"sort"
)

// ModuleID identifies a module within a Spec (index into Spec.Modules).
type ModuleID int

// Module is an atomic or composite workflow module (Definition 3: Sigma and
// Delta). Atomic modules are the terminals of the grammar; composite modules
// are replaced by production bodies during derivation.
type Module struct {
	Name      string `json:"name"`
	Composite bool   `json:"composite,omitempty"`
}

// Edge is a tagged data edge between two nodes of a production body
// (Definition 1). From and To index Body.Nodes. Parallel edges with
// different tags are allowed.
type Edge struct {
	From int    `json:"from"`
	To   int    `json:"to"`
	Tag  string `json:"tag"`
}

// Body is a simple workflow (Definition 1): the right-hand side of a
// production. Nodes lists the modules of the body in a fixed order; the node
// position within this list is the "i" of the paper's (k,i) edge labels.
type Body struct {
	Nodes []ModuleID `json:"nodes"`
	Edges []Edge     `json:"edges"`
}

// Production is a workflow production M -> W (Definition 2).
type Production struct {
	LHS  ModuleID `json:"lhs"`
	Body Body     `json:"body"`
}

// Spec is a workflow specification G = (Sigma, Delta, S, P) (Definition 3).
// Construct one with New, which validates the grammar and precomputes the
// production graph, cycles and per-body reachability closures. A Spec is
// shared by every run, engine and cached plan derived from it, so it is
// frozen once New returns.
//
//provrpq:immutable
type Spec struct {
	Modules []Module
	Start   ModuleID
	Prods   []Production

	byName    map[string]ModuleID
	prodsOf   [][]int  // composite module -> indices into Prods
	bodySrc   []int    // per production: index of the unique source node
	bodySink  []int    // per production: index of the unique sink node
	bodyReach [][]bool // per production: closure[i*len(nodes)+j], strict (i!=j paths)
	tagAlpha  map[string]bool

	pg *ProdGraph
}

// New validates the given modules, start module and productions and returns
// a ready-to-use Spec. The returned error describes the first violated
// constraint (invalid references, cyclic or ill-formed bodies, unproductive
// modules, or recursion that is not strictly linear).
func New(modules []Module, start ModuleID, prods []Production) (*Spec, error) {
	s := &Spec{Modules: modules, Start: start, Prods: prods}
	if err := s.validate(); err != nil {
		return nil, err
	}
	s.pg = buildProdGraph(s)
	if err := s.pg.checkStrictLinear(); err != nil {
		return nil, err
	}
	return s, nil
}

// ModuleByName returns the id of the module with the given name.
func (s *Spec) ModuleByName(name string) (ModuleID, bool) {
	id, ok := s.byName[name]
	return id, ok
}

// Name returns the name of module m.
func (s *Spec) Name(m ModuleID) string { return s.Modules[m].Name }

// IsComposite reports whether module m is composite.
func (s *Spec) IsComposite(m ModuleID) bool { return s.Modules[m].Composite }

// ProdsOf returns the indices of the productions whose left-hand side is m.
// The result is empty for atomic modules.
func (s *Spec) ProdsOf(m ModuleID) []int {
	if !s.Modules[m].Composite {
		return nil
	}
	return s.prodsOf[m]
}

// Source returns the index of the unique source node of production k's body.
func (s *Spec) Source(k int) int { return s.bodySrc[k] }

// Sink returns the index of the unique sink node of production k's body.
func (s *Spec) Sink(k int) int { return s.bodySink[k] }

// BodyReach reports whether body node i reaches body node j (via one or more
// edges) within production k's body. It is false for i == j.
func (s *Spec) BodyReach(k, i, j int) bool {
	n := len(s.Prods[k].Body.Nodes)
	return s.bodyReach[k][i*n+j]
}

// ProdGraph returns the production graph P(G) of the specification.
func (s *Spec) ProdGraph() *ProdGraph { return s.pg }

// Cycles returns the vertex-disjoint cycles of P(G), in a stable order; the
// slice index is the cycle id "s" used in recursion labels (s,t,i).
func (s *Spec) Cycles() []*Cycle { return s.pg.Cycles }

// IsRecursive reports whether module m lies on a cycle of P(G).
func (s *Spec) IsRecursive(m ModuleID) bool { return s.pg.spot[m].cycle >= 0 }

// CycleOf returns the cycle containing module m and m's position within the
// cycle's module list, or (nil, -1) if m is not recursive.
func (s *Spec) CycleOf(m ModuleID) (*Cycle, int) {
	sp := s.pg.spot[m]
	if sp.cycle < 0 {
		return nil, -1
	}
	return s.pg.Cycles[sp.cycle], sp.pos
}

// RecursiveProd returns, for a recursive module m, the index of its unique
// recursive production and the body position of the cycle-successor module
// within that production. It returns (-1, -1) for non-recursive modules.
func (s *Spec) RecursiveProd(m ModuleID) (prod, cyclePos int) {
	sp := s.pg.spot[m]
	return sp.prod, sp.succPos
}

// Size returns the paper's grammar-size measure: the sum over productions of
// one plus the number of body modules (footnote 3, Section V-A).
func (s *Spec) Size() int {
	n := 0
	for _, p := range s.Prods {
		n += 1 + len(p.Body.Nodes)
	}
	return n
}

// Tags returns the sorted set of edge tags appearing in any production body.
func (s *Spec) Tags() []string {
	set := s.TagSet()
	tags := make([]string, 0, len(set))
	for t := range set {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	return tags
}

// TagSet returns the edge-tag alphabet Γ as a set, shared and immutable:
// it is built once in validate, so per-append batch validation reads it
// without materializing a fresh map. Callers must not mutate it.
func (s *Spec) TagSet() map[string]bool {
	if s.tagAlpha != nil {
		return s.tagAlpha
	}
	// A Spec constructed without New (tests building literals) lacks the
	// derived tables; fall back to a one-off scan rather than panic.
	set := map[string]bool{}
	for _, p := range s.Prods {
		for _, e := range p.Body.Edges {
			set[e.Tag] = true
		}
	}
	return set
}

// validate checks the grammar and fills in the derived structures
// (byName, prodsOf, body source/sink/reachability). It runs inside New,
// before the Spec is published, which is why it is a sanctioned mutation
// site.
//
//provrpq:mutator
func (s *Spec) validate() error {
	if len(s.Modules) == 0 {
		return fmt.Errorf("wf: spec has no modules")
	}
	s.byName = make(map[string]ModuleID, len(s.Modules))
	for i, m := range s.Modules {
		if m.Name == "" {
			return fmt.Errorf("wf: module %d has empty name", i)
		}
		if _, dup := s.byName[m.Name]; dup {
			return fmt.Errorf("wf: duplicate module name %q", m.Name)
		}
		s.byName[m.Name] = ModuleID(i)
	}
	if s.Start < 0 || int(s.Start) >= len(s.Modules) {
		return fmt.Errorf("wf: start module id %d out of range", s.Start)
	}

	s.prodsOf = make([][]int, len(s.Modules))
	for k, p := range s.Prods {
		if p.LHS < 0 || int(p.LHS) >= len(s.Modules) {
			return fmt.Errorf("wf: production %d: lhs id %d out of range", k, p.LHS)
		}
		if !s.Modules[p.LHS].Composite {
			return fmt.Errorf("wf: production %d: lhs %q is atomic", k, s.Name(p.LHS))
		}
		s.prodsOf[p.LHS] = append(s.prodsOf[p.LHS], k)
	}
	for i, m := range s.Modules {
		if m.Composite && len(s.prodsOf[i]) == 0 {
			return fmt.Errorf("wf: composite module %q has no production", m.Name)
		}
	}

	s.bodySrc = make([]int, len(s.Prods))
	s.bodySink = make([]int, len(s.Prods))
	s.bodyReach = make([][]bool, len(s.Prods))
	for k := range s.Prods {
		if err := s.validateBody(k); err != nil {
			return err
		}
	}
	s.tagAlpha = map[string]bool{}
	for _, p := range s.Prods {
		for _, e := range p.Body.Edges {
			s.tagAlpha[e.Tag] = true
		}
	}
	return s.checkProductive()
}

// validateBody checks production k's body for well-formedness and computes
// its source, sink and reachability closure. Runs inside New via validate,
// before the Spec is published.
//
//provrpq:mutator
func (s *Spec) validateBody(k int) error {
	body := &s.Prods[k].Body
	n := len(body.Nodes)
	if n == 0 {
		return fmt.Errorf("wf: production %d: empty body", k)
	}
	for i, m := range body.Nodes {
		if m < 0 || int(m) >= len(s.Modules) {
			return fmt.Errorf("wf: production %d: body node %d references unknown module %d", k, i, m)
		}
	}
	indeg := make([]int, n)
	outdeg := make([]int, n)
	seen := make(map[[2]int]map[string]bool)
	for _, e := range body.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("wf: production %d: edge %v out of range", k, e)
		}
		if e.From == e.To {
			return fmt.Errorf("wf: production %d: self-loop on body node %d", k, e.From)
		}
		if e.Tag == "" {
			return fmt.Errorf("wf: production %d: edge (%d,%d) has empty tag", k, e.From, e.To)
		}
		key := [2]int{e.From, e.To}
		if seen[key] == nil {
			seen[key] = map[string]bool{}
		}
		if seen[key][e.Tag] {
			return fmt.Errorf("wf: production %d: duplicate edge (%d,%d,%q)", k, e.From, e.To, e.Tag)
		}
		seen[key][e.Tag] = true
		outdeg[e.From]++
		indeg[e.To]++
	}

	// Acyclicity via Kahn's algorithm.
	adj := make([][]int, n)
	for _, e := range body.Edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	deg := append([]int(nil), indeg...)
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if deg[i] == 0 {
			queue = append(queue, i)
		}
	}
	done := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for _, w := range adj[v] {
			deg[w]--
			if deg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if done != n {
		return fmt.Errorf("wf: production %d: body is cyclic", k)
	}

	// Unique source, unique sink.
	src, sink := -1, -1
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			if src >= 0 {
				return fmt.Errorf("wf: production %d: multiple source nodes (%d, %d)", k, src, i)
			}
			src = i
		}
		if outdeg[i] == 0 {
			if sink >= 0 {
				return fmt.Errorf("wf: production %d: multiple sink nodes (%d, %d)", k, sink, i)
			}
			sink = i
		}
	}
	s.bodySrc[k] = src
	s.bodySink[k] = sink

	// Reachability closure, then the "every node on a source-sink path"
	// property follows from unique source/sink in a DAG: every node is
	// reachable from src (else it would be a second source upstream) --
	// not quite: verify explicitly.
	reach := make([]bool, n*n)
	// DFS from each node (bodies are small; O(n*(n+e)) is fine).
	for i := 0; i < n; i++ {
		stack := append([]int(nil), adj[i]...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if reach[i*n+v] {
				continue
			}
			reach[i*n+v] = true
			stack = append(stack, adj[v]...)
		}
	}
	s.bodyReach[k] = reach
	for i := 0; i < n; i++ {
		if i != src && !reach[src*n+i] {
			return fmt.Errorf("wf: production %d: body node %d unreachable from source %d", k, i, src)
		}
		if i != sink && !reach[i*n+sink] {
			return fmt.Errorf("wf: production %d: body node %d cannot reach sink %d", k, i, sink)
		}
	}
	return nil
}

// checkProductive verifies every composite module can derive a finite,
// all-atomic execution (the CFG-emptiness worklist of Hopcroft/Ullman,
// which Section III-C also adapts for the safety check).
func (s *Spec) checkProductive() error {
	productive := make([]bool, len(s.Modules))
	for i, m := range s.Modules {
		if !m.Composite {
			productive[i] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range s.Prods {
			if productive[p.LHS] {
				continue
			}
			ok := true
			for _, m := range p.Body.Nodes {
				if !productive[m] {
					ok = false
					break
				}
			}
			if ok {
				productive[p.LHS] = true
				changed = true
			}
		}
	}
	for i, m := range s.Modules {
		if !productive[i] {
			return fmt.Errorf("wf: module %q cannot derive any finite execution", m.Name)
		}
	}
	return nil
}
