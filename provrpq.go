// Package provrpq answers regular path queries over workflow provenance
// graphs, reproducing Huang, Bao, Davidson, Milo and Yuan, "Answering
// Regular Path Queries on Workflow Provenance", ICDE 2015.
//
// A workflow specification is a context-free graph grammar whose language is
// the set of possible executions (runs). Runs derived by this package carry
// query-agnostic, derivation-based reachability labels. A regular path
// query that is *safe* for the specification is answered pairwise in
// constant time from two labels alone — no run traversal — and all-pairs
// queries run in time linear in the input lists and output size. Unsafe
// queries are decomposed into maximal safe subqueries composed with a small
// relational remainder.
//
// Basic use:
//
//	spec, _ := provrpq.NewSpecBuilder().
//	    Start("S").
//	    Chain("S", "x", "A", "p").
//	    Chain("A", "a1", "A", "s").
//	    Chain("A", "a2", "s").
//	    Build()
//	run, _ := spec.Derive(provrpq.DeriveOptions{Seed: 1, TargetEdges: 1000})
//	eng := provrpq.NewEngine(run)
//	q, _ := provrpq.ParseQuery("x.(a1|a2)+.s._*.p")
//	pairs, _ := eng.Evaluate(q)
//
// Query syntax: tags are identifiers; '.' concatenates (juxtaposition also
// works), '|' alternates, postfix '*', '+', '?' repeat, '_' matches any
// single tag, 'ε' (or "<eps>") the empty path, parentheses group.
//
// # Concurrency
//
// Engine, Spec, Run and Query are safe for concurrent use: any number of
// goroutines may share one Engine (or several) and call any mix of its
// methods. Compiled query plans depend only on (specification, query), so
// they live in a plan cache shared across engines — process-wide by
// default, or an explicit NewPlanCache passed through EngineOptions —
// with concurrent compiles of the same query deduplicated. Every call runs
// on its caller's goroutine — an all-pairs scan (AllPairs,
// AllPairsReachable, Evaluate) is one serial walk — so concurrent requests
// are the only parallelism, and a scan's pair order is deterministic.
package provrpq

import (
	"fmt"
	"os"

	"provrpq/internal/derive"
	"provrpq/internal/wf"
)

// Spec is a validated workflow specification (a context-free graph grammar,
// Definition 3 of the paper).
type Spec struct {
	s *wf.Spec
}

// SpecBuilder assembles a specification module by module. Modules are
// registered on first mention; the left-hand side of a production is
// composite, all other first mentions are atomic.
type SpecBuilder struct {
	b *wf.Builder
}

// NewSpecBuilder returns an empty builder.
func NewSpecBuilder() *SpecBuilder { return &SpecBuilder{b: wf.NewBuilder()} }

// Start names the start module.
func (sb *SpecBuilder) Start(name string) *SpecBuilder {
	sb.b.Start(name)
	return sb
}

// Atomic declares atomic modules explicitly (optional; first mentions in
// production bodies default to atomic).
func (sb *SpecBuilder) Atomic(names ...string) *SpecBuilder {
	sb.b.Atomic(names...)
	return sb
}

// BodyEdge is a tagged edge between body positions of a production.
type BodyEdge struct {
	From, To int
	Tag      string
}

// Prod appends a production lhs -> body. nodes lists body modules by name
// (the list position is the index edges refer to).
func (sb *SpecBuilder) Prod(lhs string, nodes []string, edges []BodyEdge) *SpecBuilder {
	wes := make([]wf.BodyEdge, len(edges))
	for i, e := range edges {
		wes[i] = wf.BodyEdge{From: e.From, To: e.To, Tag: e.Tag}
	}
	sb.b.Prod(lhs, nodes, wes)
	return sb
}

// Chain appends a production whose body is a linear chain, each edge tagged
// with the name of the module at its head.
func (sb *SpecBuilder) Chain(lhs string, nodes ...string) *SpecBuilder {
	sb.b.Chain(lhs, nodes...)
	return sb
}

// Build validates the grammar: bodies must be acyclic with a unique source
// and sink and every node on a source-sink path; every composite module
// must derive some finite execution; recursion must be strictly linear
// (all cycles of the production graph vertex-disjoint, Definition 6).
func (sb *SpecBuilder) Build() (*Spec, error) {
	s, err := sb.b.Build()
	if err != nil {
		return nil, err
	}
	return &Spec{s: s}, nil
}

// Size returns the paper's grammar-size measure: Σ over productions of
// (1 + body length).
func (s *Spec) Size() int { return s.s.Size() }

// Tags returns the edge-tag alphabet Γ of the specification.
func (s *Spec) Tags() []string { return s.s.Tags() }

// MarshalJSON serializes the grammar.
func (s *Spec) MarshalJSON() ([]byte, error) { return s.s.MarshalJSON() }

// UnmarshalJSON deserializes and re-validates a grammar.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var ws wf.Spec
	if err := ws.UnmarshalJSON(data); err != nil {
		return err
	}
	s.s = &ws
	return nil
}

// SaveSpec writes the specification to a JSON file.
func SaveSpec(path string, s *Spec) error {
	data, err := s.MarshalJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadSpec reads a specification from a JSON file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &Spec{}
	if err := s.UnmarshalJSON(data); err != nil {
		return nil, fmt.Errorf("provrpq: %s: %w", path, err)
	}
	return s, nil
}

// DeriveOptions control run generation (Definition 4 executed with a
// random or budgeted production policy).
type DeriveOptions struct {
	// Seed seeds the production policy.
	Seed int64
	// TargetEdges approximately sizes the run (the paper's 1K-16K edge
	// workloads); 0 derives a minimal-recursion run.
	TargetEdges int
	// MaxRecursionDepth caps any single recursion chain.
	MaxRecursionDepth int
	// FavorModule extends only the named module's recursion (the Fig. 13g
	// fork workload), winding down all others immediately.
	FavorModule string
	// FavorModules extends several modules' recursions; FavorCaps
	// optionally bounds the per-chain iteration count of a favored module.
	FavorModules []string
	FavorCaps    map[string]int
}

// Derive generates a labeled run of the specification.
func (s *Spec) Derive(opts DeriveOptions) (*Run, error) {
	r, err := derive.Derive(s.s, derive.Options{
		Seed:              opts.Seed,
		TargetEdges:       opts.TargetEdges,
		MaxRecursionDepth: opts.MaxRecursionDepth,
		FavorModule:       opts.FavorModule,
		FavorModules:      opts.FavorModules,
		FavorCaps:         opts.FavorCaps,
	})
	if err != nil {
		return nil, err
	}
	return &Run{r: r, spec: s}, nil
}
