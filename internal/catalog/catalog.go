// Package catalog provides the concurrency-safe registry underneath the
// root package's Catalog: named specifications, named runs (each bound to
// one specification), and one lazily-built engine per run.
//
// The registry is generic over the spec, run and engine types so it can
// serve the root package without importing it (the root package imports
// this one). The engine builder runs at most once per run — concurrent
// first lookups of one run block on a single build, sync.Once-style —
// and builds execute outside the registry lock, so a slow engine build
// never stalls lookups of other runs.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrExists marks a registration under a name that is already taken
// (match with errors.Is to distinguish duplicates from invalid input).
var ErrExists = errors.New("name already registered")

// Registry is a concurrency-safe map of named specs and named runs. Each
// run belongs to exactly one registered spec and owns at most one engine,
// built on first demand by the constructor-supplied build function. Names
// are opaque non-empty strings; registration is first-writer-wins (a
// duplicate name is an error, never a silent replace).
type Registry[S, R, E any] struct {
	build func(R) E

	//provrpq:lockrank registryMu 20
	mu    sync.RWMutex
	specs map[string]S
	runs  map[string]*runEntry[R, E]
}

// runEntry is one registered run. once guards the engine build so
// concurrent Engine calls construct it exactly once. spec, run, gen and the
// engine identity are immutable after insertion: ReplaceRun and DropEngine
// swap in a fresh entry rather than mutating this one, so a reader that
// resolved an entry before the swap keeps a fully consistent (run,
// generation, engine) view while new lookups see the replacement.
type runEntry[R, E any] struct {
	spec string
	run  R
	gen  int // growth generation: batches ever applied to the run
	once sync.Once
	eng  E
}

// New returns an empty registry whose engines are built by build.
func New[S, R, E any](build func(R) E) *Registry[S, R, E] {
	return &Registry[S, R, E]{
		build: build,
		specs: map[string]S{},
		runs:  map[string]*runEntry[R, E]{},
	}
}

// PutSpec registers a specification under name.
func (g *Registry[S, R, E]) PutSpec(name string, s S) error {
	if name == "" {
		return fmt.Errorf("catalog: empty specification name")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.specs[name]; ok {
		return fmt.Errorf("catalog: specification %q: %w", name, ErrExists)
	}
	g.specs[name] = s
	return nil
}

// Spec returns the specification registered under name.
func (g *Registry[S, R, E]) Spec(name string) (S, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s, ok := g.specs[name]
	return s, ok
}

// SpecNames returns all registered specification names, sorted.
func (g *Registry[S, R, E]) SpecNames() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.specs))
	for n := range g.specs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PutRun registers a run under name at growth generation gen — 0 for a run
// that never grew, the stored batch count for one restored at boot — bound
// to the named specification, which must already be registered.
func (g *Registry[S, R, E]) PutRun(name, spec string, r R, gen int) error {
	if name == "" {
		return fmt.Errorf("catalog: empty run name")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.specs[spec]; !ok {
		return fmt.Errorf("catalog: run %q references unregistered specification %q", name, spec)
	}
	if _, ok := g.runs[name]; ok {
		return fmt.Errorf("catalog: run %q: %w", name, ErrExists)
	}
	g.runs[name] = &runEntry[R, E]{spec: spec, run: r, gen: gen}
	return nil
}

// HasRun reports whether a run is registered under name.
func (g *Registry[S, R, E]) HasRun(name string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.runs[name]
	return ok
}

// Run returns the run registered under name.
func (g *Registry[S, R, E]) Run(name string) (R, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	en, ok := g.runs[name]
	if !ok {
		var zero R
		return zero, false
	}
	return en.run, true
}

// RunSpec returns the specification name a run is bound to.
func (g *Registry[S, R, E]) RunSpec(name string) (string, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	en, ok := g.runs[name]
	if !ok {
		return "", false
	}
	return en.spec, true
}

// RunNames returns all registered run names, sorted.
func (g *Registry[S, R, E]) RunNames() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.runs))
	for n := range g.runs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RunsOf returns the names of the runs bound to the named specification,
// sorted.
func (g *Registry[S, R, E]) RunsOf(spec string) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []string
	for n, en := range g.runs {
		if en.spec == spec {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// ReplaceRun atomically swaps the run registered under name for a new
// version and bumps its growth generation. The previous entry's lazily
// built engine is dropped with it — the next Engine call builds over the
// new run — while a caller that already holds the old engine keeps serving
// the old, internally consistent version. Returns the new generation, or
// false if no run is registered under name.
func (g *Registry[S, R, E]) ReplaceRun(name string, r R) (gen int, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	en, ok := g.runs[name]
	if !ok {
		return 0, false
	}
	g.runs[name] = &runEntry[R, E]{spec: en.spec, run: r, gen: en.gen + 1}
	return en.gen + 1, true
}

// DropEngine releases the engine built for the named run while keeping the
// run registered — the evict/rebuild hook: the next Engine call rebuilds
// from the run. A build already in flight completes into the discarded
// entry and is garbage once its callers let go. Returns false if no run is
// registered under name.
func (g *Registry[S, R, E]) DropEngine(name string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	en, ok := g.runs[name]
	if !ok {
		return false
	}
	g.runs[name] = &runEntry[R, E]{spec: en.spec, run: en.run, gen: en.gen}
	return true
}

// RunGeneration reports the named run's growth generation: the value it was
// registered at plus one per ReplaceRun since.
func (g *Registry[S, R, E]) RunGeneration(name string) (int, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	en, ok := g.runs[name]
	if !ok {
		return 0, false
	}
	return en.gen, true
}

// Engine returns the named run's engine, building it on first use. The
// build runs outside the registry lock; concurrent callers of one run
// share a single build and all receive the same engine.
func (g *Registry[S, R, E]) Engine(name string) (E, bool) {
	eng, _, ok := g.EngineAt(name)
	return eng, ok
}

// EngineAt is Engine returning the growth generation of the version the
// engine serves, both from one registry read of one immutable entry.
// Callers that need the pair to be mutually consistent — a standing-query
// registration snapshotting "generation V's result" before applying deltas
// for generations > V — must use this rather than Engine + RunGeneration in
// sequence, which an interleaved ReplaceRun would desynchronize.
func (g *Registry[S, R, E]) EngineAt(name string) (eng E, gen int, ok bool) {
	g.mu.RLock()
	en, ok := g.runs[name]
	g.mu.RUnlock()
	if !ok {
		return eng, 0, false
	}
	en.once.Do(func() { en.eng = g.build(en.run) })
	return en.eng, en.gen, true
}

// Len reports the number of registered specifications and runs.
func (g *Registry[S, R, E]) Len() (specs, runs int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.specs), len(g.runs)
}
