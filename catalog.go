package provrpq

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"provrpq/internal/parallel"
)

// ErrAlreadyRegistered marks a catalog registration under a taken name;
// match with errors.Is to distinguish duplicates from invalid input.
var ErrAlreadyRegistered = errors.New("name already registered")

// Catalog is a concurrency-safe registry of named specifications and named
// runs — the multi-run serving layer. Every run gets one lazily-built
// Engine, and all of a catalog's engines share one plan cache, so a query
// compiled for one run is a cache hit on every other run of the same
// specification. A Catalog is safe for concurrent use: registrations,
// lookups and evaluations may be interleaved freely from any number of
// goroutines.
type Catalog struct {
	plans   *PlanCache
	workers int
	store   *Store

	// registryMu guards the name tables. Registration is first-writer-wins:
	// a taken name is an error, never a silent replace.
	//
	//provrpq:lockrank registryMu 20
	registryMu sync.RWMutex
	specs      map[string]*Spec
	runs       map[string]*runEntry

	// growMus holds one mutex per run name, serializing AppendEdges and
	// CompactRun on that run: a run's version history must be linear —
	// each growth starts from the version the previous one published —
	// and on a durable catalog the append log's sequence must match
	// publication order. Per-run rather than catalog-wide so concurrent
	// growth of independent runs only contends on the store's own
	// manifest serialization, not on each other's encode and COW work.
	// Never held together with persistMu.
	growMus sync.Map // run name -> *sync.Mutex

	// persistMu serializes durable mutations. Registration on a durable
	// catalog is check-name → persist → insert: the disk write precedes
	// visibility, so any spec or run a concurrent reader can see is
	// already on disk (a failed persist leaves the catalog untouched),
	// and because every durable writer holds the mutex the name checks
	// cannot race with the insert. Never taken when store == nil —
	// in-memory catalogs keep their lock-free registration paths — and
	// disk writes serialize inside the store anyway, so the mutex costs
	// nothing extra.
	//
	//provrpq:lockrank persistMu 10
	persistMu sync.Mutex

	// subsMu guards the append-event subscriber table (SubscribeAppends).
	// Held only to copy or mutate the table — callbacks always run outside
	// it (but on the appending goroutine, under that run's growth lock).
	//
	//provrpq:lockrank catalogSubsMu 18
	subsMu    sync.Mutex
	subs      map[int]func(AppendEvent)
	nextSubID int

	// legacyBases is set once by NewCatalogFromStore (see LegacyRunBases).
	legacyBases int
}

// runEntry is one registered run: its specification, its current version
// and that version's growth generation (batches ever applied to the run),
// and the engine over it, built on first demand — once, concurrent first
// lookups sharing the build, outside registryMu. An entry never changes once
// inserted: growth and ReleaseEngine swap in a fresh one (renew), so a reader
// that resolved an entry keeps a consistent (run, generation, engine) view
// while new lookups see the replacement.
type runEntry struct {
	spec string
	run  *Run
	gen  int
	once sync.Once
	eng  *Engine
}

// CatalogOptions configure a Catalog.
type CatalogOptions struct {
	// PlanCache overrides the catalog's dedicated compiled-plan cache
	// (nil builds a private cache with the default bound).
	PlanCache *PlanCache
	// Workers bounds the fan-out of EvaluateBatch over its (run, query)
	// pairs and of NewCatalogFromStore over the runs it decodes (0 means
	// one worker per CPU). A single evaluation always runs on its caller's
	// goroutine.
	Workers int
	// Store, when non-nil, makes the catalog durable: every successful
	// RegisterSpec, AddRun and DeriveRun is persisted to the store before
	// the entry becomes visible, and a persistence failure leaves the
	// catalog untouched, surfacing as an ErrStoreFailed-wrapped error.
	// The store should be empty or belong to this catalog: registrations
	// under a name the store already holds but the catalog never loaded
	// are refused, so attaching an already-populated directory here
	// (instead of rebuilding with NewCatalogFromStore) cannot clobber
	// entries a restart would need.
	Store *Store
}

// NewCatalog returns an empty catalog.
func NewCatalog(opts CatalogOptions) *Catalog {
	plans := opts.PlanCache
	if plans == nil {
		plans = NewPlanCache(0)
	}
	return &Catalog{plans: plans, workers: opts.Workers, store: opts.Store,
		specs: map[string]*Spec{}, runs: map[string]*runEntry{}}
}

// RegisterSpec registers a specification under a unique name. On a
// durable catalog the specification is on disk before it becomes visible
// to any other call, so a reader can never observe a spec the store lost.
func (c *Catalog) RegisterSpec(name string, s *Spec) error {
	if s == nil || s.s == nil {
		return fmt.Errorf("provrpq: catalog: nil specification %q", name)
	}
	if c.store == nil || name == "" {
		return c.putSpec(name, s) // putSpec owns the empty-name error
	}
	c.persistMu.Lock()
	defer c.persistMu.Unlock()
	if _, ok := c.Spec(name); ok {
		return fmt.Errorf("provrpq: catalog: specification %q: %w", name, ErrAlreadyRegistered)
	}
	// A name free in memory but present on disk means the store was
	// attached to a catalog that did not load it (CatalogOptions.Store
	// over an already-populated directory). Overwriting would strand any
	// on-disk runs still bound to the old payload — their labels decode
	// against the replaced spec and the next boot fails — so refuse.
	if c.store.HasSpec(name) {
		return fmt.Errorf("provrpq: catalog: specification %q exists in the store but was not loaded into this catalog (rebuild with NewCatalogFromStore): %w", name, ErrAlreadyRegistered)
	}
	if err := c.store.SaveSpec(name, s); err != nil {
		return fmt.Errorf("%w: specification %q: %w", ErrStoreFailed, name, err)
	}
	// On disk; now make it visible. persistMu is held, so the name checks
	// above still hold and the insert cannot fail.
	return c.putSpec(name, s)
}

// putSpec registers a specification under a new, non-empty name.
func (c *Catalog) putSpec(name string, s *Spec) error {
	if name == "" {
		return fmt.Errorf("provrpq: catalog: empty specification name")
	}
	c.registryMu.Lock()
	defer c.registryMu.Unlock()
	if _, ok := c.specs[name]; ok {
		return fmt.Errorf("provrpq: catalog: specification %q: %w", name, ErrAlreadyRegistered)
	}
	c.specs[name] = s
	return nil
}

// Store returns the catalog's attached store (nil for an in-memory-only
// catalog).
func (c *Catalog) Store() *Store { return c.store }

// LegacyRunBases reports how many run bases NewCatalogFromStore had to
// decode from legacy JSON instead of opening zero-copy over the columnar
// format (always 0 for a catalog not booted from a store). CompactRun
// rewrites such a base as columnar, so the next boot no longer counts it.
func (c *Catalog) LegacyRunBases() int { return c.legacyBases }

// Spec returns the specification registered under name.
func (c *Catalog) Spec(name string) (*Spec, bool) {
	c.registryMu.RLock()
	defer c.registryMu.RUnlock()
	s, ok := c.specs[name]
	return s, ok
}

// SpecNames returns all registered specification names, sorted.
func (c *Catalog) SpecNames() []string {
	c.registryMu.RLock()
	defer c.registryMu.RUnlock()
	out := make([]string, 0, len(c.specs))
	for n := range c.specs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AddRun registers a run under a unique name, bound to the named
// registered specification. The run must actually be of that
// specification — derived from it or decoded against it — because
// label decoding and plan sharing depend on specification identity. On a
// durable catalog the run is on disk before the call returns.
func (c *Catalog) AddRun(name, specName string, r *Run) error {
	s, ok := c.Spec(specName)
	if !ok {
		return fmt.Errorf("provrpq: catalog: run %q references unregistered specification %q", name, specName)
	}
	if r == nil || r.r == nil {
		return fmt.Errorf("provrpq: catalog: nil run %q", name)
	}
	if r.r.Spec != s.s {
		return fmt.Errorf("provrpq: catalog: run %q was not derived from or decoded against specification %q", name, specName)
	}
	return c.putRunDurable(name, specName, r)
}

// putRunDurable registers a run and, on a durable catalog, persists it
// before it becomes visible — serialized against other durable mutations
// by persistMu, so a concurrent reader (EvaluateBatch enumerating runs,
// Engine by name) can never see a run whose persist then fails.
func (c *Catalog) putRunDurable(name, specName string, r *Run) error {
	if c.store == nil || name == "" {
		return c.putRun(name, specName, r, 0) // putRun owns the empty-name error
	}
	// Encode outside persistMu: encoding a large run is the expensive part
	// of a save, and only the disk write itself needs serializing — two
	// concurrent uploads should overlap their encodes. The durable store
	// persists the columnar format natively, so a restart opens the payload
	// zero-copy instead of re-parsing JSON.
	data, err := EncodeRunColumnar(r)
	if err != nil {
		return err
	}
	c.persistMu.Lock()
	defer c.persistMu.Unlock()
	// Re-check the binding under the lock: the callers' spec lookups ran
	// outside it, and the run file must never land on disk bound to a
	// specification the store does not hold.
	if _, ok := c.Spec(specName); !ok {
		return fmt.Errorf("provrpq: catalog: run %q references unregistered specification %q", name, specName)
	}
	if c.entry(name) != nil {
		return fmt.Errorf("provrpq: catalog: run %q: %w", name, ErrAlreadyRegistered)
	}
	// See RegisterSpec: never clobber an on-disk run this catalog did not
	// load.
	if c.store.HasRun(name) {
		return fmt.Errorf("provrpq: catalog: run %q exists in the store but was not loaded into this catalog (rebuild with NewCatalogFromStore): %w", name, ErrAlreadyRegistered)
	}
	if err := c.store.st.PutRun(name, specName, data); err != nil {
		return fmt.Errorf("%w: run %q: %w", ErrStoreFailed, name, err)
	}
	return c.putRun(name, specName, r, 0)
}

// putRun registers a run under a new, non-empty name at growth generation gen
// — 0 for a run that never grew, the stored batch count for one restored at
// boot — bound to the named specification, which must be registered.
func (c *Catalog) putRun(name, specName string, r *Run, gen int) error {
	if name == "" {
		return fmt.Errorf("provrpq: catalog: empty run name")
	}
	c.registryMu.Lock()
	defer c.registryMu.Unlock()
	if _, ok := c.specs[specName]; !ok {
		return fmt.Errorf("provrpq: catalog: run %q references unregistered specification %q", name, specName)
	}
	if _, ok := c.runs[name]; ok {
		return fmt.Errorf("provrpq: catalog: run %q: %w", name, ErrAlreadyRegistered)
	}
	c.runs[name] = &runEntry{spec: specName, run: r, gen: gen}
	return nil
}

// entry returns the named run's current entry, nil for an unknown run.
func (c *Catalog) entry(name string) *runEntry {
	c.registryMu.RLock()
	defer c.registryMu.RUnlock()
	return c.runs[name]
}

// renew swaps the named run's entry for a fresh one, its engine unbuilt: over
// r one generation on when r is set (a growth), over the same version when it
// is nil (ReleaseEngine; a build in flight completes into the discarded entry).
// It returns the new entry's generation, or false for an unknown run.
func (c *Catalog) renew(name string, r *Run) (gen int, ok bool) {
	c.registryMu.Lock()
	defer c.registryMu.Unlock()
	en, ok := c.runs[name]
	if !ok {
		return 0, false
	}
	next := &runEntry{spec: en.spec, run: en.run, gen: en.gen}
	if r != nil {
		next.run, next.gen = r, en.gen+1
	}
	c.runs[name] = next
	return next.gen, true
}

// DeriveRun derives a fresh run of the named specification and registers
// it under runName. On a durable catalog the run — labels included — is
// on disk before the call returns, so a later NewCatalogFromStore serves
// it without re-deriving.
func (c *Catalog) DeriveRun(runName, specName string, opts DeriveOptions) (*Run, error) {
	s, ok := c.Spec(specName)
	if !ok {
		return nil, fmt.Errorf("provrpq: catalog: unknown specification %q", specName)
	}
	// Check name availability — in memory and on disk — before paying for
	// the derivation (which can be millions of edges); putRunDurable
	// re-checks under the lock for the race.
	if c.entry(runName) != nil || (c.store != nil && c.store.HasRun(runName)) {
		return nil, fmt.Errorf("provrpq: catalog: run %q: %w", runName, ErrAlreadyRegistered)
	}
	r, err := s.Derive(opts)
	if err != nil {
		return nil, err
	}
	if err := c.putRunDurable(runName, specName, r); err != nil {
		return nil, err
	}
	return r, nil
}

// Run returns the run registered under name.
func (c *Catalog) Run(name string) (*Run, bool) {
	if en := c.entry(name); en != nil {
		return en.run, true
	}
	return nil, false
}

// RunSpecName returns the name of the specification a run is bound to.
func (c *Catalog) RunSpecName(name string) (string, bool) {
	if en := c.entry(name); en != nil {
		return en.spec, true
	}
	return "", false
}

// RunNames returns all registered run names, sorted.
func (c *Catalog) RunNames() []string { return c.runNames(func(*runEntry) bool { return true }) }

// RunsOfSpec returns the names of the runs bound to the named
// specification, sorted.
func (c *Catalog) RunsOfSpec(specName string) []string {
	return c.runNames(func(en *runEntry) bool { return en.spec == specName })
}

// runNames returns the names of the runs whose entries keep admits, sorted.
func (c *Catalog) runNames(keep func(*runEntry) bool) []string {
	c.registryMu.RLock()
	defer c.registryMu.RUnlock()
	out := []string{}
	for n, en := range c.runs {
		if keep(en) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Engine returns the named run's engine, building it on first use.
// Concurrent first calls for one run share a single build.
func (c *Catalog) Engine(runName string) (*Engine, error) {
	e, _, ok := c.EngineAt(runName)
	if !ok {
		return nil, fmt.Errorf("provrpq: catalog: unknown run %q", runName)
	}
	return e, nil
}

// EngineAt returns the engine of the named run's current published version
// (Engine.Run is that version) and its version number, from one atomic
// registry read. A standing-query registration uses it to snapshot a
// consistent pair: the full result at that version plus the deltas of every
// AppendEvent with a higher version equals the full result at any later
// version.
func (c *Catalog) EngineAt(name string) (*Engine, int, bool) {
	en := c.entry(name)
	if en == nil {
		return nil, 0, false
	}
	en.once.Do(func() { en.eng = NewEngineOpts(en.run, EngineOptions{PlanCache: c.plans}) })
	return en.eng, en.gen, true
}

// Explain reports the named run's evaluation plan for the query without
// evaluating it — the planner's strategy choice, seed tag and cost
// estimates for safe queries, the safe-subtree decomposition for unsafe
// ones. Plan decisions are cached per run generation: the planner's
// statistics live on the run's engine, which AppendEdges swaps together
// with the run, so a grown run re-plans against its current shape while
// the compiled query plans stay shared through the catalog's plan cache.
func (c *Catalog) Explain(runName string, q *Query) (*PlanReport, error) {
	eng, err := c.Engine(runName)
	if err != nil {
		return nil, err
	}
	return eng.Explain(q)
}

// BatchResult is one (run, query) cell of an EvaluateBatch answer. Err is
// per-item: one failing cell (unknown run, failing compile) never blocks
// the rest of the batch. Rows is the cell's window (the whole result, in
// EvaluateBatch); Pairs is its expansion, which only EvaluateBatch fills.
type BatchResult struct {
	Run   string
	Query string
	Rows  *Rows
	Pairs []Pair
	Err   error
}

// EvaluateBatch evaluates every query against every named run — the full
// runNames × queries product, fanned out across the catalog's worker pool
// with one compiled plan per (specification, query) shared by all runs of
// that specification. A nil or empty runNames selects every registered
// run. Results arrive run-major (all queries of runNames[0], then
// runNames[1], …), each cell carrying its own error; the result order is
// deterministic and independent of the worker count.
//
//provrpq:ctxroot
func (c *Catalog) EvaluateBatch(runNames []string, queries []*Query) []BatchResult {
	out := c.EvaluateBatchRows(context.Background(), runNames, queries, 0, -1)
	for i := range out {
		if out[i].Err == nil {
			out[i].Pairs = out[i].Rows.Pairs()
		}
	}
	return out
}

// EvaluateBatchRows is EvaluateBatch leaving each cell's window as rows
// (Engine.EvaluateRows), for a caller that serializes them; once ctx is done
// the cells still running or not yet begun fail with ctx.Err().
func (c *Catalog) EvaluateBatchRows(ctx context.Context, runNames []string, queries []*Query, offset, limit int) []BatchResult {
	if len(runNames) == 0 {
		runNames = c.RunNames()
	}
	nq := len(queries)
	out := make([]BatchResult, len(runNames)*nq)
	if len(out) == 0 {
		return nil
	}
	parallel.Do(len(out), parallel.Workers(c.workers), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			runName, q := runNames[i/nq], queries[i%nq]
			res := BatchResult{Run: runName, Query: q.String()}
			eng, err := c.Engine(runName)
			if err != nil {
				res.Err = err
			} else {
				res.Rows, _, res.Err = eng.EvaluateRows(ctx, q, offset, limit)
			}
			out[i] = res
		}
	})
	return out
}

// CatalogStats is a point-in-time snapshot of a catalog's size, its
// plan-cache traffic and its resolved batch fan-out width.
type CatalogStats struct {
	Specs, Runs int
	PlanCache   CacheStats
	Workers     int
}

// Stats snapshots the catalog.
func (c *Catalog) Stats() CatalogStats {
	c.registryMu.RLock()
	st := CatalogStats{Specs: len(c.specs), Runs: len(c.runs)}
	c.registryMu.RUnlock()
	st.PlanCache, st.Workers = c.plans.Stats(), parallel.Workers(c.workers)
	return st
}
