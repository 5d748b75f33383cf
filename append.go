package provrpq

import (
	"errors"
	"fmt"
	"sync"

	"provrpq/internal/derive"
)

// ErrVersionMismatch marks a conditional append whose expected version no
// longer matches the run's current version (match with errors.Is). The
// usual cause is a retry of an append that actually committed — e.g. the
// client saw a timeout while the server finished the work — so the caller
// should re-read the run's version and decide whether its batch is
// already applied.
var ErrVersionMismatch = errors.New("provrpq: run version mismatch")

// Batch is one append-only growth step for a run: new atomic module
// executions (each carrying the derivation-based label assigned when the
// executing workflow fired the production that created it) plus new tagged
// data edges. Real provenance graphs are not derived once — a run grows
// while its workflow executes — and because labels are dynamic (assigned
// at node-creation time, never recomputed; Section II-B), growth never
// touches an existing label: appending pays only for the batch and the
// frontier of nodes its edges attach to, and every label-based answer over
// the pre-existing nodes is byte-identical before and after.
//
// Wire shape (the same node and edge encoding as a run upload):
//
//	{"nodes": [{"name": "a:9", "module": "a", "label": "<base64>"}],
//	 "edges": [{"From": 3, "To": 12, "Tag": "s"}]}
//
// Edge endpoints use the grown run's numbering: ids below the pre-append
// node count reference existing nodes, ids at or above it reference batch
// nodes in order. Like an uploaded run, appended content must describe a
// derivation of the specification for safe-query answers to stay exact;
// the same structural validation (modules, labels, tags, endpoint ranges,
// name uniqueness) is enforced.
type Batch struct {
	b    derive.Batch
	spec *Spec
}

// DecodeBatch deserializes a growth batch against the specification of the
// run it will be appended to. Validation that needs the run itself —
// endpoint ranges, node-name uniqueness — happens at append time.
func DecodeBatch(spec *Spec, data []byte) (*Batch, error) {
	b, err := derive.DecodeBatch(spec.s, data)
	if err != nil {
		return nil, err
	}
	return &Batch{b: b, spec: spec}, nil
}

// EncodeBatch serializes the batch (the append log's payload format).
func EncodeBatch(b *Batch) ([]byte, error) {
	if b == nil || b.spec == nil || b.spec.s == nil {
		return nil, fmt.Errorf("provrpq: nil batch")
	}
	return derive.EncodeBatch(b.spec.s, b.b)
}

// NumNodes returns the batch's new-node count.
func (b *Batch) NumNodes() int { return len(b.b.Nodes) }

// NumEdges returns the batch's new-edge count.
func (b *Batch) NumEdges() int { return len(b.b.Edges) }

// AppendStats reports the work an append performed. The incremental-cost
// contract is O(Touched + NewEdges) amortized — independent of the run's
// total size, unlike a full re-derivation's O(n).
type AppendStats struct {
	// NewNodes and NewEdges count the batch's contents.
	NewNodes, NewEdges int
	// Frontier counts the pre-existing nodes the new edges attach to —
	// the only old nodes whose derived state (adjacency) changes at all.
	Frontier int
	// Touched = NewNodes + Frontier.
	Touched int
}

// Append extends the run with one growth batch, in place: new nodes are
// validated and labeled state registered, and adjacency is extended only
// at the batch's frontier, never re-deriving the run's other nodes. A
// rejected batch (bad module, label, tag, endpoint or duplicate name)
// leaves the run byte-identical.
//
// Append mutates the run: it is for exclusive owners (load → grow → save
// pipelines). Engines built over the run before the append do not see the
// growth — build a new Engine afterwards. A run served concurrently from a
// Catalog grows through Catalog.AppendEdges instead, which versions the
// run and swaps engines atomically.
func (r *Run) Append(b *Batch) (AppendStats, error) {
	if b == nil || b.spec == nil {
		return AppendStats{}, fmt.Errorf("provrpq: nil batch")
	}
	if b.spec.s != r.r.Spec {
		return AppendStats{}, fmt.Errorf("provrpq: batch was not decoded against the run's specification")
	}
	st, err := derive.AppendEdges(r.r, b.b)
	if err != nil {
		return AppendStats{}, err
	}
	return AppendStats(st), nil
}

// AppendResult describes one Catalog.AppendEdges commit.
type AppendResult struct {
	// Run is the new current version (the one subsequent Engine lookups
	// serve).
	Run *Run
	// Version counts the growth batches applied to the run since it was
	// first registered — including batches replayed from the append log at
	// boot or folded into the stored base by CompactRun — so it never goes
	// back, across compactions and restarts of a durable catalog alike.
	Version int
	// Stats reports the incremental work of this append.
	Stats AppendStats
}

// AppendEdges grows the named run by one batch and atomically swaps the
// grown version in: the run is versioned (never mutated in place), the old
// version's lazily-built engine — and with it every per-engine artifact
// that depends on run contents: the inverted edge index, the unsafe-query
// evaluator, label snapshots — is dropped so the next Engine call builds
// over the grown run, while compiled query plans, which depend only on
// (specification, query), stay shared through the catalog's plan cache
// and hit immediately on the new engine. In-flight queries keep reading
// the old version, which stays internally consistent forever.
//
// On a durable catalog the batch is committed to the per-run append log —
// through the store's manifest, so a crash mid-append replays cleanly or
// is invisible, never torn — before the grown version becomes visible,
// and a restart (NewCatalogFromStore, rpqd -data-dir) replays the log
// onto the stored base run. A persist failure surfaces as ErrStoreFailed
// and leaves the catalog serving the un-grown version.
func (c *Catalog) AppendEdges(runName string, b *Batch) (AppendResult, error) {
	return c.appendEdges(runName, b, -1)
}

// AppendEdgesCAS is AppendEdges conditioned on the run's current version:
// the append commits only if the version still equals expectedVersion,
// otherwise nothing changes and the error matches ErrVersionMismatch.
// This is the idempotency guard for retries — an append is not naturally
// idempotent (an edges-only batch applied twice duplicates its edges), so
// a client that cannot tell whether its request committed (a timeout, a
// dropped connection) sends the version it grew the batch against; if the
// first attempt actually committed, the retry bounces off the bumped
// version instead of double-applying.
func (c *Catalog) AppendEdgesCAS(runName string, b *Batch, expectedVersion int) (AppendResult, error) {
	if expectedVersion < 0 {
		return AppendResult{}, fmt.Errorf("provrpq: catalog: negative expected version %d for run %q", expectedVersion, runName)
	}
	return c.appendEdges(runName, b, expectedVersion)
}

// appendEdges implements AppendEdges; expectedVersion < 0 means
// unconditional.
func (c *Catalog) appendEdges(runName string, b *Batch, expectedVersion int) (AppendResult, error) {
	if b == nil || b.spec == nil {
		return AppendResult{}, fmt.Errorf("provrpq: catalog: nil batch for run %q", runName)
	}
	// One growth at a time per run: two concurrent growths of one run
	// would fork its version history (the second Grow would start from a
	// stale base and the swap would silently drop the first batch), and
	// the store's append sequence must match the order versions become
	// visible. Growth of other runs proceeds in parallel.
	mu := c.growLock(runName)
	mu.Lock()
	defer mu.Unlock()
	en := c.entry(runName)
	if en == nil {
		return AppendResult{}, fmt.Errorf("provrpq: catalog: unknown run %q", runName)
	}
	cur := en.run
	if expectedVersion >= 0 && en.gen != expectedVersion {
		return AppendResult{}, fmt.Errorf("%w: run %q is at version %d, batch expected %d", ErrVersionMismatch, runName, en.gen, expectedVersion)
	}
	if b.spec.s != cur.r.Spec {
		return AppendResult{}, fmt.Errorf("provrpq: catalog: batch for run %q was not decoded against its specification", runName)
	}
	grown, st, err := cur.r.Grow(b.b)
	if err != nil {
		return AppendResult{}, err
	}
	if c.store != nil {
		// The append log persists columnar batches (DecodeBatch sniffs, so
		// JSON batches from an older log replay identically).
		data, err := derive.EncodeBatchColumnar(b.spec.s, b.b)
		if err != nil {
			return AppendResult{}, err
		}
		// Durable before visible, like every catalog mutation: once a
		// reader can see the grown version, a restart replays it.
		if _, err := c.store.st.AppendRun(runName, data); err != nil {
			return AppendResult{}, fmt.Errorf("%w: run %q append: %w", ErrStoreFailed, runName, err)
		}
	}
	newRun := &Run{r: grown, spec: cur.spec}
	gen, _ := c.renew(runName, newRun) // runs are never deregistered
	// Notify standing-query subscribers while growMu is still held, so a
	// run's events arrive in version order with no gaps. The batch's nodes
	// are the grown run's id suffix: [old count, old count + NewNodes).
	c.notifyAppend(AppendEvent{
		RunName:      runName,
		Version:      gen,
		Run:          newRun,
		FirstNewNode: NodeID(cur.NumNodes()),
		NewNodes:     st.NewNodes,
		NewEdges:     st.NewEdges,
	})
	return AppendResult{Run: newRun, Version: gen, Stats: AppendStats(st)}, nil
}

// growLock returns the named run's growth mutex, creating it on first
// use. Entries are never removed — runs are never deregistered, and a
// mutex is a few words. growMu shares persistMu's rank: the two are
// never held together (the lockorder analyzer flags equal-rank nesting).
//
//provrpq:lockrank growMu 10
func (c *Catalog) growLock(runName string) *sync.Mutex {
	mu, _ := c.growMus.LoadOrStore(runName, &sync.Mutex{})
	return mu.(*sync.Mutex)
}

// RunVersion reports how many growth batches have been applied to the
// named run since it was registered (0 for a run that never grew). The
// count never goes back: on a durable catalog, batches replayed at boot and
// batches CompactRun folded into the stored base both count.
func (c *Catalog) RunVersion(name string) (int, bool) {
	if en := c.entry(name); en != nil {
		return en.gen, true
	}
	return 0, false
}

// CompactRun folds the named run's committed growth batches into a single
// stored base payload, bounding the append log: without compaction a
// continuously growing run accumulates one file per batch and every boot
// replays the entire history. The run itself is untouched — compaction
// rewrites how the current version is stored, not what it contains — so
// its version, which standing queries and AppendEdgesCAS compare, stays
// what it was and is returned. The switch is committed atomically through
// the store's manifest, together with the count of batches now inside the
// base: a crash mid-compaction leaves the old base and log fully in force,
// never a double-applied batch, and a restart restores the same version.
// Only meaningful on a durable catalog; without a store it is an error.
func (c *Catalog) CompactRun(runName string) (version int, err error) {
	if c.store == nil {
		return 0, fmt.Errorf("provrpq: catalog: compacting run %q: catalog has no store", runName)
	}
	mu := c.growLock(runName)
	mu.Lock()
	defer mu.Unlock()
	en := c.entry(runName)
	if en == nil {
		return 0, fmt.Errorf("provrpq: catalog: unknown run %q", runName)
	}
	data, err := EncodeRunColumnar(en.run)
	if err != nil {
		return 0, err
	}
	if _, err := c.store.st.CompactRun(runName, data); err != nil {
		return 0, fmt.Errorf("%w: run %q compaction: %w", ErrStoreFailed, runName, err)
	}
	// growMu is held, so no append moved the version since en was read.
	return en.gen, nil
}

// ReleaseEngine drops the named run's lazily-built engine while keeping
// the run registered: the next Engine call rebuilds it (and re-resolves
// its compiled plans from the shared cache). A long-lived daemon holding
// many rarely-queried runs uses this to bound memory — a built engine
// pins the run's inverted edge index and unsafe-query evaluator, which
// can dwarf the run itself.
func (c *Catalog) ReleaseEngine(runName string) error {
	if _, ok := c.renew(runName, nil); !ok {
		return fmt.Errorf("provrpq: catalog: unknown run %q", runName)
	}
	return nil
}
