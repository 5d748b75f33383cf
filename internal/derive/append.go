package derive

import (
	"fmt"

	"provrpq/internal/wf"
)

// Batch is one append-only growth step of a run: new atomic module
// executions, each carrying the derivation-based label it was assigned when
// the workflow engine fired the production that created it, plus new tagged
// data edges. Edge endpoints use the grown run's numbering: an endpoint
// below the pre-append node count references an existing node, anything at
// or above it references a batch node (endpoint - old count).
//
// Growth is append-only by construction — a batch can add nodes and edges
// but never rewrite or remove anything — which is exactly what the paper's
// dynamic labeling supports: a label is assigned once, when its node is
// derived, and never changes (Section II-B), so extending a run leaves
// every existing label byte-identical and only the new nodes' labels are
// derived. Appended content must, like an uploaded run, describe a
// derivation of the specification for safe-query answers to stay exact;
// the structural checks here (modules, labels, tags, endpoints) are the
// same ones DecodeRun applies to a full upload.
type Batch struct {
	Nodes []Node
	Edges []Edge
}

// AppendStats reports the work an append performed, for observability and
// for asserting the incremental-cost contract in tests.
type AppendStats struct {
	// NewNodes and NewEdges count the batch's contents.
	NewNodes, NewEdges int
	// Frontier counts the pre-existing nodes whose derived per-node state
	// (adjacency) changed — the endpoints the new edges attach to,
	// discovered by a BFS over the batch's edges. Everything outside the
	// frontier is untouched: labels are dynamic (assigned at derivation,
	// never recomputed), so an append can never change an existing label,
	// and adjacency only changes where a new edge lands.
	Frontier int
	// Touched = NewNodes + Frontier: the total number of nodes whose state
	// was (re)computed. The append-cost contract is O(Touched + NewEdges)
	// amortized, independent of the run's total size.
	Touched int
}

// AppendEdges extends the run with one growth batch, in place, recomputing
// per-node state only for the batch and its frontier instead of re-deriving
// all n nodes: new nodes are labeled/validated and registered, and
// adjacency is extended exactly at the new edges' endpoints. The batch is
// fully validated before the first mutation, so a rejected append leaves
// the run byte-identical to its pre-call state.
//
// AppendEdges mutates the run and is therefore not safe to call while the
// run is being read concurrently (an Engine built over it caches per-run
// state and would go stale anyway). Exclusive owners — a decoder, a boot
// replay — call it directly; a run served by a Catalog grows through
// Catalog.AppendEdges, which versions the run via Grow and atomically
// swaps engines instead.
func AppendEdges(r *Run, b Batch) (AppendStats, error) {
	base := len(r.Nodes)
	total := base + len(b.Nodes)

	// A columnar-opened run defers its name map and adjacency; growth
	// needs both (duplicate-name checks, adjacency extension), so force
	// them now, before any mutation.
	r.names()
	r.ensureAdj()

	// ---- validate everything before mutating anything ----
	seen := make(map[string]bool, len(b.Nodes))
	for i, n := range b.Nodes {
		if n.Module < 0 || int(n.Module) >= len(r.Spec.Modules) {
			return AppendStats{}, fmt.Errorf("derive: append node %d (%s): module id %d out of range", i, n.Name, n.Module)
		}
		if n.Name == "" {
			return AppendStats{}, fmt.Errorf("derive: append node %d: empty name", i)
		}
		if _, dup := r.NodeByName(n.Name); dup || seen[n.Name] {
			return AppendStats{}, fmt.Errorf("derive: append node %d: duplicate node name %q", i, n.Name)
		}
		seen[n.Name] = true
		if err := ValidateLabel(r.Spec, n.Label); err != nil {
			return AppendStats{}, fmt.Errorf("derive: append node %d (%s): %v", i, n.Name, err)
		}
	}
	alphabet := tagSet(r.Spec)
	for i, e := range b.Edges {
		if e.From < 0 || int(e.From) >= total || e.To < 0 || int(e.To) >= total {
			return AppendStats{}, fmt.Errorf("derive: append edge %d (%d -[%s]-> %d): endpoint out of range [0,%d)",
				i, e.From, e.Tag, e.To, total)
		}
		if !alphabet[e.Tag] {
			return AppendStats{}, fmt.Errorf("derive: append edge %d (%d -> %d): tag %q not in the specification's alphabet",
				i, e.From, e.To, e.Tag)
		}
	}

	// ---- frontier: the pre-existing nodes the batch attaches to ----
	// BFS over the batch's edges from their endpoints; with append-only
	// growth the traversal closes after one step — dynamic labels mean no
	// change ever propagates past the nodes a new edge touches — so the
	// frontier is exactly the set of existing endpoints, and per-endpoint
	// we learn how much adjacency room the touched node needs.
	outAdd := make(map[NodeID]int)
	inAdd := make(map[NodeID]int)
	frontier := make(map[NodeID]bool)
	for _, e := range b.Edges {
		outAdd[e.From]++
		inAdd[e.To]++
		if int(e.From) < base {
			frontier[e.From] = true
		}
		if int(e.To) < base {
			frontier[e.To] = true
		}
	}

	// ---- apply ----
	// Copy-on-write the adjacency lists of frontier nodes this Run does
	// not yet own: a Run produced by Grow shares inner slices with its
	// parent version, and an in-place append must never write into
	// backing arrays a sibling version could also extend. Ownership makes
	// the copy a once-per-list cost rather than once-per-append — without
	// it, a stream of small batches attaching to one high-degree hub node
	// would re-copy the hub's whole list every time, quadratic in
	// aggregate — so the contract stays amortized O(Touched + NewEdges).
	// (Writing an owned list's spare capacity is safe even when a child
	// clone shares the backing: the child's length predates the spare,
	// and the child copies before its own first write.)
	if r.ownedOut == nil {
		r.ownedOut = make(map[NodeID]bool, len(outAdd)+len(b.Nodes))
		r.ownedIn = make(map[NodeID]bool, len(inAdd)+len(b.Nodes))
	}
	for u, c := range outAdd {
		if int(u) < base && !r.ownedOut[u] {
			r.out[u] = growIntSlice(r.out[u], c)
			r.ownedOut[u] = true
		}
	}
	for u, c := range inAdd {
		if int(u) < base && !r.ownedIn[u] {
			r.in[u] = growIntSlice(r.in[u], c)
			r.ownedIn[u] = true
		}
	}
	if len(b.Nodes) > 0 && r.nameOverlay == nil {
		r.nameOverlay = make(map[string]NodeID, len(b.Nodes))
	}
	for _, n := range b.Nodes {
		id := NodeID(len(r.Nodes))
		// New names go to the overlay, never into byName: byName is
		// immutable so Grow versions can share it without an O(n) rehash
		// per append.
		r.nameOverlay[n.Name] = id
		r.Nodes = append(r.Nodes, n)
		if r.labelOffs != nil {
			// Extend the label column in step with the node list. An
			// mmap-backed or Grow-shared column has cap == len, so the
			// first append reallocates to process-owned memory and never
			// writes into a mapping or a sibling version's backing.
			r.labelCol = n.Label.AppendEncode(r.labelCol)
			r.labelOffs = append(r.labelOffs, uint32(len(r.labelCol)))
		}
		r.out = append(r.out, nil)
		r.in = append(r.in, nil)
		// A new node's list starts nil, so its backing is allocated by
		// this Run's own appends.
		r.ownedOut[id] = true
		r.ownedIn[id] = true
	}
	// Fold a grown overlay into a fresh base map (never mutating the old
	// one — other versions may share it). The threshold keeps lookups at
	// two small probes and amortizes the fold to O(1) per appended name.
	if len(r.nameOverlay) > len(r.byName)/4+64 {
		merged := make(map[string]NodeID, len(r.byName)+len(r.nameOverlay))
		for name, id := range r.byName {
			merged[name] = id
		}
		for name, id := range r.nameOverlay {
			merged[name] = id
		}
		r.byName = merged
		r.nameOverlay = nil
	}
	for _, e := range b.Edges {
		ei := len(r.Edges)
		r.Edges = append(r.Edges, e)
		r.out[e.From] = append(r.out[e.From], ei)
		r.in[e.To] = append(r.in[e.To], ei)
	}

	return AppendStats{
		NewNodes: len(b.Nodes),
		NewEdges: len(b.Edges),
		Frontier: len(frontier),
		Touched:  len(b.Nodes) + len(frontier),
	}, nil
}

// growIntSlice returns a fresh copy of s with room for n more entries,
// never aliasing s's backing array.
func growIntSlice(s []int, n int) []int {
	out := make([]int, len(s), len(s)+n)
	copy(out, s)
	return out
}

// Grow returns a new Run equal to r with the batch appended, leaving r —
// and every engine, index or evaluator built over it — fully intact and
// readable. This is the versioning primitive the serving layer swaps in:
// in-flight queries keep reading the old version while new lookups see the
// grown one.
//
// Cost: all expensive per-node work (label validation, name registration,
// adjacency construction) is paid only for the batch and its frontier, but
// a version is not free of O(n) copying. The node, edge and label columns
// share their backing with capacity clamped to length, so the parent
// extending its spare capacity stays invisible below the clone's length —
// and the clone's first own append to each column reallocates and copies
// it, and the adjacency headers are memmoved (AppendEdges rewrites their
// elements in place for the frontier's copy-on-write): 1.47 MB and 0.70 ms
// per 64-edge batch at 16K edges (BenchmarkAppendGrow16K). Chunked columns
// would remove that; they are a recorded follow-up (CHANGES.md, PR 20). The
// name map proper is immutable and shared, never rehashed; the (small) name
// overlay is copied. Bulk loaders ingesting into an unregistered run should
// prefer the in-place AppendEdges. Two Grows from the same receiver are
// independent — the copy-on-write in AppendEdges never writes into shared
// backing, and each clone starts with no adjacency ownership.
func (r *Run) Grow(b Batch) (*Run, AppendStats, error) {
	// Materialize any deferred tables first: the clone must copy built
	// state, and the shared byName below must actually exist.
	r.names()
	r.ensureAdj()
	nr := &Run{
		Spec:      r.Spec,
		Nodes:     r.Nodes[:len(r.Nodes):len(r.Nodes)],
		Edges:     r.Edges[:len(r.Edges):len(r.Edges)],
		byName:    r.byName, // immutable: shared, not copied
		out:       append(make([][]int, 0, len(r.out)+len(b.Nodes)), r.out...),
		in:        append(make([][]int, 0, len(r.in)+len(b.Nodes)), r.in...),
		labelCol:  r.labelCol[:len(r.labelCol):len(r.labelCol)],
		labelOffs: r.labelOffs[:len(r.labelOffs):len(r.labelOffs)],
	}
	if len(r.nameOverlay) > 0 {
		nr.nameOverlay = make(map[string]NodeID, len(r.nameOverlay)+len(b.Nodes))
		for name, id := range r.nameOverlay {
			nr.nameOverlay[name] = id
		}
	}
	stats, err := AppendEdges(nr, b)
	if err != nil {
		return nil, AppendStats{}, err
	}
	return nr, stats, nil
}

// tagSet returns the specification's edge-tag alphabet Γ as a set. The
// set is the Spec's shared immutable table — validation only reads it, so
// nothing is materialized per call.
func tagSet(spec *wf.Spec) map[string]bool {
	return spec.TagSet()
}
