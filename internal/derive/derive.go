// Package derive implements workflow derivation (Definition 4) and the
// dynamic, derivation-based labeling of runs (Section II-B, reconstructing
// reference [4]).
//
// A run is derived by repeatedly replacing a composite node with the body of
// one of its productions. Each node is labeled the moment it is created with
// the root-to-node edge-label sequence of the *compressed parse tree*:
//
//   - expanding a node with production k places body node i under it with
//     entry (k, i);
//   - a node whose module is recursive (lies on cycle s of P(G)) is placed
//     under an implicit recursive R node: its label additionally carries a
//     recursion entry (s, t, m) where t is the cycle position of the entry
//     module and m the iteration number. The cycle-successor child of an
//     iteration becomes iteration m+1 of the same R node rather than a
//     deeper subtree, which keeps tree depth bounded by the specification
//     size regardless of recursion depth.
//
// The package materializes the final run as a DAG of atomic module
// executions with tagged edges (used by the baselines and the oracle), but
// all label decoding in internal/reach and internal/core works from labels
// and the specification alone, never scanning the run.
package derive

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"provrpq/internal/label"
	"provrpq/internal/wf"
)

// NodeID indexes a node of a Run.
type NodeID int

// Node is one atomic module execution in a run.
type Node struct {
	Module wf.ModuleID
	// Name is the paper-style display id "a:1" (module name plus occurrence
	// number in creation order).
	Name  string
	Label label.Label
}

// Edge is a tagged data edge of a run.
type Edge struct {
	From, To NodeID
	Tag      string
}

// Run is a fully derived workflow execution.
type Run struct {
	Spec  *wf.Spec
	Nodes []Node
	Edges []Edge

	// labelCol/labelOffs are the packed label column: node n's varint
	// label encoding (the Label.Encode bytes) occupies
	// labelCol[labelOffs[n]:labelOffs[n+1]]. finish builds the column for
	// derived and JSON-decoded runs; a columnar open points it straight
	// into the (possibly mmapped) file, leaving Node.Label nil — the
	// pairwise decoders read LabelBytes and never materialize entries.
	labelCol  []byte
	labelOffs []uint32

	// byName is immutable once built (by buildByName, or by an overlay
	// merge that replaces it wholesale with a fresh map), so Grow versions
	// share it without copying. Names added by appends land in nameOverlay
	// — owned per Run value, copied (small) by Grow — and are folded into
	// a new byName once the overlay outgrows a fraction of the base,
	// keeping lookups at two probes and the fold cost amortized O(1) per
	// name.
	byName      map[string]NodeID
	nameOverlay map[string]NodeID
	out         [][]int // node -> indices into Edges
	in          [][]int

	// nameOnce/adjOnce defer the byName map and the adjacency lists of a
	// columnar-opened run: boot then costs O(labels+edges) validation
	// passes instead of map and slice construction over every node, and a
	// run that only ever answers label scans never builds either (a seeded
	// evaluate, an unsafe query or a growth builds the adjacency).
	// nil (built eagerly) for derived and JSON-decoded runs. AppendEdges
	// and Grow force both before mutating or cloning.
	nameOnce *sync.Once
	adjOnce  *sync.Once

	// ownedOut/ownedIn mark adjacency lists whose backing this Run value
	// allocated itself (by an AppendEdges copy-on-write), as opposed to
	// backing possibly shared with the parent a Grow cloned it from. An
	// owned list is extended with a plain (amortized) append; an unowned
	// one is copied exactly once on first touch. Grow deliberately does
	// not carry these over — every list starts unowned in the clone — so
	// sibling versions can never write into common backing. nil until the
	// first append.
	ownedOut, ownedIn map[NodeID]bool
}

// NumNodes returns the number of atomic module executions.
func (r *Run) NumNodes() int { return len(r.Nodes) }

// NumEdges returns the number of data edges (the paper's run-size measure).
func (r *Run) NumEdges() int { return len(r.Edges) }

// NodeByName resolves a paper-style id like "a:1".
func (r *Run) NodeByName(name string) (NodeID, bool) {
	if id, ok := r.nameOverlay[name]; ok {
		return id, true
	}
	id, ok := r.names()[name]
	return id, ok
}

// names returns the byName map, building it on first use for
// columnar-opened runs. Safe for concurrent readers (sync.Once).
func (r *Run) names() map[string]NodeID {
	if r.nameOnce != nil {
		r.nameOnce.Do(r.buildByName)
	}
	return r.byName
}

// ensureAdj builds the adjacency lists on first use for columnar-opened
// runs. Safe for concurrent readers (sync.Once).
func (r *Run) ensureAdj() {
	if r.adjOnce != nil {
		r.adjOnce.Do(r.buildAdj)
	}
}

// NodesOfModule returns all executions of the named module, in creation order.
func (r *Run) NodesOfModule(name string) []NodeID {
	var out []NodeID
	for i := range r.Nodes {
		if r.Spec.Name(r.Nodes[i].Module) == name {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// AllNodes returns every node id.
func (r *Run) AllNodes() []NodeID {
	out := make([]NodeID, len(r.Nodes))
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

// Out returns the indices (into r.Edges) of the outgoing edges of n.
func (r *Run) Out(n NodeID) []int { r.ensureAdj(); return r.out[n] }

// In returns the indices (into r.Edges) of the incoming edges of n.
func (r *Run) In(n NodeID) []int { r.ensureAdj(); return r.in[n] }

// Label returns ψV(n). For columnar-opened runs the entries are decoded on
// demand from the label column (the hot pairwise paths read LabelBytes
// instead and never pay this); derived and JSON-decoded runs return their
// materialized labels.
func (r *Run) Label(n NodeID) label.Label {
	if l := r.Nodes[n].Label; l != nil || r.labelOffs == nil {
		return l
	}
	l, err := label.Decode(r.LabelBytes(n))
	if err != nil {
		// The column is validated when the run is decoded or opened.
		panic(fmt.Sprintf("derive: corrupt label column for node %d: %v", n, err))
	}
	return l
}

// LabelBytes returns the varint encoding of ψV(n) as a zero-copy view into
// the run's label column.
func (r *Run) LabelBytes(n NodeID) label.Bytes {
	if r.labelOffs == nil {
		// A run assembled in-package without finish: encode on the fly.
		return r.Nodes[n].Label.Encode()
	}
	return label.Bytes(r.labelCol[r.labelOffs[n]:r.labelOffs[n+1]])
}

// MaterializeLabels decodes every node's label — LabelsOf over the whole
// run, in node order.
func (r *Run) MaterializeLabels() []label.Label { return r.LabelsOf(r.AllNodes()) }

// LabelsOf decodes the labels of a node list into one arena-backed slice —
// the bulk form of Label for the all-pairs scans, which need []Entry
// labels for sorting and tree construction. Materialized labels (derived
// or JSON-decoded runs, appended nodes) are reused as-is.
func (r *Run) LabelsOf(ids []NodeID) []label.Label {
	out := make([]label.Label, len(ids))
	encoded := 0
	for i, id := range ids {
		if out[i] = r.Nodes[id].Label; out[i] == nil && r.labelOffs != nil {
			encoded += int(r.labelOffs[id+1] - r.labelOffs[id])
		}
	}
	if encoded == 0 {
		return out
	}
	// Entries are at least two bytes, so one arena of encoded/2 entries
	// holds every decoded label without reallocating (keeping out[i] slices
	// of a single backing array).
	arena := make(label.Label, 0, encoded/2+1)
	for i, id := range ids {
		if out[i] != nil {
			continue
		}
		start := len(arena)
		var err error
		arena, err = label.DecodeInto(arena, r.LabelBytes(id))
		if err != nil {
			panic(fmt.Sprintf("derive: corrupt label column for node %d: %v", id, err))
		}
		out[i] = arena[start:len(arena):len(arena)]
	}
	return out
}

// SortByLabel sorts the node list by label order (the order the all-pairs
// tree construction requires) and returns it.
func (r *Run) SortByLabel(ns []NodeID) []NodeID {
	sort.Slice(ns, func(i, j int) bool {
		return label.CompareBytes(r.LabelBytes(ns[i]), r.LabelBytes(ns[j])) < 0
	})
	return ns
}

func (r *Run) finish() {
	r.buildByName()
	r.buildAdj()
	if r.labelOffs == nil {
		r.buildLabelColumn()
	}
}

func (r *Run) buildByName() {
	byName := make(map[string]NodeID, len(r.Nodes))
	for i := range r.Nodes {
		byName[r.Nodes[i].Name] = NodeID(i)
	}
	r.byName = byName
}

// buildAdj counts degrees, then carves each list out of one backing array per
// direction with its capacity clamped to its length: filling never
// reallocates, and AppendEdges copies a list before extending it (the
// ownedOut/ownedIn rule), so nothing writes into the shared backing.
func (r *Run) buildAdj() {
	end := func(e Edge, d int) NodeID { return [2]NodeID{e.From, e.To}[d] }
	for d, lists := range [2]*[][]int{&r.out, &r.in} {
		off, backing, l := make([]int, len(r.Nodes)+1), make([]int, len(r.Edges)), make([][]int, len(r.Nodes))
		for _, e := range r.Edges {
			off[end(e, d)+1]++
		}
		for v := range l {
			off[v+1] += off[v]
			l[v] = backing[off[v]:off[v]:off[v+1]]
		}
		for ei, e := range r.Edges {
			l[end(e, d)] = append(l[end(e, d)], ei)
		}
		*lists = l
	}
}

func (r *Run) buildLabelColumn() {
	offs := make([]uint32, len(r.Nodes)+1)
	col := make([]byte, 0, len(r.Nodes)*4)
	for i := range r.Nodes {
		col = r.Nodes[i].Label.AppendEncode(col)
		offs[i+1] = uint32(len(col))
	}
	r.labelCol, r.labelOffs = col, offs
}

// Policy chooses the production to fire when expanding a composite node.
// prods are the candidate production indices; iter is the 1-based iteration
// number when the module is recursive (0 otherwise).
type Policy func(m wf.ModuleID, prods []int, iter int) int

// Options control derivation.
type Options struct {
	// Seed seeds the default random policy.
	Seed int64
	// TargetEdges stops growth once the emitted edge count reaches it;
	// recursion then terminates as fast as possible. 0 means "expand every
	// recursion exactly once" unless a policy decides otherwise.
	TargetEdges int
	// MaxRecursionDepth caps the iteration count of any single recursion
	// chain (default 1 << 20).
	MaxRecursionDepth int
	// FavorModule, when non-empty, names a recursive module whose recursion
	// is extended while the edge budget lasts; all other recursions run a
	// single iteration (the Fig. 13g/h workload: "firing the specified fork
	// recursion many times and other recursions only once").
	FavorModule string
	// FavorModules extends FavorModule to several modules (e.g. a fork and
	// the loop that re-enters it).
	FavorModules []string
	// FavorCaps optionally caps the iteration count of a favored module's
	// chains (e.g. bound each fork chain while the enclosing loop keeps
	// firing new chains).
	FavorCaps map[string]int
	// ContinueProb, when positive, is the fixed probability of continuing a
	// recursion while the budget lasts. When zero, an adaptive probability
	// is used that sizes chains to the remaining budget (so TargetEdges is
	// reliably approached even for grammars with a single recursion).
	// FavorModule chains always continue while the budget lasts.
	ContinueProb float64
	// Policy overrides all of the above when set.
	Policy Policy
}

type deriver struct {
	spec    *wf.Spec
	opts    Options
	rng     *rand.Rand
	run     *Run
	nameSeq map[string]int
	edges   int // emitted so far (budget accounting)

	minProd []int // module -> production index minimizing derivation size
}

// Derive generates a run of the specification's start module.
func Derive(spec *wf.Spec, opts Options) (*Run, error) {
	return DeriveFrom(spec, spec.Start, opts)
}

// DeriveFrom generates a run rooted at the given module (an execution of
// that module). Rooting at non-start modules is used by the safety property
// tests and the workload generators.
func DeriveFrom(spec *wf.Spec, root wf.ModuleID, opts Options) (*Run, error) {
	if opts.MaxRecursionDepth <= 0 {
		opts.MaxRecursionDepth = 1 << 20
	}
	if opts.FavorModule != "" {
		opts.FavorModules = append(opts.FavorModules, opts.FavorModule)
	}
	d := &deriver{
		spec:    spec,
		opts:    opts,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		run:     &Run{Spec: spec},
		nameSeq: map[string]int{},
	}
	for _, name := range opts.FavorModules {
		if _, ok := spec.ModuleByName(name); !ok {
			return nil, fmt.Errorf("derive: favored module %q not in specification", name)
		}
	}
	d.computeMinProds()

	rootLabel := label.Label{}
	if spec.IsRecursive(root) {
		c, pos := spec.CycleOf(root)
		rootLabel = label.Label{label.Rec(c.ID, pos, 1)}
	}
	if _, _, err := d.expand(root, rootLabel, 1, -1); err != nil {
		return nil, err
	}
	d.run.finish()
	return d.run, nil
}

// computeMinProds finds, per composite module, the production minimizing
// the total derivation size, so budget-exhausted expansion terminates
// quickly. Standard fixpoint over the grammar.
func (d *deriver) computeMinProds() {
	s := d.spec
	const inf = int(1) << 40
	minSize := make([]int, len(s.Modules))
	d.minProd = make([]int, len(s.Modules))
	for i := range minSize {
		if s.IsComposite(wf.ModuleID(i)) {
			minSize[i] = inf
			d.minProd[i] = -1
		} else {
			minSize[i] = 1
		}
	}
	for changed := true; changed; {
		changed = false
		for k, p := range s.Prods {
			total := 1
			ok := true
			for _, m := range p.Body.Nodes {
				if minSize[m] >= inf {
					ok = false
					break
				}
				total += minSize[m]
			}
			if ok && total < minSize[p.LHS] {
				minSize[p.LHS] = total
				d.minProd[p.LHS] = k
				changed = true
			}
		}
	}
}

// expand derives module m with the given label; iter is its 1-based
// iteration number if m is recursive, and chainCap the absolute emitted-edge
// threshold allotted to the enclosing recursion chain (-1 outside chains).
// It returns the run-node ids of the entry (source) and exit (sink) of the
// produced execution.
//
// Derivation is where labels are built: every append below extends a
// Clone (or a local grown from one), never the shared label of an
// existing node.
//
//provrpq:mutator
func (d *deriver) expand(m wf.ModuleID, lab label.Label, iter, chainCap int) (entry, exit NodeID, err error) {
	if !d.spec.IsComposite(m) {
		id := d.newNode(m, lab)
		return id, id, nil
	}
	if d.spec.IsRecursive(m) && iter == 1 && chainCap < 0 && d.opts.TargetEdges > 0 && d.opts.Policy == nil {
		// Entering a fresh chain: allot it a random share of the remaining
		// budget, so single-recursion grammars reach the target while
		// multi-recursion grammars spread the budget over several chains.
		remaining := d.opts.TargetEdges - d.edges
		if remaining > 0 {
			share := 0.5 + 0.5*d.rng.Float64()
			if len(d.opts.FavorModules) > 0 {
				share = 1.0
			}
			chainCap = d.edges + int(share*float64(remaining))
		} else {
			chainCap = d.edges // exhausted: terminate immediately
		}
	}
	k := d.chooseProduction(m, iter, chainCap)
	p := d.spec.Prods[k]
	d.edges += len(p.Body.Edges)

	recProd, cyclePos := -1, -1
	if d.spec.IsRecursive(m) {
		recProd, cyclePos = d.spec.RecursiveProd(m)
	}

	entries := make([]NodeID, len(p.Body.Nodes))
	exits := make([]NodeID, len(p.Body.Nodes))
	for i, mi := range p.Body.Nodes {
		var childLab label.Label
		childIter := 1
		if k == recProd && i == cyclePos {
			// The cycle successor continues the enclosing R node: replace
			// the trailing recursion entry (s,t,iter) with (s,t,iter+1).
			last := lab[len(lab)-1]
			childLab = append(lab[:len(lab)-1].Clone(), label.Rec(last.X, last.Y, last.Z+1))
			childIter = iter + 1
		} else {
			childLab = append(lab.Clone(), label.Prod(k, i))
			if d.spec.IsRecursive(mi) {
				// Entering a fresh cycle: open an R node at this position.
				c, pos := d.spec.CycleOf(mi)
				childLab = append(childLab, label.Rec(c.ID, pos, 1))
			}
		}
		childCap := -1
		if k == recProd && i == cyclePos {
			childCap = chainCap // stay in the same chain
		}
		e, x, err := d.expand(mi, childLab, childIter, childCap)
		if err != nil {
			return 0, 0, err
		}
		entries[i], exits[i] = e, x
	}
	for _, be := range p.Body.Edges {
		d.run.Edges = append(d.run.Edges, Edge{From: exits[be.From], To: entries[be.To], Tag: be.Tag})
	}
	return entries[d.spec.Source(k)], exits[d.spec.Sink(k)], nil
}

func (d *deriver) newNode(m wf.ModuleID, lab label.Label) NodeID {
	name := d.spec.Name(m)
	d.nameSeq[name]++
	id := NodeID(len(d.run.Nodes))
	d.run.Nodes = append(d.run.Nodes, Node{
		Module: m,
		Name:   fmt.Sprintf("%s:%d", name, d.nameSeq[name]),
		Label:  lab,
	})
	return id
}

// chooseProduction applies the policy (or the default budgeted random
// policy) to pick a production for module m at iteration iter, given the
// enclosing chain's edge allotment.
func (d *deriver) chooseProduction(m wf.ModuleID, iter, chainCap int) int {
	prods := d.spec.ProdsOf(m)
	if d.opts.Policy != nil {
		return d.opts.Policy(m, prods, iter)
	}
	recProd := -1
	if d.spec.IsRecursive(m) {
		recProd, _ = d.spec.RecursiveProd(m)
	}
	if recProd < 0 {
		return prods[d.rng.Intn(len(prods))]
	}

	// Recursive module: decide whether to continue the chain.
	budgetLeft := (d.opts.TargetEdges == 0 || d.edges < d.opts.TargetEdges) &&
		(chainCap < 0 || d.edges < chainCap)
	continueRec := false
	switch {
	case iter >= d.opts.MaxRecursionDepth:
	case !budgetLeft:
	case len(d.opts.FavorModules) > 0:
		name := d.spec.Name(m)
		favored := false
		for _, f := range d.opts.FavorModules {
			if f == name {
				favored = true
				break
			}
		}
		if cap, ok := d.opts.FavorCaps[name]; ok && iter >= cap {
			favored = false
		}
		continueRec = favored && d.opts.TargetEdges > 0
	case d.opts.ContinueProb > 0:
		continueRec = d.rng.Float64() < d.opts.ContinueProb
	case d.opts.TargetEdges > 0:
		continueRec = true // run the chain to its allotment
	default:
		continueRec = d.rng.Float64() < 0.7
	}
	if continueRec {
		return recProd
	}
	// Terminate: choose among non-recursive productions, or the minimal one
	// when exhausted. Multi-module cycles may leave a module with only its
	// recursive production; then we must take it and let the cycle wind
	// down at a module that has a base case.
	var base []int
	for _, k := range prods {
		if k != recProd {
			base = append(base, k)
		}
	}
	if len(base) == 0 {
		return recProd
	}
	if !budgetLeft {
		// Prefer the smallest terminating production.
		if d.minProd[m] >= 0 && d.minProd[m] != recProd {
			return d.minProd[m]
		}
	}
	return base[d.rng.Intn(len(base))]
}
