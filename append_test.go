package provrpq

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"provrpq/internal/store"
)

// splitEncodedRun carves an encoded run into a base-run payload (nodes
// [0, cuts[0]) plus their internal edges) and one growth-batch payload per
// further cut, preserving the original edge order within each part. Edge
// endpoints keep their absolute ids, which is exactly the batch wire
// numbering (the base is a prefix of the final run).
func splitEncodedRun(t testing.TB, data []byte, cuts []int) (base []byte, batches [][]byte) {
	t.Helper()
	var rj struct {
		Nodes []json.RawMessage `json:"nodes"`
		Edges []struct {
			From, To int
			Tag      string
		} `json:"edges"`
	}
	if err := json.Unmarshal(data, &rj); err != nil {
		t.Fatal(err)
	}
	if cuts[len(cuts)-1] != len(rj.Nodes) {
		t.Fatalf("last cut %d != node count %d", cuts[len(cuts)-1], len(rj.Nodes))
	}
	type edge struct {
		From int    `json:"From"`
		To   int    `json:"To"`
		Tag  string `json:"Tag"`
	}
	part := func(nodes []json.RawMessage, edges []edge) []byte {
		if edges == nil {
			edges = []edge{}
		}
		out, err := json.Marshal(map[string]any{"nodes": nodes, "edges": edges})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	edgeParts := make([][]edge, len(cuts))
	for _, e := range rj.Edges {
		hi := e.From
		if e.To > hi {
			hi = e.To
		}
		for i, c := range cuts {
			if hi < c {
				edgeParts[i] = append(edgeParts[i], edge(e))
				break
			}
		}
	}
	base = part(rj.Nodes[:cuts[0]], edgeParts[0])
	for i := 1; i < len(cuts); i++ {
		batches = append(batches, part(rj.Nodes[cuts[i-1]:cuts[i]], edgeParts[i]))
	}
	return base, batches
}

// rebuiltReference re-derives the final graph from scratch: the full node
// list with the edges ordered the way the append path emits them (base
// edges first, then each batch's), decoded through the full-validation
// DecodeRun path.
func rebuiltReference(t testing.TB, spec *Spec, base []byte, batches [][]byte) *Run {
	t.Helper()
	var acc struct {
		Nodes []json.RawMessage `json:"nodes"`
		Edges []json.RawMessage `json:"edges"`
	}
	add := func(data []byte) {
		var p struct {
			Nodes []json.RawMessage `json:"nodes"`
			Edges []json.RawMessage `json:"edges"`
		}
		if err := json.Unmarshal(data, &p); err != nil {
			t.Fatal(err)
		}
		acc.Nodes = append(acc.Nodes, p.Nodes...)
		acc.Edges = append(acc.Edges, p.Edges...)
	}
	add(base)
	for _, b := range batches {
		add(b)
	}
	data, err := json.Marshal(acc)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := DecodeRun(spec, data)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

var appendQueries = []string{"_*.s._*.publish", "ingest._*", "_*.a1._*", "_*", "s.s"}

// samePairs compares two Evaluate results (order included: both engines
// run the same deterministic scan).
func samePairs(a, b []Pair) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d pairs vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("pair %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// TestAppendEqualsFullDerivation is the acceptance property: for
// randomized base graphs and randomized edge batches, appending then
// querying is indistinguishable — byte-identical encoding, identical
// labels, identical pair sets for safe and unsafe queries — from fully
// re-deriving the final graph from scratch.
func TestAppendEqualsFullDerivation(t *testing.T) {
	spec := introSpec(t)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		full, err := spec.Derive(DeriveOptions{Seed: seed, TargetEdges: 60 + rng.Intn(240)})
		if err != nil {
			t.Fatal(err)
		}
		fullJSON, err := EncodeRun(full)
		if err != nil {
			t.Fatal(err)
		}
		n := full.NumNodes()
		cuts := []int{1 + rng.Intn(n-1)}
		for cuts[len(cuts)-1] < n {
			next := cuts[len(cuts)-1] + 1 + rng.Intn(n/3+1)
			if next > n {
				next = n
			}
			cuts = append(cuts, next)
		}
		baseJSON, batchJSONs := splitEncodedRun(t, fullJSON, cuts)

		grown, err := DecodeRun(spec, baseJSON)
		if err != nil {
			t.Fatalf("seed %d: decoding base: %v", seed, err)
		}
		for bi, bj := range batchJSONs {
			batch, err := DecodeBatch(spec, bj)
			if err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, bi, err)
			}
			stats, err := grown.Append(batch)
			if err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, bi, err)
			}
			if stats.NewNodes != batch.NumNodes() || stats.NewEdges != batch.NumEdges() {
				t.Fatalf("seed %d batch %d: stats %+v", seed, bi, stats)
			}
		}
		ref := rebuiltReference(t, spec, baseJSON, batchJSONs)

		grownJSON, err := EncodeRun(grown)
		if err != nil {
			t.Fatal(err)
		}
		refJSON, err := EncodeRun(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(grownJSON, refJSON) {
			t.Fatalf("seed %d: append-then-encode differs from full re-derivation", seed)
		}
		for i := 0; i < n; i++ {
			if grown.NodeLabel(NodeID(i)) != ref.NodeLabel(NodeID(i)) {
				t.Fatalf("seed %d: node %d label %q vs %q", seed, i, grown.NodeLabel(NodeID(i)), ref.NodeLabel(NodeID(i)))
			}
		}
		ge, re := NewEngine(grown), NewEngine(ref)
		for _, qs := range appendQueries {
			q := MustParseQuery(qs)
			gp, err := ge.Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := re.Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			if err := samePairs(gp, rp); err != nil {
				t.Fatalf("seed %d query %s: %v", seed, qs, err)
			}
		}
		for i := 0; i < 50; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			gr, _ := ge.Reachable(u, v)
			rr, _ := re.Reachable(u, v)
			if gr != rr {
				t.Fatalf("seed %d: Reachable(%d,%d) = %v vs %v", seed, u, v, gr, rr)
			}
		}
	}
}

// TestAppendFrontierProportionalWork pins the incremental-cost contract on
// a 16K-edge run: appending k edges touches O(k) nodes — the frontier —
// no matter that the run holds thousands of nodes.
func TestAppendFrontierProportionalWork(t *testing.T) {
	spec := introSpec(t)
	full, err := spec.Derive(DeriveOptions{Seed: 5, TargetEdges: 16000})
	if err != nil {
		t.Fatal(err)
	}
	n := full.NumNodes()
	if n < 4000 {
		t.Fatalf("fixture too small: %d nodes", n)
	}
	for _, k := range []int{1, 8, 64} {
		batch := appendEdgesBatch(t, spec, full, k)
		grown, stats, err := full.r.Grow(batch.b)
		if err != nil {
			t.Fatal(err)
		}
		if grown.NumEdges() != full.NumEdges()+k {
			t.Fatalf("k=%d: grew to %d edges, want %d", k, grown.NumEdges(), full.NumEdges()+k)
		}
		if stats.Touched > 2*k {
			t.Fatalf("k=%d: touched %d nodes, want <= %d (frontier-proportional, not O(n)=%d)",
				k, stats.Touched, 2*k, n)
		}
	}
}

// appendEdgesBatch builds a batch of k new edges between random existing
// nodes of the run, tagged from the specification's alphabet.
func appendEdgesBatch(t testing.TB, spec *Spec, r *Run, k int) *Batch {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(k)))
	tags := spec.Tags()
	type edge struct {
		From int    `json:"From"`
		To   int    `json:"To"`
		Tag  string `json:"Tag"`
	}
	edges := make([]edge, k)
	for i := range edges {
		edges[i] = edge{From: rng.Intn(r.NumNodes()), To: rng.Intn(r.NumNodes()), Tag: tags[rng.Intn(len(tags))]}
	}
	data, err := json.Marshal(map[string]any{"edges": edges})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeBatch(spec, data)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogAppendSwapsEngineSharesPlans: the catalog append must swap in
// a fresh engine over the grown run while the old engine keeps serving the
// old version, and compiled plans — keyed by (spec, query) — must carry
// over as cache hits.
func TestCatalogAppendSwapsEngineSharesPlans(t *testing.T) {
	spec := introSpec(t)
	full, err := spec.Derive(DeriveOptions{Seed: 9, TargetEdges: 200})
	if err != nil {
		t.Fatal(err)
	}
	fullJSON, err := EncodeRun(full)
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, batchJSONs := splitEncodedRun(t, fullJSON, []int{full.NumNodes() / 2, full.NumNodes()})
	base, err := DecodeRun(spec, baseJSON)
	if err != nil {
		t.Fatal(err)
	}

	cat := NewCatalog(CatalogOptions{})
	if err := cat.RegisterSpec("wf", spec); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("r", "wf", base); err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery("_*.s._*.publish")
	e0, err := cat.Engine("r")
	if err != nil {
		t.Fatal(err)
	}
	oldPairs, err := e0.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	misses := cat.Stats().PlanCache.Misses

	batch, err := DecodeBatch(spec, batchJSONs[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := cat.AppendEdges("r", batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || res.Run.NumNodes() != full.NumNodes() {
		t.Fatalf("append result = version %d, %d nodes", res.Version, res.Run.NumNodes())
	}
	if v, ok := cat.RunVersion("r"); !ok || v != 1 {
		t.Fatalf("RunVersion = %d, %v", v, ok)
	}
	if got, _ := cat.Run("r"); got != res.Run {
		t.Fatal("catalog still lists the old run version")
	}

	e1, err := cat.Engine("r")
	if err != nil {
		t.Fatal(err)
	}
	if e1 == e0 {
		t.Fatal("append did not swap the engine")
	}
	newPairs, err := e1.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Stats().PlanCache.Misses != misses {
		t.Fatalf("append recompiled the plan: misses %d -> %d", misses, cat.Stats().PlanCache.Misses)
	}

	// The old engine still serves the old, internally consistent version.
	oldAgain, err := e0.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := samePairs(oldPairs, oldAgain); err != nil {
		t.Fatalf("old engine's answer changed under append: %v", err)
	}

	// And the grown version answers like the full graph decoded whole.
	ref, err := DecodeRun(spec, mustEncode(t, res.Run))
	if err != nil {
		t.Fatal(err)
	}
	refPairs, err := NewEngine(ref).Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := samePairs(newPairs, refPairs); err != nil {
		t.Fatalf("grown engine differs from full decode: %v", err)
	}

	// Appending to an unknown run fails; a batch from a different Spec
	// instance is refused.
	if _, err := cat.AppendEdges("ghost", batch); err == nil {
		t.Fatal("append to unknown run succeeded")
	}
	otherSpec := introSpec(t)
	foreign, err := DecodeBatch(otherSpec, batchJSONs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AppendEdges("r", foreign); err == nil {
		t.Fatal("append with a foreign-spec batch succeeded")
	}
}

func mustEncode(t testing.TB, r *Run) []byte {
	t.Helper()
	data, err := EncodeRun(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCatalogAppendUnderConcurrentQueries hammers Evaluate and Engine
// lookups while the run grows batch by batch — the race detector guards
// the version swap.
func TestCatalogAppendUnderConcurrentQueries(t *testing.T) {
	spec := introSpec(t)
	full, err := spec.Derive(DeriveOptions{Seed: 13, TargetEdges: 300})
	if err != nil {
		t.Fatal(err)
	}
	fullJSON := mustEncode(t, full)
	n := full.NumNodes()
	cuts := []int{n / 4, n / 2, 3 * n / 4, n}
	baseJSON, batchJSONs := splitEncodedRun(t, fullJSON, cuts)
	base, err := DecodeRun(spec, baseJSON)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(CatalogOptions{})
	if err := cat.RegisterSpec("wf", spec); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("r", "wf", base); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := MustParseQuery(appendQueries[g%len(appendQueries)])
			for {
				select {
				case <-stop:
					return
				default:
				}
				eng, err := cat.Engine("r")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := eng.Evaluate(q); err != nil {
					t.Error(err)
					return
				}
				if _, err := eng.Pairwise(q, 0, NodeID(eng.Run().NumNodes()-1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for _, bj := range batchJSONs {
		batch, err := DecodeBatch(spec, bj)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cat.AppendEdges("r", batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if v, _ := cat.RunVersion("r"); v != len(batchJSONs) {
		t.Fatalf("final version = %d, want %d", v, len(batchJSONs))
	}
	eng, err := cat.Engine("r")
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Evaluate(MustParseQuery("_*"))
	if err != nil {
		t.Fatal(err)
	}
	ref := rebuiltReference(t, spec, baseJSON, batchJSONs)
	want, err := NewEngine(ref).Evaluate(MustParseQuery("_*"))
	if err != nil {
		t.Fatal(err)
	}
	if err := samePairs(got, want); err != nil {
		t.Fatalf("final grown run differs from reference: %v", err)
	}
}

// TestReleaseEngine drops a built engine while keeping the run served.
func TestReleaseEngine(t *testing.T) {
	spec := introSpec(t)
	run, err := spec.Derive(DeriveOptions{Seed: 2, TargetEdges: 80})
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(CatalogOptions{})
	if err := cat.RegisterSpec("wf", spec); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("r", "wf", run); err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery("ingest._*")
	e0, err := cat.Engine("r")
	if err != nil {
		t.Fatal(err)
	}
	want, err := e0.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.ReleaseEngine("r"); err != nil {
		t.Fatal(err)
	}
	if _, ok := cat.Run("r"); !ok {
		t.Fatal("ReleaseEngine deregistered the run")
	}
	e1, err := cat.Engine("r")
	if err != nil {
		t.Fatal(err)
	}
	if e1 == e0 {
		t.Fatal("ReleaseEngine kept the old engine")
	}
	got, err := e1.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := samePairs(got, want); err != nil {
		t.Fatalf("rebuilt engine differs: %v", err)
	}
	if v, _ := cat.RunVersion("r"); v != 0 {
		t.Fatalf("ReleaseEngine bumped the version to %d", v)
	}
	if err := cat.ReleaseEngine("ghost"); err == nil {
		t.Fatal("ReleaseEngine of an unknown run succeeded")
	}
}

// TestAppendDurableCrashConsistency mirrors the store's orphan-run tests
// at the catalog level: a batch is either fully replayed after a restart
// or — when the crash hit between the batch write and the manifest commit
// — fully invisible, never torn.
func TestAppendDurableCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := introSpec(t)
	full, err := spec.Derive(DeriveOptions{Seed: 17, TargetEdges: 160})
	if err != nil {
		t.Fatal(err)
	}
	fullJSON := mustEncode(t, full)
	n := full.NumNodes()
	baseJSON, batchJSONs := splitEncodedRun(t, fullJSON, []int{n / 3, 2 * n / 3, n})
	base, err := DecodeRun(spec, baseJSON)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(CatalogOptions{Store: st})
	if err := cat.RegisterSpec("wf", spec); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("r", "wf", base); err != nil {
		t.Fatal(err)
	}
	batch0, err := DecodeBatch(spec, batchJSONs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AppendEdges("r", batch0); err != nil {
		t.Fatal(err)
	}
	committed, _ := cat.Run("r")
	wantNodes := committed.NumNodes()

	// Crash between AppendRun's two writes: the seq-1 batch file lands,
	// the manifest count does not.
	orphan := filepath.Join(dir, "appends", "r.1.json")
	if err := os.WriteFile(orphan, batchJSONs[1], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat2, err := NewCatalogFromStore(st2, CatalogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	restored, ok := cat2.Run("r")
	if !ok {
		t.Fatal("run lost on restart")
	}
	if restored.NumNodes() != wantNodes {
		t.Fatalf("restored run has %d nodes, want %d (committed batch replayed, torn batch invisible)",
			restored.NumNodes(), wantNodes)
	}
	if v, _ := cat2.RunVersion("r"); v != 1 {
		t.Fatalf("restored version = %d, want 1", v)
	}
	// Identical answers to the pre-crash committed state, byte for byte.
	if !bytes.Equal(mustEncode(t, restored), mustEncode(t, committed)) {
		t.Fatal("restored run differs from the committed pre-crash state")
	}

	// The next append retakes seq 1, atomically replacing the orphan, and
	// a further restart replays both batches. The batch must decode
	// against the restored catalog's spec instance — label decoding and
	// plan sharing hinge on specification identity.
	spec2, ok := cat2.Spec("wf")
	if !ok {
		t.Fatal("spec lost on restart")
	}
	batch1, err := DecodeBatch(spec2, batchJSONs[1])
	if err != nil {
		t.Fatal(err)
	}
	res, err := cat2.AppendEdges("r", batch1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || res.Run.NumNodes() != n {
		t.Fatalf("post-crash append = version %d, %d nodes", res.Version, res.Run.NumNodes())
	}
	st3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat3, err := NewCatalogFromStore(st3, CatalogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	final, _ := cat3.Run("r")
	if !bytes.Equal(mustEncode(t, final), mustEncode(t, res.Run)) {
		t.Fatal("second restart differs from the grown run")
	}
	if v, _ := cat3.RunVersion("r"); v != 2 {
		t.Fatalf("final version = %d, want 2", v)
	}
}

// TestAppendStoreFailureLeavesCatalogUngrown: when the append log cannot
// be written, the error is ErrStoreFailed and the catalog keeps serving
// the un-grown version (nothing half-applied).
func TestAppendStoreFailureLeavesCatalogUngrown(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := introSpec(t)
	full, err := spec.Derive(DeriveOptions{Seed: 19, TargetEdges: 100})
	if err != nil {
		t.Fatal(err)
	}
	fullJSON := mustEncode(t, full)
	baseJSON, batchJSONs := splitEncodedRun(t, fullJSON, []int{full.NumNodes() / 2, full.NumNodes()})
	base, err := DecodeRun(spec, baseJSON)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(CatalogOptions{Store: st})
	if err := cat.RegisterSpec("wf", spec); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("r", "wf", base); err != nil {
		t.Fatal(err)
	}
	// Make the append log unwritable by replacing its directory with a
	// file.
	appendsDir := filepath.Join(dir, "appends")
	if err := os.RemoveAll(appendsDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(appendsDir, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	batch, err := DecodeBatch(spec, batchJSONs[0])
	if err != nil {
		t.Fatal(err)
	}
	beforeNodes := base.NumNodes()
	if _, err := cat.AppendEdges("r", batch); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("append with broken store = %v, want ErrStoreFailed", err)
	}
	cur, _ := cat.Run("r")
	if cur.NumNodes() != beforeNodes {
		t.Fatalf("failed append grew the served run to %d nodes", cur.NumNodes())
	}
	if v, _ := cat.RunVersion("r"); v != 0 {
		t.Fatalf("failed append bumped the version to %d", v)
	}
}

// TestCatalogCompactRun: compaction folds the append log into one stored
// base — the served run and its version are untouched, a restart boots from
// the folded base with identical answers and the same version, and growth
// continues from there.
func TestCatalogCompactRun(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := introSpec(t)
	full, err := spec.Derive(DeriveOptions{Seed: 23, TargetEdges: 150})
	if err != nil {
		t.Fatal(err)
	}
	n := full.NumNodes()
	baseJSON, batchJSONs := splitEncodedRun(t, mustEncode(t, full), []int{n / 3, 2 * n / 3, n})
	base, err := DecodeRun(spec, baseJSON)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(CatalogOptions{Store: st})
	if err := cat.RegisterSpec("wf", spec); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("r", "wf", base); err != nil {
		t.Fatal(err)
	}
	// In-memory catalogs cannot compact (there is nothing stored to fold).
	memCat := NewCatalog(CatalogOptions{})
	if _, err := memCat.CompactRun("r"); err == nil {
		t.Fatal("compaction without a store succeeded")
	}
	if _, err := cat.CompactRun("ghost"); err == nil {
		t.Fatal("compaction of unknown run succeeded")
	}

	b0, err := DecodeBatch(spec, batchJSONs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AppendEdges("r", b0); err != nil {
		t.Fatal(err)
	}
	served, _ := cat.Run("r")
	if v, err := cat.CompactRun("r"); err != nil || v != 1 {
		t.Fatalf("CompactRun = version %d, %v; want the run's version, 1", v, err)
	}
	if v, _ := cat.RunVersion("r"); v != 1 {
		t.Fatalf("version after compaction = %d, want 1 (a version never goes back)", v)
	}
	if cur, _ := cat.Run("r"); cur != served {
		t.Fatal("compaction replaced the served run")
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Appends) != 0 {
		t.Fatalf("appends after compaction = %v, want empty", snap.Appends)
	}

	// Growth continues on the folded base.
	b1, err := DecodeBatch(spec, batchJSONs[1])
	if err != nil {
		t.Fatal(err)
	}
	res, err := cat.AppendEdges("r", b1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || res.Run.NumNodes() != n {
		t.Fatalf("post-compaction append = version %d, %d nodes", res.Version, res.Run.NumNodes())
	}

	// Restart: the folded base plus the one new batch reproduce the run.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat2, err := NewCatalogFromStore(st2, CatalogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	restored, _ := cat2.Run("r")
	if !bytes.Equal(mustEncode(t, restored), mustEncode(t, res.Run)) {
		t.Fatal("restart after compaction differs from the served run")
	}
	if v, _ := cat2.RunVersion("r"); v != 2 {
		t.Fatalf("restored version = %d, want 2 (one folded batch + one logged)", v)
	}
	// A restart straight after a compaction — nothing in the log — restores
	// the folded count alone.
	if v, err := cat2.CompactRun("r"); err != nil || v != 2 {
		t.Fatalf("second CompactRun = version %d, %v", v, err)
	}
	st3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat3, err := NewCatalogFromStore(st3, CatalogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := cat3.RunVersion("r"); v != 2 {
		t.Fatalf("version after compaction + restart = %d, want 2", v)
	}
}

// TestAppendEdgesCASAcrossCompaction: the idempotency guard holds across a
// compaction. A client whose append at expected version 0 committed, and
// whose retry arrives after the run was compacted, must still be refused: a
// version the compaction took back to 0 would let the retry double-apply.
func TestAppendEdgesCASAcrossCompaction(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := introSpec(t)
	run, err := spec.Derive(DeriveOptions{Seed: 29, TargetEdges: 100})
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(CatalogOptions{Store: st})
	if err := cat.RegisterSpec("wf", spec); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("r", "wf", run); err != nil {
		t.Fatal(err)
	}
	batch := appendEdgesBatch(t, spec, run, 4)
	if _, err := cat.AppendEdgesCAS("r", batch, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CompactRun("r"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AppendEdgesCAS("r", batch, 0); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("retry after compaction = %v, want ErrVersionMismatch", err)
	}
	if cur, _ := cat.Run("r"); cur.NumEdges() != run.NumEdges()+4 {
		t.Fatalf("run has %d edges, want exactly one application of the batch (%d)", cur.NumEdges(), run.NumEdges()+4)
	}
}

// TestAppendEdgesCAS: the version guard commits exactly once — a retry of
// a committed append bounces off the bumped version instead of
// double-applying its edges.
func TestAppendEdgesCAS(t *testing.T) {
	spec := introSpec(t)
	run, err := spec.Derive(DeriveOptions{Seed: 29, TargetEdges: 100})
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(CatalogOptions{})
	if err := cat.RegisterSpec("wf", spec); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("r", "wf", run); err != nil {
		t.Fatal(err)
	}
	batch := appendEdgesBatch(t, spec, run, 4)
	if _, err := cat.AppendEdgesCAS("r", batch, -1); err == nil {
		t.Fatal("negative expected version accepted")
	}
	res, err := cat.AppendEdgesCAS("r", batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 {
		t.Fatalf("version after CAS append = %d", res.Version)
	}
	// The "retry after a timeout" scenario: same batch, same expected
	// version — must be refused, and the run must not gain the edges twice.
	if _, err := cat.AppendEdgesCAS("r", batch, 0); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("replayed CAS append = %v, want ErrVersionMismatch", err)
	}
	cur, _ := cat.Run("r")
	if cur.NumEdges() != run.NumEdges()+4 {
		t.Fatalf("run has %d edges, want exactly one application of the batch (%d)",
			cur.NumEdges(), run.NumEdges()+4)
	}
	if v, _ := cat.RunVersion("r"); v != 1 {
		t.Fatalf("version after refused retry = %d, want 1", v)
	}
	// The next intentional append carries the new version.
	if _, err := cat.AppendEdgesCAS("r", batch, 1); err != nil {
		t.Fatalf("CAS append at current version: %v", err)
	}
}

// TestWedgedStoreSentinelSurvivesCatalog: when an ambiguous commit wedges
// the store, the wedge sentinel must stay matchable with errors.Is through
// the catalog's ErrStoreFailed wrapping. A regression test for the %v
// wraps (caught by provlint's errsentinel) that flattened the chain and
// made callers unable to distinguish "wedged, reopen to recover" from any
// other persistence failure.
func TestWedgedStoreSentinelSurvivesCatalog(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := introSpec(t)
	full, err := spec.Derive(DeriveOptions{Seed: 31, TargetEdges: 100})
	if err != nil {
		t.Fatal(err)
	}
	n := full.NumNodes()
	baseJSON, batchJSONs := splitEncodedRun(t, mustEncode(t, full), []int{n / 3, 2 * n / 3, n})
	base, err := DecodeRun(spec, baseJSON)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(CatalogOptions{Store: st})
	if err := cat.RegisterSpec("wf", spec); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("r", "wf", base); err != nil {
		t.Fatal(err)
	}
	batch1, err := DecodeBatch(spec, batchJSONs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Wedge the store: a failing parent-directory fsync after the rename
	// is an ambiguous commit.
	fail := true
	orig := store.FsyncDir
	store.FsyncDir = func(d string) error {
		if fail {
			return fmt.Errorf("injected fsync failure")
		}
		return orig(d)
	}
	defer func() { store.FsyncDir = orig }()
	if _, err := cat.AppendEdges("r", batch1); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("append with failing dir fsync = %v, want ErrStoreFailed", err)
	}
	fail = false

	// The wedge latched; retrying the batch must surface the wedge
	// sentinel through both wrapping layers.
	_, err = cat.AppendEdges("r", batch1)
	if !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("append on wedged store = %v, want ErrStoreFailed in the chain", err)
	}
	if !errors.Is(err, store.ErrWedged) {
		t.Fatalf("append on wedged store = %v, want store.ErrWedged to survive the catalog wrap", err)
	}
}
