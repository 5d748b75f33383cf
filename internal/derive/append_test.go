package derive

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"provrpq/internal/label"
	"provrpq/internal/wf"
)

// appendSpec builds a small grammar with a recursion so derived runs have
// non-trivial labels.
func appendSpec(t *testing.T) *wf.Spec {
	t.Helper()
	b := wf.NewBuilder()
	b.Start("S")
	b.Chain("S", "x", "A", "p")
	b.Chain("A", "a1", "A", "s")
	b.Chain("A", "a2", "s")
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// splitRun carves a derived run into a base prefix plus growth batches:
// base = nodes [0,m) with the edges internal to them, then batches of the
// remaining nodes in id order, each carrying every not-yet-placed edge
// whose endpoints exist once the batch's nodes do. Edge order inside each
// part follows the original run's edge order.
func splitRun(r *Run, cuts []int) (*Run, []Batch) {
	base := &Run{Spec: r.Spec}
	base.Nodes = append(base.Nodes, r.Nodes[:cuts[0]]...)
	var batches []Batch
	for i := 1; i < len(cuts); i++ {
		batches = append(batches, Batch{Nodes: append([]Node(nil), r.Nodes[cuts[i-1]:cuts[i]]...)})
	}
	for _, e := range r.Edges {
		hi := e.From
		if e.To > hi {
			hi = e.To
		}
		placed := false
		for i := 1; i < len(cuts); i++ {
			if int(hi) < cuts[i] && int(hi) >= cuts[i-1] {
				batches[i-1].Edges = append(batches[i-1].Edges, e)
				placed = true
				break
			}
		}
		if !placed {
			base.Edges = append(base.Edges, e)
		}
	}
	base.finish()
	return base, batches
}

// TestAppendMatchesFinish is the derive-level incremental-equals-full
// property: splitting a derived run into a base plus random batches and
// appending them back must reproduce the exact run a from-scratch finish()
// over the final node/edge lists builds — labels, names, adjacency and the
// serialized bytes all identical.
func TestAppendMatchesFinish(t *testing.T) {
	spec := appendSpec(t)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		full, err := Derive(spec, Options{Seed: seed, TargetEdges: 40 + rng.Intn(200)})
		if err != nil {
			t.Fatal(err)
		}
		n := full.NumNodes()
		cuts := []int{1 + rng.Intn(n)}
		for cuts[len(cuts)-1] < n {
			next := cuts[len(cuts)-1] + 1 + rng.Intn(n/2+1)
			if next > n {
				next = n
			}
			cuts = append(cuts, next)
		}
		base, batches := splitRun(full, cuts)

		// Reference: the final graph rebuilt from scratch, with the edge
		// order the append path produces (base edges, then each batch's).
		ref := &Run{Spec: spec}
		ref.Nodes = append(ref.Nodes, full.Nodes...)
		ref.Edges = append(ref.Edges, base.Edges...)
		for _, b := range batches {
			ref.Edges = append(ref.Edges, b.Edges...)
		}
		ref.finish()

		for bi, b := range batches {
			stats, err := AppendEdges(base, b)
			if err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, bi, err)
			}
			if stats.NewNodes != len(b.Nodes) || stats.NewEdges != len(b.Edges) {
				t.Fatalf("seed %d batch %d: stats %+v", seed, bi, stats)
			}
			if stats.Touched > len(b.Nodes)+2*len(b.Edges) {
				t.Fatalf("seed %d batch %d: touched %d nodes for a %d-node/%d-edge batch",
					seed, bi, stats.Touched, len(b.Nodes), len(b.Edges))
			}
		}
		if err := sameRun(base, ref); err != nil {
			t.Fatalf("seed %d: append differs from full rebuild: %v", seed, err)
		}
		gotJSON, err := EncodeRun(base)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := EncodeRun(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("seed %d: appended run encodes differently from the full rebuild", seed)
		}
	}
}

// TestGrowLeavesParentIntact: Grow must version, not mutate — the parent
// run stays byte-identical and its adjacency is never written through.
func TestGrowLeavesParentIntact(t *testing.T) {
	spec := appendSpec(t)
	full, err := Derive(spec, Options{Seed: 7, TargetEdges: 120})
	if err != nil {
		t.Fatal(err)
	}
	cut := full.NumNodes() / 2
	base, batches := splitRun(full, []int{cut, full.NumNodes()})
	beforeJSON, err := EncodeRun(base)
	if err != nil {
		t.Fatal(err)
	}
	beforeOut := make([]int, len(base.out))
	for i := range base.out {
		beforeOut[i] = len(base.out[i])
	}

	grown, stats, err := base.Grow(batches[0])
	if err != nil {
		t.Fatal(err)
	}
	if grown.NumNodes() != full.NumNodes() {
		t.Fatalf("grown has %d nodes, want %d", grown.NumNodes(), full.NumNodes())
	}
	if stats.NewNodes == 0 {
		t.Fatalf("stats = %+v, want new nodes", stats)
	}
	afterJSON, err := EncodeRun(base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(beforeJSON, afterJSON) {
		t.Fatal("Grow mutated the parent run's encoding")
	}
	for i := range base.out {
		if len(base.out[i]) != beforeOut[i] {
			t.Fatalf("Grow changed parent adjacency of node %d", i)
		}
	}
	// A second Grow from the same parent must not corrupt the first.
	grown2, _, err := base.Grow(batches[0])
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := EncodeRun(grown)
	j2, _ := EncodeRun(grown2)
	if !bytes.Equal(j1, j2) {
		t.Fatal("two Grows from one parent diverged")
	}
	// New names resolve in the grown version only.
	newName := batches[0].Nodes[0].Name
	if _, ok := base.NodeByName(newName); ok {
		t.Fatalf("parent resolves appended name %q", newName)
	}
	if _, ok := grown.NodeByName(newName); !ok {
		t.Fatalf("grown version cannot resolve appended name %q", newName)
	}
}

// TestAppendRejectsBadBatches: every validation failure must leave the run
// untouched.
func TestAppendRejectsBadBatches(t *testing.T) {
	spec := appendSpec(t)
	run, err := Derive(spec, Options{Seed: 3, TargetEdges: 60})
	if err != nil {
		t.Fatal(err)
	}
	before, err := EncodeRun(run)
	if err != nil {
		t.Fatal(err)
	}
	lab := run.Nodes[len(run.Nodes)-1].Label
	cases := []struct {
		name string
		b    Batch
		want string
	}{
		{"dup name", Batch{Nodes: []Node{{Module: 0, Name: run.Nodes[0].Name, Label: lab}}}, "duplicate node name"},
		{"empty name", Batch{Nodes: []Node{{Module: 0, Name: "", Label: lab}}}, "empty name"},
		{"bad module", Batch{Nodes: []Node{{Module: 99, Name: "fresh:1", Label: lab}}}, "module id"},
		{"bad label", Batch{Nodes: []Node{{Module: 0, Name: "fresh:1", Label: append(lab.Clone(), label.Prod(999, 0))}}}, "label entry"},
		{"edge range", Batch{Edges: []Edge{{From: 0, To: NodeID(run.NumNodes()), Tag: "p"}}}, "out of range"},
		{"edge tag", Batch{Edges: []Edge{{From: 0, To: 1, Tag: "nope"}}}, "alphabet"},
	}
	for _, tc := range cases {
		if _, err := AppendEdges(run, tc.b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	after, err := EncodeRun(run)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a rejected append mutated the run")
	}
}

// TestBatchJSONRoundTrip: the append-log payload decodes back to an equal
// batch, and bad payloads are rejected with positioned errors.
func TestBatchJSONRoundTrip(t *testing.T) {
	spec := appendSpec(t)
	full, err := Derive(spec, Options{Seed: 11, TargetEdges: 80})
	if err != nil {
		t.Fatal(err)
	}
	cut := full.NumNodes() - 3
	base, batches := splitRun(full, []int{cut, full.NumNodes()})
	data, err := EncodeBatch(spec, batches[0])
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBatch(spec, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendEdges(base, back); err != nil {
		t.Fatalf("replayed batch rejected: %v", err)
	}
	gotJSON, _ := EncodeRun(base)
	wantJSON, _ := EncodeRun(full)
	// Same final node set; edge order may differ from the original
	// derivation, so compare node sections and edge count.
	if base.NumNodes() != full.NumNodes() || base.NumEdges() != full.NumEdges() {
		t.Fatalf("replay mismatch: %d/%d nodes, %d/%d edges",
			base.NumNodes(), full.NumNodes(), base.NumEdges(), full.NumEdges())
	}
	_ = gotJSON
	_ = wantJSON

	for _, bad := range []struct{ name, payload, want string }{
		{"module", `{"nodes":[{"name":"n:1","module":"ghost","label":""}]}`, "unknown module"},
		{"base64", `{"nodes":[{"name":"n:1","module":"x","label":"!!!"}]}`, "bad label encoding"},
		{"label", `{"nodes":[{"name":"n:1","module":"x","label":"/w8B"}]}`, "label"},
		// A batch is decoded strictly — a typo'd key must fail loudly, not
		// silently drop half the payload into the permanent append log.
		{"typo", `{"nodes":[],"egdes":[{"From":0,"To":1,"Tag":"p"}]}`, "unknown field"},
		{"trailing", `{"edges":[{"From":0,"To":1,"Tag":"p"}]}{"edges":[]}`, "trailing data"},
	} {
		if _, err := DecodeBatch(spec, []byte(bad.payload)); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("DecodeBatch(%s) err = %v, want %q", bad.name, err, bad.want)
		}
	}
}

// sameRun compares two runs structurally: nodes (module, name, label),
// edges, name table and adjacency.
func sameRun(a, b *Run) error {
	if len(a.Nodes) != len(b.Nodes) || len(a.Edges) != len(b.Edges) {
		return fmt.Errorf("size mismatch: %d/%d nodes, %d/%d edges", len(a.Nodes), len(b.Nodes), len(a.Edges), len(b.Edges))
	}
	for i := range a.Nodes {
		x, y := a.Nodes[i], b.Nodes[i]
		if x.Module != y.Module || x.Name != y.Name || x.Label.String() != y.Label.String() {
			return fmt.Errorf("node %d: %v vs %v", i, x, y)
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return fmt.Errorf("edge %d: %v vs %v", i, a.Edges[i], b.Edges[i])
		}
	}
	if na, nb := len(a.byName)+len(a.nameOverlay), len(b.byName)+len(b.nameOverlay); na != nb {
		return fmt.Errorf("name table size %d vs %d", na, nb)
	}
	for i := range a.Nodes {
		name := a.Nodes[i].Name
		ai, aok := a.NodeByName(name)
		bi, bok := b.NodeByName(name)
		if !aok || !bok || ai != NodeID(i) || bi != NodeID(i) {
			return fmt.Errorf("name %q resolves to (%d,%v) vs (%d,%v), want node %d", name, ai, aok, bi, bok, i)
		}
	}
	for i := range a.out {
		if fmt.Sprint(a.out[i]) != fmt.Sprint(b.out[i]) || fmt.Sprint(a.in[i]) != fmt.Sprint(b.in[i]) {
			return fmt.Errorf("adjacency of node %d differs: out %v/%v in %v/%v", i, a.out[i], b.out[i], a.in[i], b.in[i])
		}
	}
	return nil
}

// TestAppendHubStreamAndSiblingSafety streams many tiny batches that all
// attach to one hub node — the ownership tracking must keep the hub's
// list correct across plain (amortized) appends — and interleaves Grow
// clones to pin the subtle case: a parent extending an owned list's spare
// capacity that a clone's slice header still references must never change
// what the clone reads.
func TestAppendHubStreamAndSiblingSafety(t *testing.T) {
	spec := appendSpec(t)
	run, err := Derive(spec, Options{Seed: 41, TargetEdges: 60})
	if err != nil {
		t.Fatal(err)
	}
	tag := spec.Tags()[0]
	hub := NodeID(0)
	edgeAt := func(i int) Edge {
		return Edge{From: hub, To: NodeID(1 + i%(run.NumNodes()-1)), Tag: tag}
	}

	var clone *Run
	var cloneJSON []byte
	const stream = 300
	for i := 0; i < stream; i++ {
		if _, err := AppendEdges(run, Batch{Edges: []Edge{edgeAt(i)}}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if i == stream/2 {
			// Clone mid-stream: the parent keeps appending into backing
			// the clone's headers still reference.
			clone, _, err = run.Grow(Batch{Edges: []Edge{edgeAt(i + 1)}})
			if err != nil {
				t.Fatal(err)
			}
			cloneJSON, err = EncodeRun(clone)
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	// The streamed run equals a from-scratch rebuild of its final lists.
	ref := &Run{Spec: spec}
	ref.Nodes = append(ref.Nodes, run.Nodes...)
	ref.Edges = append(ref.Edges, run.Edges...)
	ref.finish()
	if err := sameRun(run, ref); err != nil {
		t.Fatalf("hub stream diverged from full rebuild: %v", err)
	}

	// The clone is byte-identical to its snapshot, and its adjacency still
	// matches a rebuild of its own edge list.
	afterJSON, err := EncodeRun(clone)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cloneJSON, afterJSON) {
		t.Fatal("parent's later appends changed the clone's encoding")
	}
	cref := &Run{Spec: spec}
	cref.Nodes = append(cref.Nodes, clone.Nodes...)
	cref.Edges = append(cref.Edges, clone.Edges...)
	cref.finish()
	if err := sameRun(clone, cref); err != nil {
		t.Fatalf("clone diverged from full rebuild: %v", err)
	}
	// And the clone can keep growing independently.
	if _, err := AppendEdges(clone, Batch{Edges: []Edge{edgeAt(7)}}); err != nil {
		t.Fatal(err)
	}
}

// TestColumnarAdjacencyAndSiblingGrows: a columnar-opened run builds the
// adjacency its derived original holds, every list carved out of one shared
// backing array; an AppendEdges onto it and then two sibling Grows that both
// extend one mid-backing list leave every version's lists independent.
func TestColumnarAdjacencyAndSiblingGrows(t *testing.T) {
	spec := appendSpec(t)
	full, err := Derive(spec, Options{Seed: 43, TargetEdges: 200})
	if err != nil {
		t.Fatal(err)
	}
	cut := full.NumNodes() / 2
	base, batches := splitRun(full, []int{cut, full.NumNodes()})
	data, err := EncodeColumnar(base)
	if err != nil {
		t.Fatal(err)
	}
	col, err := OpenColumnar(spec, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAdj(col, base); err != nil {
		t.Fatalf("columnar-opened run: %v", err)
	}
	if _, err := AppendEdges(col, batches[0]); err != nil {
		t.Fatal(err)
	}
	if err := sameAdj(col, rebuilt(col)); err != nil {
		t.Fatalf("after AppendEdges: %v", err)
	}

	// hub's lists sit mid-backing: an in-place append would overwrite its
	// neighbours' first entries.
	hub := base.Edges[len(base.Edges)/2].From
	tag := spec.Tags()[0]
	var kids [2]*Run
	for i := range kids {
		b := Batch{Edges: []Edge{{From: hub, To: NodeID(i + 1), Tag: tag}, {From: NodeID(i + 2), To: hub, Tag: tag}}}
		if kids[i], _, err = col.Grow(b); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range append([]*Run{col}, kids[:]...) {
		if err := sameAdj(r, rebuilt(r)); err != nil {
			t.Fatalf("version %d after sibling Grows: %v", i, err)
		}
	}
}

// rebuilt returns a run whose adjacency is built from scratch over r's edges.
func rebuilt(r *Run) *Run {
	ref := &Run{Spec: r.Spec, Nodes: r.Nodes, Edges: r.Edges}
	ref.buildAdj()
	return ref
}

// sameAdj compares two runs' adjacency through Out and In.
func sameAdj(a, b *Run) error {
	if a.NumNodes() != b.NumNodes() {
		return fmt.Errorf("%d vs %d nodes", a.NumNodes(), b.NumNodes())
	}
	for n := range a.NumNodes() {
		id := NodeID(n)
		if fmt.Sprint(a.Out(id)) != fmt.Sprint(b.Out(id)) || fmt.Sprint(a.In(id)) != fmt.Sprint(b.In(id)) {
			return fmt.Errorf("node %d: out %v/%v in %v/%v", n, a.Out(id), b.Out(id), a.In(id), b.In(id))
		}
	}
	return nil
}
