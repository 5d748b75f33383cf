package derive

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"provrpq/internal/label"
	"provrpq/internal/wf"
)

// reencode recomputes a tampered payload's checksum so decoder tests hit
// the structural validation they target instead of the checksum gate.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.Checksum(out[:len(out)-4], crc32.MakeTable(crc32.Castagnoli)))
	return out
}

func bigRun(t *testing.T) *Run {
	t.Helper()
	r, err := Derive(wf.PaperSpec(), Options{Seed: 7, TargetEdges: 2000})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	return r
}

// runsEqual compares two runs structurally: nodes (module, name, label)
// and edges.
func runsEqual(t *testing.T, a, b *Run) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: %d/%d nodes, %d/%d edges", a.NumNodes(), b.NumNodes(), a.NumEdges(), b.NumEdges())
	}
	for i := range a.Nodes {
		if a.Nodes[i].Module != b.Nodes[i].Module || a.Nodes[i].Name != b.Nodes[i].Name {
			t.Fatalf("node %d: %v/%q vs %v/%q", i, a.Nodes[i].Module, a.Nodes[i].Name, b.Nodes[i].Module, b.Nodes[i].Name)
		}
		if !label.Equal(a.Label(NodeID(i)), b.Label(NodeID(i))) {
			t.Fatalf("node %d label: %s vs %s", i, a.Label(NodeID(i)), b.Label(NodeID(i)))
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d: %+v vs %+v", i, a.Edges[i], b.Edges[i])
		}
	}
}

func TestColumnarRoundTrip(t *testing.T) {
	spec := wf.PaperSpec()
	r := bigRun(t)
	data, err := EncodeColumnar(r)
	if err != nil {
		t.Fatalf("EncodeColumnar: %v", err)
	}
	if !IsColumnar(data) {
		t.Fatalf("EncodeColumnar payload not recognized as columnar")
	}
	for _, decode := range []struct {
		name string
		fn   func(*wf.Spec, []byte) (*Run, error)
	}{{"DecodeColumnar", DecodeColumnar}, {"OpenColumnar", OpenColumnar}} {
		got, err := decode.fn(spec, data)
		if err != nil {
			t.Fatalf("%s: %v", decode.name, err)
		}
		runsEqual(t, r, got)
		// Name-addressed lookup and adjacency work (lazily for Open).
		for i := range r.Nodes {
			id, ok := got.NodeByName(r.Nodes[i].Name)
			if !ok || id != NodeID(i) {
				t.Fatalf("%s: NodeByName(%q) = %d,%v", decode.name, r.Nodes[i].Name, id, ok)
			}
			if len(got.Out(NodeID(i))) != len(r.Out(NodeID(i))) || len(got.In(NodeID(i))) != len(r.In(NodeID(i))) {
				t.Fatalf("%s: node %d adjacency mismatch", decode.name, i)
			}
		}
	}
}

// TestColumnarJSONByteIdentity is the format's codec-fidelity property:
// encoding a JSON-decoded run as columnar, reopening it, and re-encoding
// as JSON yields byte-identical JSON.
func TestColumnarJSONByteIdentity(t *testing.T) {
	spec := wf.PaperSpec()
	r := bigRun(t)
	jsonData, err := EncodeRun(r)
	if err != nil {
		t.Fatalf("EncodeRun: %v", err)
	}
	jr, err := DecodeRun(spec, jsonData)
	if err != nil {
		t.Fatalf("DecodeRun: %v", err)
	}
	col, err := EncodeColumnar(jr)
	if err != nil {
		t.Fatalf("EncodeColumnar: %v", err)
	}
	cr, err := OpenColumnar(spec, col)
	if err != nil {
		t.Fatalf("OpenColumnar: %v", err)
	}
	jsonAgain, err := EncodeRun(cr)
	if err != nil {
		t.Fatalf("EncodeRun(columnar-opened): %v", err)
	}
	if !bytes.Equal(jsonData, jsonAgain) {
		t.Fatalf("JSON -> columnar -> JSON is not byte-identical (%d vs %d bytes)", len(jsonData), len(jsonAgain))
	}
	// And the columnar encoding itself is deterministic.
	col2, err := EncodeColumnar(cr)
	if err != nil {
		t.Fatalf("EncodeColumnar(reopened): %v", err)
	}
	if !bytes.Equal(col, col2) {
		t.Fatalf("columnar re-encode is not byte-identical")
	}
}

func TestColumnarBatchRoundTrip(t *testing.T) {
	spec := wf.PaperSpec()
	b := Batch{
		Nodes: []Node{{Module: 0, Name: "x:extra", Label: label.Label{label.Prod(0, 0), label.Rec(0, 0, 3)}}},
		// Endpoints deliberately reference the (future) grown run, beyond
		// any batch-local range.
		Edges: []Edge{{From: 2, To: 100, Tag: "b"}},
	}
	data, err := EncodeBatchColumnar(spec, b)
	if err != nil {
		t.Fatalf("EncodeBatchColumnar: %v", err)
	}
	got, err := DecodeBatch(spec, data) // sniffs -> DecodeBatchColumnar
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(got.Nodes) != 1 || got.Nodes[0].Name != "x:extra" || !label.Equal(got.Nodes[0].Label, b.Nodes[0].Label) {
		t.Fatalf("batch nodes differ: %+v", got.Nodes)
	}
	if len(got.Edges) != 1 || got.Edges[0] != b.Edges[0] {
		t.Fatalf("batch edges differ: %+v", got.Edges)
	}
	// A run payload must not decode as a batch and vice versa.
	if _, err := DecodeBatchColumnar(spec, mustEncodeColumnar(t, bigRun(t))); err == nil {
		t.Fatalf("DecodeBatchColumnar accepted a run payload")
	}
	if _, err := DecodeColumnar(spec, data); err == nil {
		t.Fatalf("DecodeColumnar accepted a batch payload")
	}
}

func mustEncodeColumnar(t *testing.T, r *Run) []byte {
	t.Helper()
	data, err := EncodeColumnar(r)
	if err != nil {
		t.Fatalf("EncodeColumnar: %v", err)
	}
	return data
}

func TestColumnarDecodeErrors(t *testing.T) {
	spec := wf.PaperSpec()
	data := mustEncodeColumnar(t, paperRun(t))

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, 8, colHeaderSize, len(data) / 2, len(data) - 1} {
			if _, err := DecodeColumnar(spec, data[:n]); err == nil {
				t.Errorf("decode of %d/%d bytes succeeded", n, len(data))
			}
		}
	})
	t.Run("bit-flip", func(t *testing.T) {
		// Any single corrupted byte must fail the checksum.
		for _, off := range []int{0, 5, colHeaderSize + 1, len(data) / 2, len(data) - 5} {
			bad := append([]byte(nil), data...)
			bad[off] ^= 0x40
			if _, err := DecodeColumnar(spec, bad); err == nil {
				t.Errorf("decode with corrupt byte %d succeeded", off)
			}
		}
	})
	t.Run("checksum-names-cause", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[len(bad)-1] ^= 1
		_, err := DecodeColumnar(spec, bad)
		if err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Errorf("err = %v, want checksum mismatch", err)
		}
	})
	t.Run("resealed-structural", func(t *testing.T) {
		// A payload with a *valid* checksum but hostile contents must be
		// rejected by structural validation, on both decode paths.
		cases := []func([]byte){
			func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 1<<30) },        // node count
			func(b []byte) { binary.LittleEndian.PutUint32(b[16:], 1<<30) },        // edge count
			func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 99) },            // version
			func(b []byte) { binary.LittleEndian.PutUint32(b[28:], 7) },            // reserved
			func(b []byte) { binary.LittleEndian.PutUint32(b[colHeaderSize:], 9) }, // module dict offs[0]
		}
		for i, mutate := range cases {
			bad := append([]byte(nil), data...)
			mutate(bad)
			bad = reseal(bad)
			if _, err := DecodeColumnar(spec, bad); err == nil {
				t.Errorf("case %d: strict decode accepted a resealed hostile payload", i)
			}
			if _, err := OpenColumnar(spec, bad); err == nil {
				t.Errorf("case %d: trusted open accepted a resealed hostile payload", i)
			}
		}
	})
	t.Run("unknown-module", func(t *testing.T) {
		// Corrupt the module dictionary blob's first byte (module names sit
		// right after the dict offsets) and reseal.
		r := paperRun(t)
		enc := mustEncodeColumnar(t, r)
		// module dict: offsets at colHeaderSize, blob after.
		nmods := int(binary.LittleEndian.Uint32(enc[20:]))
		blobOff := colHeaderSize + 4*(nmods+1)
		bad := append([]byte(nil), enc...)
		bad[blobOff] = 'Z'
		bad = reseal(bad)
		_, err := DecodeColumnar(spec, bad)
		if err == nil || !strings.Contains(err.Error(), "unknown module") {
			t.Errorf("err = %v, want unknown module", err)
		}
	})
	t.Run("duplicate-name-strict-only", func(t *testing.T) {
		// Two nodes sharing a name: strict decode rejects (the PR-3
		// shadowing fix), trusted open defers the map and accepts.
		r, err := Derive(wf.PaperSpec(), Options{Policy: scriptW2W2W3})
		if err != nil {
			t.Fatalf("Derive: %v", err)
		}
		r.Nodes[1].Name = r.Nodes[0].Name
		r.byName = nil
		r.buildByName()
		enc := mustEncodeColumnar(t, r)
		if _, err := DecodeColumnar(spec, enc); err == nil || !strings.Contains(err.Error(), "duplicate node name") {
			t.Errorf("strict decode: err = %v, want duplicate node name", err)
		}
		if _, err := OpenColumnar(spec, enc); err != nil {
			t.Errorf("trusted open: %v", err)
		}
	})
}

func TestColumnarLabelColumnValidation(t *testing.T) {
	spec := wf.PaperSpec()
	// A label entry referencing a production out of range must be rejected
	// even with a valid checksum.
	r, err := Derive(spec, Options{Policy: scriptW2W2W3})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	r.Nodes[3].Label = label.Label{label.Prod(99, 0)}
	r.labelCol, r.labelOffs = nil, nil
	r.buildLabelColumn()
	enc := mustEncodeColumnar(t, r)
	for _, decode := range []func(*wf.Spec, []byte) (*Run, error){DecodeColumnar, OpenColumnar} {
		if _, err := decode(spec, enc); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("err = %v, want label entry out of range", err)
		}
	}
}

func TestColumnarOpenThenAppendAndGrow(t *testing.T) {
	spec := wf.PaperSpec()
	r := paperRun(t)
	opened, err := OpenColumnar(spec, mustEncodeColumnar(t, r))
	if err != nil {
		t.Fatalf("OpenColumnar: %v", err)
	}
	base := opened.NumNodes()
	batch := Batch{
		Nodes: []Node{{Module: opened.Nodes[0].Module, Name: "fresh:1", Label: opened.Label(0).Clone()}},
		Edges: []Edge{{From: 0, To: NodeID(base), Tag: "b"}},
	}
	// Grow must not disturb the opened parent.
	colBefore := append([]byte(nil), opened.labelCol...)
	grown, _, err := opened.Grow(batch)
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if grown.NumNodes() != base+1 || grown.NumEdges() != opened.NumEdges()+1 {
		t.Fatalf("grown shape: %d nodes %d edges", grown.NumNodes(), grown.NumEdges())
	}
	if !bytes.Equal(colBefore, opened.labelCol) {
		t.Fatalf("Grow mutated the parent's label column")
	}
	if id, ok := grown.NodeByName("fresh:1"); !ok || id != NodeID(base) {
		t.Fatalf("grown NodeByName(fresh:1) = %d,%v", id, ok)
	}
	if !label.Equal(grown.Label(NodeID(base)), batch.Nodes[0].Label) {
		t.Fatalf("grown label mismatch")
	}
	// And a grown columnar run re-encodes cleanly.
	re, err := DecodeColumnar(spec, mustEncodeColumnar(t, grown))
	if err != nil {
		t.Fatalf("re-decode grown: %v", err)
	}
	runsEqual(t, grown, re)

	// In-place append on a freshly opened run also works (boot replay path).
	opened2, err := OpenColumnar(spec, mustEncodeColumnar(t, r))
	if err != nil {
		t.Fatalf("OpenColumnar: %v", err)
	}
	if _, err := AppendEdges(opened2, batch); err != nil {
		t.Fatalf("AppendEdges: %v", err)
	}
	runsEqual(t, grown, opened2)
}

// TestColumnarEmptyLabels checks the nil-vs-empty label distinction
// survives the column: the derivation root has an empty (zero-entry)
// label, which must stay len-0 across the round trip.
func TestColumnarEmptyLabels(t *testing.T) {
	spec := wf.PaperSpec()
	r := paperRun(t)
	found := false
	for i := range r.Nodes {
		if len(r.Nodes[i].Label) == 0 {
			found = true
		}
	}
	if !found {
		t.Skip("no empty-label node in fixture")
	}
	got, err := OpenColumnar(spec, mustEncodeColumnar(t, r))
	if err != nil {
		t.Fatalf("OpenColumnar: %v", err)
	}
	for i := range r.Nodes {
		if len(r.Nodes[i].Label) == 0 && len(got.Label(NodeID(i))) != 0 {
			t.Fatalf("node %d: empty label decoded as %s", i, got.Label(NodeID(i)))
		}
	}
}

func FuzzDecodeColumnar(f *testing.F) {
	spec := wf.PaperSpec()
	r, err := Derive(spec, Options{Seed: 1, TargetEdges: 40})
	if err != nil {
		f.Fatalf("Derive: %v", err)
	}
	seed, err := EncodeColumnar(r)
	if err != nil {
		f.Fatalf("EncodeColumnar: %v", err)
	}
	f.Add(seed)
	f.Add([]byte(colMagic))
	f.Add(reseal(append(append([]byte(colMagic), make([]byte, colHeaderSize-4)...), 0, 0, 0, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; on success the run must be internally
		// consistent enough to re-encode.
		r, err := DecodeColumnar(spec, data)
		if err != nil {
			return
		}
		if _, err := EncodeColumnar(r); err != nil {
			t.Fatalf("re-encode of accepted payload failed: %v", err)
		}
		if _, err := OpenColumnar(spec, data); err != nil {
			t.Fatalf("strict decode accepted but trusted open rejected: %v", err)
		}
	})
}

// ---- benchmarks backing the boot-speed claim at the codec level ----

func benchRun(b *testing.B, edges int) *Run {
	b.Helper()
	r, err := Derive(wf.PaperSpec(), Options{Seed: 42, TargetEdges: edges})
	if err != nil {
		b.Fatalf("Derive: %v", err)
	}
	return r
}

func BenchmarkDecodeRunJSON(b *testing.B) {
	r := benchRun(b, 100000)
	data, err := EncodeRun(r)
	if err != nil {
		b.Fatalf("EncodeRun: %v", err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRun(wf.PaperSpec(), data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenColumnar(b *testing.B) {
	r := benchRun(b, 100000)
	data, err := EncodeColumnar(r)
	if err != nil {
		b.Fatalf("EncodeColumnar: %v", err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OpenColumnar(wf.PaperSpec(), data); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = fmt.Sprintf // keep fmt linked for debug edits

// TestLabelsOfMatchesLabel: the bulk decode of a node list — with repeats,
// over a columnar-opened run grown by one materialized node — yields what
// Label yields node by node, and MaterializeLabels is LabelsOf every node.
func TestLabelsOfMatchesLabel(t *testing.T) {
	spec := wf.PaperSpec()
	opened, err := OpenColumnar(spec, mustEncodeColumnar(t, paperRun(t)))
	if err != nil {
		t.Fatalf("OpenColumnar: %v", err)
	}
	base := opened.NumNodes()
	grown, _, err := opened.Grow(Batch{
		Nodes: []Node{{Module: opened.Nodes[0].Module, Name: "fresh:1", Label: opened.Label(0).Clone()}},
		Edges: []Edge{{From: 0, To: NodeID(base), Tag: "b"}},
	})
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}
	ids := []NodeID{NodeID(base), 3, 0, 3, NodeID(base - 1)}
	for i, l := range grown.LabelsOf(ids) {
		if !label.Equal(l, grown.Label(ids[i])) {
			t.Errorf("LabelsOf[%d] (node %d) = %v, Label = %v", i, ids[i], l, grown.Label(ids[i]))
		}
	}
	if got := grown.LabelsOf(nil); len(got) != 0 {
		t.Errorf("LabelsOf(nil) = %v", got)
	}
	all := grown.MaterializeLabels()
	if len(all) != grown.NumNodes() {
		t.Fatalf("MaterializeLabels: %d labels for %d nodes", len(all), grown.NumNodes())
	}
	for i, l := range all {
		if !label.Equal(l, grown.Label(NodeID(i))) {
			t.Errorf("MaterializeLabels[%d] = %v, Label = %v", i, l, grown.Label(NodeID(i)))
		}
	}
}
