package provrpq

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"provrpq/internal/derive"
	"provrpq/internal/store"
)

// legacyJSONDir hand-builds a pre-columnar (PR-5-era) data directory:
// JSON run bases, a JSON growth batch in the append log and a compaction
// epoch above zero. Returns the
// directory and the expected final state of each run (base + replayed
// growth), built independently of the store.
func legacyJSONDir(t *testing.T) (string, *Spec, map[string]*Run) {
	t.Helper()
	dir := t.TempDir()
	raw, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := introSpec(t)
	specData, err := sp.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.PutSpec("intro", specData); err != nil {
		t.Fatal(err)
	}

	want := map[string]*Run{}
	encodeJSON := func(r *Run) []byte {
		data, err := derive.EncodeRun(r.r)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	r1, err := sp.Derive(DeriveOptions{Seed: 1, TargetEdges: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.PutRun("r1", "intro", encodeJSON(r1)); err != nil {
		t.Fatal(err)
	}
	// One committed JSON growth batch for r1, exactly as an old build's
	// append log holds it.
	db := derive.Batch{Edges: []derive.Edge{{From: 0, To: 1, Tag: r1.r.Edges[0].Tag}}}
	bdata, err := derive.EncodeBatch(sp.s, db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.AppendRun("r1", bdata); err != nil {
		t.Fatal(err)
	}
	// The expected restored r1: base + replayed batch.
	w1, err := sp.Derive(DeriveOptions{Seed: 1, TargetEdges: 200})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := derive.AppendEdges(w1.r, db); err != nil {
		t.Fatal(err)
	}
	want["r1"] = w1

	// r2 was compacted on the old build: its base sits at epoch 1.
	r2, err := sp.Derive(DeriveOptions{Seed: 2, TargetEdges: 150})
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.PutRun("r2", "intro", encodeJSON(r2)); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.AppendRun("r2", bdata); err != nil {
		t.Fatal(err)
	}
	w2, err := sp.Derive(DeriveOptions{Seed: 2, TargetEdges: 150})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := derive.AppendEdges(w2.r, db); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.CompactRun("r2", encodeJSON(w2)); err != nil {
		t.Fatal(err)
	}
	want["r2"] = w2

	// An old build's manifest has no "folded" key: it kept no record of the
	// batches a compaction folded into a base.
	mpath := filepath.Join(dir, "manifest.json")
	mdata, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]json.RawMessage
	if err := json.Unmarshal(mdata, &man); err != nil {
		t.Fatal(err)
	}
	delete(man, "folded")
	if mdata, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, mdata, 0o644); err != nil {
		t.Fatal(err)
	}

	return dir, sp, want
}

func sameRun(t *testing.T, name string, want, got *Run) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("run %q: (%d,%d) nodes/edges, want (%d,%d)",
			name, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for _, id := range want.AllNodes() {
		if want.NodeName(id) != got.NodeName(id) || want.NodeLabel(id) != got.NodeLabel(id) {
			t.Fatalf("run %q node %d differs: %q/%q vs %q/%q", name, id,
				want.NodeName(id), want.NodeLabel(id), got.NodeName(id), got.NodeLabel(id))
		}
	}
}

// sameAnswers checks that every run of cat answers "_*" exactly like a
// from-scratch engine over the expected run.
func sameAnswers(t *testing.T, cat *Catalog, want map[string]*Run) {
	t.Helper()
	q := MustParseQuery("_*")
	for name, w := range want {
		got, ok := cat.Run(name)
		if !ok {
			t.Fatalf("run %q missing", name)
		}
		sameRun(t, name, w, got)
		eng, err := cat.Engine(name)
		if err != nil {
			t.Fatal(err)
		}
		gotPairs, err := eng.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		wantPairs, err := NewEngine(w).Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotPairs, wantPairs) {
			t.Fatalf("run %q: %d pairs differ from the expected %d", name, len(gotPairs), len(wantPairs))
		}
	}
}

// TestLegacyJSONDirBootsThroughFallback opens a hand-built PR-5-era JSON
// data directory: the bases stay JSON on disk and boot through the
// DecodeRun fallback (replaying the JSON batch) with answers identical to
// a from-scratch build, CompactRun rewrites each base as columnar, and the
// reopen then takes the zero-copy path with the same answers.
func TestLegacyJSONDirBootsThroughFallback(t *testing.T) {
	dir, _, want := legacyJSONDir(t)

	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := NewCatalogFromStore(st, CatalogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := cat.LegacyRunBases(); n != 2 {
		t.Fatalf("LegacyRunBases = %d, want 2", n)
	}
	_, _, bases, _, err := st.st.State()
	if err != nil {
		t.Fatal(err)
	}
	for name, epoch := range map[string]int{"r1": 0, "r2": 1} {
		data, err := st.st.GetRunData(name, bases[name])
		if err != nil {
			t.Fatal(err)
		}
		if bases[name] != epoch || derive.IsColumnar(data) {
			t.Fatalf("run %q: epoch %d columnar=%v after open; opening must not rewrite a base", name, bases[name], derive.IsColumnar(data))
		}
	}
	sameAnswers(t, cat, want)
	if v, _ := cat.RunVersion("r1"); v != 1 {
		t.Fatalf("r1 version = %d, want 1 (replayed batch counts)", v)
	}
	if v, _ := cat.RunVersion("r2"); v != 0 {
		t.Fatalf("r2 version = %d, want 0 (the old build recorded no folded batches)", v)
	}

	for name := range want {
		if _, err := cat.CompactRun(name); err != nil {
			t.Fatal(err)
		}
	}
	_, appends, bases, _, err := st.st.State()
	if err != nil {
		t.Fatal(err)
	}
	for name, epoch := range map[string]int{"r1": 1, "r2": 2} {
		data, err := st.st.GetRunData(name, bases[name])
		if err != nil {
			t.Fatal(err)
		}
		if bases[name] != epoch || appends[name] != 0 || !derive.IsColumnar(data) {
			t.Fatalf("run %q after CompactRun: epoch %d appends %d columnar=%v", name, bases[name], appends[name], derive.IsColumnar(data))
		}
	}

	// An old build that had run its migration left a "format" marker in
	// the manifest; the store must keep opening such a manifest.
	mpath := filepath.Join(dir, "manifest.json")
	mdata, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	mdata = append([]byte(`{"format":1,`), bytes.TrimPrefix(mdata, []byte("{"))...)
	if err := os.WriteFile(mpath, mdata, 0o644); err != nil {
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
	if n := cat2.LegacyRunBases(); n != 0 {
		t.Fatalf("LegacyRunBases after compaction = %d, want 0 (zero-copy boot)", n)
	}
	sameAnswers(t, cat2, want)

	// And growth still works on the converted store: append through a
	// catalog, reboot, replay.
	sp2, _ := cat2.Spec("intro")
	r1, _ := cat2.Run("r1")
	bdata, err := derive.EncodeBatch(sp2.s, derive.Batch{
		Edges: []derive.Edge{{From: 0, To: 2, Tag: r1.r.Edges[0].Tag}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeBatch(sp2, bdata)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cat2.AppendEdges("r1", b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 {
		t.Fatalf("post-compaction append version = %d, want 2 (one folded batch + this one)", res.Version)
	}
	st3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat3, err := NewCatalogFromStore(st3, CatalogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got3, _ := cat3.Run("r1")
	sameRun(t, "r1(regrown)", res.Run, got3)
	if v, _ := cat3.RunVersion("r1"); v != 2 {
		t.Fatalf("r1 version after reboot = %d, want 2", v)
	}
}

// TestColumnarBootMatchesJSONBoot boots one catalog from columnar payloads
// (the native path) and one from the same runs stored as JSON (the legacy
// path) and checks Evaluate, Pairwise and Explain agree everywhere — the
// zero-copy boot is an encoding change, never an answer change.
func TestColumnarBootMatchesJSONBoot(t *testing.T) {
	dir, cat, runNames := durableFixture(t) // columnar-native store

	// A parallel legacy-style boot: decode the JSON re-encoding of each run.
	jsonCat := NewCatalog(CatalogOptions{})
	sp, _ := cat.Spec("intro")
	if err := jsonCat.RegisterSpec("intro", sp); err != nil {
		t.Fatal(err)
	}
	for _, name := range runNames {
		r, _ := cat.Run(name)
		data, err := derive.EncodeRun(r.r)
		if err != nil {
			t.Fatal(err)
		}
		jr, err := DecodeRun(sp, data)
		if err != nil {
			t.Fatal(err)
		}
		if err := jsonCat.AddRun(name, "intro", jr); err != nil {
			t.Fatal(err)
		}
	}

	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	colCat, err := NewCatalogFromStore(st, CatalogOptions{})
	if err != nil {
		t.Fatal(err)
	}

	queries := []*Query{
		MustParseQuery("_*.s._*.publish"),
		MustParseQuery("ingest._*"),
		MustParseQuery("_*.a1._*"), // unsafe: decomposition path
	}
	for _, name := range runNames {
		je, err := jsonCat.Engine(name)
		if err != nil {
			t.Fatal(err)
		}
		ce, err := colCat.Engine(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			jp, jerr := je.Evaluate(q)
			cp, cerr := ce.Evaluate(q)
			if (jerr == nil) != (cerr == nil) {
				t.Fatalf("run %q query %s: errors diverge: %v vs %v", name, q, jerr, cerr)
			}
			if len(jp) != len(cp) {
				t.Fatalf("run %q query %s: %d vs %d pairs", name, q, len(jp), len(cp))
			}
			for i := range jp {
				if jp[i] != cp[i] {
					t.Fatalf("run %q query %s pair %d: %v vs %v", name, q, i, jp[i], cp[i])
				}
			}
			jr, jerr := je.Explain(q)
			cr, cerr := ce.Explain(q)
			if (jerr == nil) != (cerr == nil) {
				t.Fatalf("run %q explain %s: errors diverge: %v vs %v", name, q, jerr, cerr)
			}
			if jerr == nil && (jr.Strategy != cr.Strategy || jr.Safe != cr.Safe) {
				t.Fatalf("run %q explain %s: %+v vs %+v", name, q, jr, cr)
			}
		}
		// Pairwise over every node pair of the smaller run exercises the
		// byte-path decoder against the materialized-label path.
		jrun, _ := jsonCat.Run(name)
		q := queries[0]
		nodes := jrun.AllNodes()
		if len(nodes) > 40 {
			nodes = nodes[:40]
		}
		for _, u := range nodes {
			for _, v := range nodes {
				jok, jerr := je.Pairwise(q, u, v)
				cok, cerr := ce.Pairwise(q, u, v)
				if (jerr == nil) != (cerr == nil) || jok != cok {
					t.Fatalf("run %q Pairwise(%s,%d,%d): %v/%v vs %v/%v", name, q, u, v, jok, jerr, cok, cerr)
				}
			}
		}
	}
}
