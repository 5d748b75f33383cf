package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"provrpq"
	"provrpq/internal/workload"
)

// The wire shapes as they were when encoding/json wrote them by reflection:
// the reference the pair encoder must match byte for byte.
type (
	oldPair struct {
		From string `json:"from"`
		To   string `json:"to"`
	}
	oldEvaluate struct {
		Run      string     `json:"run"`
		Query    string     `json:"query"`
		Safe     bool       `json:"safe"`
		Strategy string     `json:"strategy"`
		Count    int        `json:"count"`
		Total    int        `json:"total"`
		Offset   int        `json:"offset,omitempty"`
		Pairs    *[]oldPair `json:"pairs,omitempty"`
	}
	oldBatchItem struct {
		Run   string    `json:"run"`
		Query string    `json:"query"`
		Count int       `json:"count"`
		Pairs []oldPair `json:"pairs,omitempty"`
		Error string    `json:"error,omitempty"`
	}
	oldBatch struct {
		Results []oldBatchItem `json:"results"`
	}
	oldSnapshot struct {
		Run     string    `json:"run"`
		Query   string    `json:"query"`
		Version int       `json:"version"`
		Total   int       `json:"total"`
		Pairs   []oldPair `json:"pairs"`
	}
	oldDelta struct {
		Run           string    `json:"run"`
		Version       int       `json:"version"`
		AppendedNodes int       `json:"appended_nodes"`
		AppendedEdges int       `json:"appended_edges"`
		Count         int       `json:"count"`
		Pairs         []oldPair `json:"pairs"`
	}
)

func oldPairs(run *provrpq.Run, pairs []provrpq.Pair) []oldPair {
	out := make([]oldPair, len(pairs))
	for i, p := range pairs {
		out[i] = oldPair{From: run.NodeName(p.From), To: run.NodeName(p.To)}
	}
	return out
}

func oldEncode(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func oldFrame(t testing.TB, event string, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Appendf(nil, "event: %s\ndata: %s\n\n", event, b)
}

// namedRun is a small intro run uploaded with its first nodes renamed; nil
// when the names collide (with each other or a remaining node's), which an
// upload rejects.
func namedRun(t testing.TB, spec *provrpq.Spec, names ...string) *provrpq.Run {
	t.Helper()
	base, err := spec.Derive(provrpq.DeriveOptions{Seed: 3, TargetEdges: 30})
	if err != nil {
		t.Fatal(err)
	}
	data, err := provrpq.EncodeRun(base)
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Nodes []map[string]any `json:"nodes"`
		Edges json.RawMessage  `json:"edges"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		payload.Nodes[i]["name"] = name
	}
	if data, err = json.Marshal(payload); err != nil {
		t.Fatal(err)
	}
	run, err := provrpq.DecodeRun(spec, data)
	if err != nil {
		return nil
	}
	return run
}

// checkEncodings compares every place a pair list is written — an evaluate
// response (whole, paged and empty), a batch item, the watch snapshot and a
// delta frame — with encoding/json's rendering of the old shapes.
func checkEncodings(t testing.TB, run *provrpq.Run) {
	t.Helper()
	ctx := context.Background()
	eng, q := provrpq.NewEngine(run), provrpq.MustParseQuery("_*")
	for _, w := range [][2]int{{0, -1}, {3, 4}, {1 << 20, -1}, {2, 0}} {
		rows, rep, err := eng.EvaluateRows(ctx, q, w[0], w[1])
		if err != nil {
			t.Fatal(err)
		}
		pairs := oldPairs(run, rows.Pairs())
		same := func(what string, got *pairWriter, tail string, want []byte) {
			t.Helper()
			if err := got.rows(ctx, rows); err != nil {
				t.Fatal(err)
			}
			if got := append(got.buf, tail...); !bytes.Equal(got, want) {
				t.Fatalf("%s, window %v:\n got %s\nwant %s", what, w, got, want)
			}
		}
		same("evaluate", &pairWriter{run: run, buf: appendHead(nil, evaluateResponse{
			Run: "r", Query: q.String(), Safe: rep.Safe, Strategy: strategyName(rep), Count: rows.Total(), Total: rows.Total(), Offset: w[0],
		})}, "\n", oldEncode(t, oldEvaluate{
			Run: "r", Query: q.String(), Safe: rep.Safe, Strategy: strategyName(rep), Count: rows.Total(), Total: rows.Total(), Offset: w[0], Pairs: &pairs,
		}))
		same("snapshot", sseFrame("snapshot", run, watchSnapshotEvent{Run: "r", Query: q.String(), Version: 7, Total: rows.Total()}),
			"\n\n", oldFrame(t, "snapshot", oldSnapshot{Run: "r", Query: q.String(), Version: 7, Total: rows.Total(), Pairs: pairs}))
		if len(pairs) > 0 { // an empty list is left out of a batch item
			same("batch item", &pairWriter{run: run, buf: appendHead(nil, batchItem{Run: "r", Query: q.String(), Count: rows.Total()})},
				"\n", oldEncode(t, oldBatchItem{Run: "r", Query: q.String(), Count: rows.Total(), Pairs: pairs}))
		}
		delta := sseFrame("delta", run, watchDeltaEvent{Run: "r", Version: 8, AppendedNodes: 2, AppendedEdges: 3, Count: len(pairs)})
		delta.pairs(rows.Pairs())
		want := oldFrame(t, "delta", oldDelta{Run: "r", Version: 8, AppendedNodes: 2, AppendedEdges: 3, Count: len(pairs), Pairs: pairs})
		if got := append(delta.buf, "\n\n"...); !bytes.Equal(got, want) {
			t.Fatalf("delta, window %v:\n got %s\nwant %s", w, got, want)
		}
	}
}

// hostileNames are node names encoding/json does not copy through as they are.
var hostileNames = []string{
	`say "hi"`, `back\slash`, "<script>", "a&b>c", "tab\there", "nul\x00", "line\nfeed", "del\x7f",
	"sep\u2028and\u2029", "bad\xff\xfeutf8", "trunc\xe2\x82", "", "naïve", "日本語", "🙂", "plain:1",
}

// TestPairEncoderMatchesEncodingJSON: with hostile node names in the run, the
// encoder's bytes are encoding/json's — at the encoder, and on the wire of
// /v1/evaluate (whole, paged, count_only) and /v1/batch (pair lists, count_only,
// a failing cell).
func TestPairEncoderMatchesEncodingJSON(t *testing.T) {
	spec := introSpec(t)
	run := namedRun(t, spec, hostileNames...)
	if run == nil {
		t.Fatal("the hostile names collide")
	}
	checkEncodings(t, run)

	cat, c := newService(t, Options{})
	if err := cat.RegisterSpec("intro", spec); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("r", "intro", run); err != nil {
		t.Fatal(err)
	}
	post := func(path, body string) []byte {
		t.Helper()
		resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s %s = %d, %v: %s", path, body, resp.StatusCode, err, raw)
		}
		return raw
	}
	eng, err := cat.Engine("r")
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range []string{"_*", "_*.s._*", "a1.(_*.s._*)"} {
		q := provrpq.MustParseQuery(qs)
		all, rep, err := eng.EvaluatePlanned(q)
		if err != nil {
			t.Fatal(err)
		}
		head := oldEvaluate{Run: "r", Query: q.String(), Safe: rep.Safe, Strategy: strategyName(rep), Count: len(all), Total: len(all)}
		whole, page, none := oldPairs(run, all), oldPairs(run, all[min(2, len(all)):min(7, len(all))]), []oldPair{}
		for _, c := range []struct {
			args   string
			offset int
			pairs  *[]oldPair
		}{{"", 0, &whole}, {`,"limit":5,"offset":2`, 2, &page}, {`,"limit":0`, 0, &none}, {`,"offset":99999`, 99999, &none}, {`,"count_only":true,"offset":4`, 4, nil}} {
			want := head
			want.Offset, want.Pairs = c.offset, c.pairs
			got := post("/v1/evaluate", fmt.Sprintf(`{"run":"r","query":%q%s}`, qs, c.args))
			if !bytes.Equal(got, oldEncode(t, want)) {
				t.Errorf("evaluate %s%s:\n got %s\nwant %s", qs, c.args, got, oldEncode(t, want))
			}
		}
	}
	all, err := eng.Evaluate(provrpq.MustParseQuery("_*"))
	if err != nil {
		t.Fatal(err)
	}
	missing := oldBatchItem{Run: "ghost", Query: "_*", Error: `provrpq: catalog: unknown run "ghost"`}
	nothing := oldBatchItem{Run: "r", Query: "tool1.tool1"}
	for _, c := range []struct {
		body string
		want oldBatch
	}{
		{`{"runs":["r","ghost"],"queries":["_*","tool1.tool1"]}`, oldBatch{[]oldBatchItem{
			{Run: "r", Query: "_*", Count: len(all), Pairs: oldPairs(run, all)}, nothing, missing, {Run: "ghost", Query: "tool1.tool1", Error: missing.Error}}}},
		{`{"runs":["r"],"queries":["_*"],"count_only":true}`, oldBatch{[]oldBatchItem{{Run: "r", Query: "_*", Count: len(all)}}}},
	} {
		if got := post("/v1/batch", c.body); !bytes.Equal(got, oldEncode(t, c.want)) {
			t.Errorf("batch %s:\n got %s\nwant %s", c.body, got, oldEncode(t, c.want))
		}
	}
}

// FuzzPairEncoderMatchesEncodingJSON: whatever two node names a run carries —
// quotes, backslashes, HTML characters, controls, U+2028/2029, invalid UTF-8,
// the empty string — every pair list is written as encoding/json writes it.
func FuzzPairEncoderMatchesEncodingJSON(f *testing.F) {
	for i := 0; i+1 < len(hostileNames); i += 2 {
		f.Add(hostileNames[i], hostileNames[i+1])
	}
	spec := introSpec(f)
	f.Fuzz(func(t *testing.T, a, b string) {
		if run := namedRun(t, spec, a, b); run != nil {
			checkEncodings(t, run)
		}
	})
}

// denseResult evaluates the read-dense benchmark's densest pool query on its
// run: _*.p6_8._* over the 4K-edge BioAID fixture, 117,827 pairs.
func denseResult(tb testing.TB) (*provrpq.Run, *provrpq.Rows) {
	tb.Helper()
	specJSON, err := workload.BioAID().Spec.MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	spec := &provrpq.Spec{}
	if err := spec.UnmarshalJSON(specJSON); err != nil {
		tb.Fatal(err)
	}
	run, err := spec.Derive(provrpq.DeriveOptions{Seed: 20150413, TargetEdges: 4000})
	if err != nil {
		tb.Fatal(err)
	}
	rows, _, err := provrpq.NewEngine(run).EvaluateRows(context.Background(), provrpq.MustParseQuery("_*.p6_8._*"), 0, -1)
	if err != nil || rows.Total() != 117827 {
		tb.Fatalf("dense fixture: %v, %d pairs, want 117827", err, rows.Total())
	}
	return run, rows
}

// BenchmarkEncodePairs encodes the response of the read-dense benchmark's
// densest pool query (_*.p6_8._* on the 4K-edge BioAID run: 117,827 pairs,
// 4.0 MB) with the pair encoder and, as the reference arm, the way it was
// encoded before: a []struct per pair through encoding/json's reflection.
func BenchmarkEncodePairs(b *testing.B) {
	run, rows := denseResult(b)
	head := evaluateResponse{Run: "bio4k", Query: "_*.p6_8._*", Safe: true, Strategy: "seeded", Count: rows.Total(), Total: rows.Total()}
	b.Run("rows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pw := pairWriter{run: run, buf: appendHead(nil, head)}
			if err := pw.rows(context.Background(), rows); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(pw.buf)))
		}
	})
	b.Run("reflect", func(b *testing.B) {
		b.ReportAllocs()
		pairs := rows.Pairs()
		for i := 0; i < b.N; i++ {
			pj := oldPairs(run, pairs)
			out := oldEncode(b, oldEvaluate{Run: head.Run, Query: head.Query, Safe: true, Strategy: head.Strategy, Count: head.Count, Total: head.Total, Pairs: &pj})
			b.SetBytes(int64(len(out)))
		}
	})
}
