package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"provrpq"
)

// ---- 413 request_too_large on every mutating route ----

// TestServerRequestTooLarge is the regression test for the body-limit
// contract: a body exceeding MaxBodyBytes must answer 413 with the
// machine-readable request_too_large code on every mutating route — both
// the io.ReadAll route (append) and the json.Decoder routes — never a
// generic 400/500 a client cannot distinguish from a malformed request.
func TestServerRequestTooLarge(t *testing.T) {
	cat, c := newService(t, Options{MaxBodyBytes: 512})
	// Register the fixture directly — the HTTP bodies for registration
	// would themselves exceed the tiny test limit.
	if err := cat.RegisterSpec("intro", introSpec(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.DeriveRun("run-a", "intro", provrpq.DeriveOptions{Seed: 1, TargetEdges: 120}); err != nil {
		t.Fatal(err)
	}

	// Valid JSON that exceeds the limit: the decoder must hit the byte cap
	// mid-token, not a parse error first.
	big := strings.Repeat("y", 2048)
	oversized := map[string]string{
		"/v1/specs":            fmt.Sprintf(`{"name":"x","spec":%q}`, big),
		"/v1/runs":             fmt.Sprintf(`{"name":"x","spec":%q}`, big),
		"/v1/evaluate":         fmt.Sprintf(`{"run":"run-a","query":%q}`, big),
		"/v1/batch":            fmt.Sprintf(`{"queries":[%q]}`, big),
		"/v1/runs/run-a/edges": fmt.Sprintf(`{"edges":[],"nodes":[{"name":%q}]}`, big),
	}
	for path, body := range oversized {
		resp, err := c.hc.Post(c.base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s oversized = %d, want 413; body: %s", path, resp.StatusCode, raw)
		}
		var errResp struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(raw, &errResp); err != nil {
			t.Fatalf("POST %s oversized: bad error JSON %q: %v", path, raw, err)
		}
		if errResp.Error.Code != "request_too_large" {
			t.Fatalf("POST %s oversized code = %q, want request_too_large", path, errResp.Error.Code)
		}
	}
	// The watch route carries its own (1 MiB) registration-body bound.
	resp, err := c.hc.Post(c.base+"/v1/watch", "application/json",
		strings.NewReader(fmt.Sprintf(`{"run":"run-a","query":%q}`, strings.Repeat("z", 2<<20))))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !bytes.Contains(raw, []byte("request_too_large")) {
		t.Fatalf("oversized watch registration = %d %s, want 413 request_too_large", resp.StatusCode, raw)
	}

	// The server still works at the same limit for reasonable bodies.
	var ev struct {
		Count int `json:"count"`
	}
	c.do("POST", "/v1/evaluate", map[string]any{"run": "run-a", "query": "_*", "count_only": true},
		http.StatusOK, &ev)
	if ev.Count == 0 {
		t.Fatal("small request after 413s returned no matches")
	}
}

// ---- paging boundaries ----

// TestServerEvaluatePagingBoundary pins the wire shape at the window
// edges: an offset at (or past) the end returns a present, empty "pairs"
// array with the true total — never a missing field, null, or an error —
// and a window straddling the end returns exactly the tail.
func TestServerEvaluatePagingBoundary(t *testing.T) {
	_, c := newService(t, Options{})
	registerFixture(t, c)

	var full struct {
		Total int `json:"total"`
	}
	c.do("POST", "/v1/evaluate", map[string]any{"run": "run-a", "query": "_*"}, http.StatusOK, &full)
	if full.Total < 3 {
		t.Fatalf("fixture too small: %d pairs", full.Total)
	}

	// Raw-body checks: json.Unmarshal cannot distinguish absent from empty.
	rawEval := func(body string) []byte {
		t.Helper()
		resp, err := c.hc.Post(c.base+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evaluate %s = %d: %s", body, resp.StatusCode, raw)
		}
		return raw
	}

	// offset == total: the pager's natural last step.
	raw := rawEval(fmt.Sprintf(`{"run":"run-a","query":"_*","offset":%d}`, full.Total))
	if !bytes.Contains(raw, []byte(`"pairs":[]`)) {
		t.Fatalf("offset == total: response %s lacks empty pairs array", raw)
	}
	var atEnd struct {
		Total  int         `json:"total"`
		Count  int         `json:"count"`
		Offset int         `json:"offset"`
		Pairs  *[]struct{} `json:"pairs"`
	}
	if err := json.Unmarshal(raw, &atEnd); err != nil {
		t.Fatal(err)
	}
	if atEnd.Total != full.Total || atEnd.Count != full.Total || atEnd.Offset != full.Total {
		t.Fatalf("offset == total: total %d count %d offset %d, want all %d", atEnd.Total, atEnd.Count, atEnd.Offset, full.Total)
	}
	if atEnd.Pairs == nil || len(*atEnd.Pairs) != 0 {
		t.Fatalf("offset == total: pairs = %v, want present empty array", atEnd.Pairs)
	}

	// offset past the end behaves identically.
	raw = rawEval(fmt.Sprintf(`{"run":"run-a","query":"_*","offset":%d}`, full.Total+10))
	if !bytes.Contains(raw, []byte(`"pairs":[]`)) {
		t.Fatalf("offset past end: response %s lacks empty pairs array", raw)
	}

	// offset+limit straddling the end returns exactly the tail.
	var straddle struct {
		Total int                         `json:"total"`
		Pairs []struct{ From, To string } `json:"pairs"`
	}
	c.do("POST", "/v1/evaluate",
		map[string]any{"run": "run-a", "query": "_*", "offset": full.Total - 1, "limit": 5},
		http.StatusOK, &straddle)
	if len(straddle.Pairs) != 1 || straddle.Total != full.Total {
		t.Fatalf("straddling window: %d pairs (total %d), want exactly the 1-pair tail", len(straddle.Pairs), straddle.Total)
	}

	// count_only still omits the field entirely (the pre-paging shape).
	raw = rawEval(`{"run":"run-a","query":"_*","count_only":true}`)
	if bytes.Contains(raw, []byte(`"pairs"`)) {
		t.Fatalf("count_only: response %s should omit pairs", raw)
	}
}

// ---- NDJSON streaming ingestion ----

// ndjsonOf renders a decoded batch as NDJSON record lines, nodes first (so
// any group boundary leaves edges referencing only already-committed or
// same-group nodes).
func ndjsonOf(t testing.TB, batchJSON []byte) (lines []string, nodes, edges int) {
	t.Helper()
	var b struct {
		Nodes []json.RawMessage `json:"nodes"`
		Edges []json.RawMessage `json:"edges"`
	}
	if err := json.Unmarshal(batchJSON, &b); err != nil {
		t.Fatal(err)
	}
	for _, n := range b.Nodes {
		lines = append(lines, fmt.Sprintf(`{"node":%s}`, n))
	}
	for _, e := range b.Edges {
		lines = append(lines, fmt.Sprintf(`{"edge":%s}`, e))
	}
	return lines, len(b.Nodes), len(b.Edges)
}

// TestServerStreamIngest is the streaming differential: a run streamed as
// NDJSON through size-bounded group commits must answer every query exactly
// like the same graph uploaded whole, and the stream must actually have
// been grouped (multiple batches, version == batches).
func TestServerStreamIngest(t *testing.T) {
	cat, c := newService(t, Options{
		StreamFlushRecords:  7,
		StreamFlushInterval: -1, // size- and EOF-bounded only: deterministic grouping
	})
	specJSON, err := introSpec(t).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	c.do("POST", "/v1/specs", map[string]any{"name": "intro", "spec": json.RawMessage(specJSON)},
		http.StatusCreated, nil)
	spec, _ := cat.Spec("intro")
	native, err := spec.Derive(provrpq.DeriveOptions{Seed: 31, TargetEdges: 160})
	if err != nil {
		t.Fatal(err)
	}
	fullJSON, err := provrpq.EncodeRun(native)
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, batchJSON := splitRunJSON(t, fullJSON, native.NumNodes()/3)
	c.do("POST", "/v1/runs", map[string]any{"name": "full", "spec": "intro", "run": json.RawMessage(fullJSON)},
		http.StatusCreated, nil)
	c.do("POST", "/v1/runs", map[string]any{"name": "streamed", "spec": "intro", "run": json.RawMessage(baseJSON)},
		http.StatusCreated, nil)

	lines, wantNodes, wantEdges := ndjsonOf(t, batchJSON)
	body := strings.Join(lines, "\n") + "\n\n" // trailing blank line must be ignored
	resp, err := c.hc.Post(c.base+"/v1/runs/streamed/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream = %d: %s", resp.StatusCode, raw)
	}
	var sr streamResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	wantBatches := (len(lines) + 6) / 7
	if sr.Batches != wantBatches || sr.Version != wantBatches {
		t.Fatalf("stream response %+v: want %d batches (and version)", sr, wantBatches)
	}
	if sr.StreamedNodes != wantNodes || sr.StreamedEdges != wantEdges {
		t.Fatalf("stream response %+v: want %d nodes, %d edges streamed", sr, wantNodes, wantEdges)
	}
	if sr.Nodes != native.NumNodes() || sr.Edges != native.NumEdges() {
		t.Fatalf("stream response %+v: want final totals %d/%d", sr, native.NumNodes(), native.NumEdges())
	}

	// Differential: streamed-and-grouped == uploaded whole, safe and unsafe.
	for _, qs := range []string{"_*.s._*.publish", "ingest._*", "_*.a1._*", "_*"} {
		var got, want struct {
			Count int                         `json:"count"`
			Pairs []struct{ From, To string } `json:"pairs"`
		}
		c.do("POST", "/v1/evaluate", map[string]any{"run": "streamed", "query": qs}, http.StatusOK, &got)
		c.do("POST", "/v1/evaluate", map[string]any{"run": "full", "query": qs}, http.StatusOK, &want)
		if got.Count != want.Count {
			t.Fatalf("query %s: streamed count %d, whole count %d", qs, got.Count, want.Count)
		}
		for i := range got.Pairs {
			if got.Pairs[i] != want.Pairs[i] {
				t.Fatalf("query %s pair %d: streamed %v, whole %v", qs, i, got.Pairs[i], want.Pairs[i])
			}
		}
	}
}

// TestServerStreamErrors covers the stream's failure contract: unknown run,
// malformed records, ambiguous records, and the per-record size bound
// (which must surface as 413 request_too_large, like the body bound).
func TestServerStreamErrors(t *testing.T) {
	cat, c := newService(t, Options{MaxRecordBytes: 256})
	if err := cat.RegisterSpec("intro", introSpec(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.DeriveRun("run-a", "intro", provrpq.DeriveOptions{Seed: 1, TargetEdges: 120}); err != nil {
		t.Fatal(err)
	}
	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := c.hc.Post(c.base+path, "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	if code, raw := post("/v1/runs/ghost/stream", `{"edge":{"From":0,"To":1,"Tag":"s"}}`); code != http.StatusNotFound {
		t.Fatalf("unknown run = %d: %s", code, raw)
	}
	if code, raw := post("/v1/runs/run-a/stream", "not json\n"); code != http.StatusBadRequest || !bytes.Contains(raw, []byte("bad_request")) {
		t.Fatalf("malformed record = %d: %s", code, raw)
	}
	if code, raw := post("/v1/runs/run-a/stream",
		`{"node":{"name":"x","module":"y","label":""},"edge":{"From":0,"To":1,"Tag":"s"}}`+"\n"); code != http.StatusBadRequest {
		t.Fatalf("ambiguous record = %d: %s", code, raw)
	}
	if code, raw := post("/v1/runs/run-a/stream", `{"unknown":{}}`+"\n"); code != http.StatusBadRequest {
		t.Fatalf("unknown record kind = %d: %s", code, raw)
	}
	long := fmt.Sprintf(`{"edge":{"From":0,"To":1,"Tag":%q}}`, strings.Repeat("s", 1024))
	code, raw := post("/v1/runs/run-a/stream", long+"\n")
	if code != http.StatusRequestEntityTooLarge || !bytes.Contains(raw, []byte("request_too_large")) {
		t.Fatalf("oversized record = %d, want 413 request_too_large: %s", code, raw)
	}
	// A bad batch mid-stream reports the committed prefix; the run keeps it.
	two := `{"edge":{"From":0,"To":1,"Tag":"s"}}` + "\n" + `{"edge":{"From":0,"To":1,"Tag":"nope"}}` + "\n"
	if code, raw := post("/v1/runs/run-a/stream", two); code != http.StatusBadRequest || !bytes.Contains(raw, []byte("bad_batch")) {
		t.Fatalf("invalid-tag batch = %d: %s", code, raw)
	}
	if v, _ := cat.RunVersion("run-a"); v != 0 {
		// Both edges land in one EOF flush, so the failed group commits
		// nothing: the run must be untouched.
		t.Fatalf("run version after failed stream = %d, want 0", v)
	}
}

// ---- standing queries over SSE ----

// splitRunJSONAt carves an encoded run into a base payload (nodes below
// cuts[0]) and one growth batch per further cut; every edge lands in the
// earliest segment that contains both its endpoints, so each batch is a
// valid append against the run as grown so far.
func splitRunJSONAt(t testing.TB, data []byte, cuts []int) (base []byte, batches [][]byte) {
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
	type edge struct {
		From int    `json:"From"`
		To   int    `json:"To"`
		Tag  string `json:"Tag"`
	}
	bounds := append([]int{}, cuts...)
	if bounds[len(bounds)-1] != len(rj.Nodes) {
		bounds = append(bounds, len(rj.Nodes))
	}
	edgesOf := make([][]edge, len(bounds))
	for _, e := range rj.Edges {
		mx := e.From
		if e.To > mx {
			mx = e.To
		}
		for i, b := range bounds {
			if mx < b {
				edgesOf[i] = append(edgesOf[i], edge(e))
				break
			}
		}
	}
	marshal := func(nodes []json.RawMessage, edges []edge) []byte {
		out, err := json.Marshal(map[string]any{"nodes": nodes, "edges": edges})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	base = marshal(rj.Nodes[:bounds[0]], edgesOf[0])
	for i := 1; i < len(bounds); i++ {
		batches = append(batches, marshal(rj.Nodes[bounds[i-1]:bounds[i]], edgesOf[i]))
	}
	return base, batches
}

// readSSE reads one complete SSE event (event name + data payload).
func readSSE(t testing.TB, br *bufio.Reader) (event string, data []byte) {
	t.Helper()
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		if line == "" {
			if event != "" || data != nil {
				return event, data
			}
			continue
		}
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok {
			data = []byte(v)
		}
	}
}

// TestServerWatchSSE is the standing-query differential over the wire: the
// snapshot event plus the union of every delta event must equal a post-hoc
// full /v1/evaluate, with no duplicates across events. The durable case
// registers the watch at version 1 and compacts the run before every later
// append: a run's version never goes back, so each delta still arrives (a
// version reset by the compaction would read as "already in the snapshot"
// and the watcher would drop the delta). Either way the
// snapshot runs on the catalog's own engine: the one compile of the query
// is the catalog cache's, and the process-wide cache sees nothing.
func TestServerWatchSSE(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		cat, c := newService(t, Options{})
		watchSSE(t, cat, c, 0)
	})
	t.Run("durable-compacted", func(t *testing.T) {
		st, err := provrpq.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cat := provrpq.NewCatalog(provrpq.CatalogOptions{Store: st})
		ts := httptest.NewServer(New(cat, Options{}).Handler())
		t.Cleanup(ts.Close)
		watchSSE(t, cat, &testClient{t: t, base: ts.URL, hc: ts.Client()}, 1)
	})
}

// watchSSE appends the first `before` of three growth batches, opens a
// watch, then appends the rest — on a durable catalog compacting the run
// before each — and checks snapshot ∪ deltas against a full evaluation.
func watchSSE(t *testing.T, cat *provrpq.Catalog, c *testClient, before int) {
	specJSON, err := introSpec(t).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	c.do("POST", "/v1/specs", map[string]any{"name": "intro", "spec": json.RawMessage(specJSON)},
		http.StatusCreated, nil)
	spec, _ := cat.Spec("intro")
	native, err := spec.Derive(provrpq.DeriveOptions{Seed: 41, TargetEdges: 180})
	if err != nil {
		t.Fatal(err)
	}
	fullJSON, err := provrpq.EncodeRun(native)
	if err != nil {
		t.Fatal(err)
	}
	n := native.NumNodes()
	baseJSON, batches := splitRunJSONAt(t, fullJSON, []int{n / 4, n / 2, 3 * n / 4})
	c.do("POST", "/v1/runs", map[string]any{"name": "r1", "spec": "intro", "run": json.RawMessage(baseJSON)},
		http.StatusCreated, nil)
	for _, b := range batches[:before] {
		c.do("POST", "/v1/runs/r1/edges", json.RawMessage(b), http.StatusOK, nil)
	}

	const query = "_*.s._*.publish" // safe in the intro fixture

	// Unsafe and malformed registrations are refused before any stream
	// starts.
	var errResp struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	c.do("POST", "/v1/watch", map[string]any{"run": "r1", "query": "s.s"}, http.StatusBadRequest, &errResp)
	if errResp.Error.Code != "bad_query" {
		t.Fatalf("unsafe watch code = %q, want bad_query", errResp.Error.Code)
	}
	c.do("POST", "/v1/watch", map[string]any{"run": "ghost", "query": query}, http.StatusNotFound, nil)

	// Open the watcher and read its snapshot. The deadline turns a delta
	// that never arrives into a failed read instead of a hung test.
	sharedBefore, catBefore := provrpq.DefaultPlanCache().Stats(), cat.Stats().PlanCache
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	body, _ := json.Marshal(map[string]string{"run": "r1", "query": query})
	req, err := http.NewRequestWithContext(ctx, "POST", c.base+"/v1/watch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("watch = %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch content type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	event, data := readSSE(t, br)
	if event != "snapshot" {
		t.Fatalf("first event = %q, want snapshot", event)
	}
	var snap struct {
		Version int                         `json:"version"`
		Total   int                         `json:"total"`
		Pairs   []struct{ From, To string } `json:"pairs"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != before || len(snap.Pairs) != snap.Total {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got := provrpq.DefaultPlanCache().Stats(); got != sharedBefore {
		t.Fatalf("the watch touched the process-wide plan cache: %+v, was %+v", got, sharedBefore)
	}
	if got := cat.Stats().PlanCache; got.Misses != catBefore.Misses+1 {
		t.Fatalf("the watch compiled its query %d times in the catalog's cache, want once", got.Misses-catBefore.Misses)
	}
	union := map[[2]string]bool{}
	for _, p := range snap.Pairs {
		union[[2]string{p.From, p.To}] = true
	}

	// Grow the run and collect one delta per append.
	for i, b := range batches[before:] {
		if cat.Store() != nil {
			var cr struct {
				Version int `json:"version"`
			}
			c.do("POST", "/v1/runs/r1/compact", nil, http.StatusOK, &cr)
			if cr.Version != before+i {
				t.Fatalf("append %d: compact reported version %d, want %d", i, cr.Version, before+i)
			}
		}
		c.do("POST", "/v1/runs/r1/edges", json.RawMessage(b), http.StatusOK, nil)
		event, data := readSSE(t, br)
		if event != "delta" {
			t.Fatalf("append %d: event = %q, want delta", i, event)
		}
		var delta struct {
			Version int                         `json:"version"`
			Count   int                         `json:"count"`
			Pairs   []struct{ From, To string } `json:"pairs"`
		}
		if err := json.Unmarshal(data, &delta); err != nil {
			t.Fatal(err)
		}
		if delta.Version != before+i+1 || len(delta.Pairs) != delta.Count {
			t.Fatalf("append %d: delta = %+v", i, delta)
		}
		for _, p := range delta.Pairs {
			key := [2]string{p.From, p.To}
			if union[key] {
				t.Fatalf("append %d: pair %v duplicated across events", i, p)
			}
			union[key] = true
		}
	}

	// Post-hoc ground truth: the union must equal a full evaluation.
	var want struct {
		Pairs []struct{ From, To string } `json:"pairs"`
	}
	c.do("POST", "/v1/evaluate", map[string]any{"run": "r1", "query": query}, http.StatusOK, &want)
	if len(want.Pairs) != len(union) {
		t.Fatalf("snapshot+deltas has %d pairs, full evaluation %d", len(union), len(want.Pairs))
	}
	for _, p := range want.Pairs {
		if !union[[2]string{p.From, p.To}] {
			t.Fatalf("pair %v missing from snapshot+deltas", p)
		}
	}
}

// TestServerWatchLimit: the MaxWatchers bound answers 429 overloaded once
// exhausted, and frees the slot when a watcher disconnects.
func TestServerWatchLimit(t *testing.T) {
	_, c := newService(t, Options{MaxWatchers: 1})
	registerFixture(t, c)
	body := `{"run":"run-a","query":"_*"}`

	resp1, err := c.hc.Post(c.base+"/v1/watch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp1.Body.Close()
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first watcher = %d", resp1.StatusCode)
	}
	// The snapshot event proves the first watcher holds its slot.
	if event, _ := readSSE(t, bufio.NewReader(resp1.Body)); event != "snapshot" {
		t.Fatalf("first watcher event = %q", event)
	}

	resp2, err := c.hc.Post(c.base+"/v1/watch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests || !bytes.Contains(raw, []byte("overloaded")) {
		t.Fatalf("second watcher = %d %s, want 429 overloaded", resp2.StatusCode, raw)
	}
}
